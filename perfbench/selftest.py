#!/usr/bin/env python3
"""Self-test: a deliberately wrong answer must be reported as one.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``

Runs one short ``serve-v4`` round with ``--inject-wrong-answer``, which
flips the first answer of the first timed trace window after the service
returned it.  The run must exit non-zero with ``"correct": false`` and
name the mismatch; this script exits 0 only if it did.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "serve-v4",
            "--seed", "1", "--seconds", "1", "--trace", "0", "--inject-wrong-answer"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    named = [line for line in lines if line.startswith("MISMATCH")]
    caught = done.returncode != 0 and result["correct"] is False and len(named) == 1
    for line in named:
        print(line)
    print("self-test %s: exit %d, correct %s, %d mismatch line(s)"
          % ("caught the wrong answer" if caught else "FAILED", done.returncode,
             result["correct"], len(named)))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
