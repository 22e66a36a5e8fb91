"""One build, alone in its own process, so its peak RSS is its own.

Usage: ``python3 build_child.py {ir|pm} INPUT OUTPUT VERSION {plain|staged}``

``ir`` runs the ``encode`` CLI's path on IR source text: parse, Andersen
solve, matrix, persist.  ``pm`` loads a ``.pm`` matrix (not timed) and
times ``persist`` alone.  ``staged`` drives the encode stages one at a
time over a build context and writes the image with ``atomic_write``,
recording a span and how far each stage raised the peak RSS (the
high-water mark only grows, so a stage that stays under an earlier
stage's peak adds 0).  The last line of
standard output is a JSON object with the timings.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Spans  # noqa: E402


def peak_rss_mb(pid: str = "self") -> float:
    """Peak RSS of a process's own address space (``VmHWM``), in MB.

    ``ru_maxrss`` is no use here: on Linux a child created by fork and exec
    keeps the larger of its parent's peak and its own, so every child of a
    big benchmark process would report the benchmark's size.
    """
    try:
        with open("/proc/%s/status" % pid) as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(kind: str, source: str, output: str, version: int, mode: str) -> dict:
    from repro.analysis import andersen
    from repro.analysis.parser import parse_program
    from repro.cli import load_matrix_file
    from repro.core.ioutil import atomic_write
    from repro.core.pipeline import persist
    from repro.core.stages import ENCODE_STAGES, BuildContext

    spans = Spans(enabled=mode == "staged")
    result: dict = {}
    matrix = load_matrix_file(source) if kind == "pm" else None
    start = time.perf_counter()
    with spans.span("build", "bench"):
        if kind == "ir":
            with spans.span("analysis.parse", "analysis"):
                with open(source) as stream:
                    program = parse_program(stream.read())
            parsed = time.perf_counter()
            with spans.span("analysis.solve", "analysis"):
                solved = andersen.analyze(program)
            solve_end = time.perf_counter()
            with spans.span("analysis.to_matrix", "analysis"):
                matrix = solved.to_matrix()
            matrix_end = time.perf_counter()
            result.update({
                "analysis.parse_s": parsed - start,
                "analysis.solve_s": solve_end - parsed,
                "analysis.to_matrix_s": matrix_end - solve_end,
                "analysis.solve_iterations": solved.iterations,
            })
        if mode == "plain":
            persist(matrix, output, version=version, jobs=1)
        else:
            context = BuildContext(matrix, version=version)
            for stage in ENCODE_STAGES:
                peak_before = peak_rss_mb()
                stage_start = time.perf_counter()
                with spans.span("stage.%s" % stage.name, "core.stages"):
                    stage.run(context)
                result["stages.%s_s" % stage.name] = time.perf_counter() - stage_start
                result["stages.%s_rss_mb" % stage.name] = peak_rss_mb() - peak_before
            candidates = len(context.require("candidates")[4])
            kept = sum(context.require("kept"))
            result["stages.candidates"] = candidates
            result["stages.kept"] = kept
            result["stages.kept_ratio"] = kept / candidates if candidates else 0.0
            write_start = time.perf_counter()
            with spans.span("persist.write", "core.ioutil"):
                atomic_write(output, context.require("payload"))
            result["persist.write_s"] = time.perf_counter() - write_start
    result["build_s"] = time.perf_counter() - start
    result["matrix.pointers"] = matrix.n_pointers
    result["matrix.objects"] = matrix.n_objects
    result["matrix.facts"] = matrix.fact_count()
    result["build_rss_mb"] = peak_rss_mb()
    result["spans"] = spans.records
    return result


if __name__ == "__main__":
    kind, source, output, version, mode = sys.argv[1:6]
    print(json.dumps(main(kind, source, output, int(version), mode)))
