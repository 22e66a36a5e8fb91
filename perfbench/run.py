#!/usr/bin/env python3
"""The pipeline benchmark: IR or PM → image → store → engine → service →
daemon socket, plus DELTA appends, under one of three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {ir-v3|hub-v4|serve-v4} \\
        --seed N --seconds S --trace {0|1}

Every phase is a closed loop driven from this one process: one daemon
child (one worker) behind one socket connection, builds one at a time.
After set-up the run repeats whole rounds (build, open, trace, batches,
socket, engine probes, edits, reopen, torn-tail recovery) until ``S``
seconds have passed, so each run attempts the same mix of operations.
Every answer is checked against the benchmark's own model after its
timed window.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"

#: Set-up repetitions; ``setup_s`` is the median input set-up plus the
#: median daemon start.
SETUP_REPS = 3
DAEMON_STARTS = 3


if not os.path.isdir(os.path.join(SRC, "repro")):
    print("perfbench: no program sources under %s; run from a full checkout" % SRC,
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from repro.clients.daemon import DaemonClient  # noqa: E402
from repro.core.decoder import FLAT_SECTION_NAMES, CorruptFileError  # noqa: E402
from repro.core.flat import index_for_container  # noqa: E402
from repro.delta import DeltaLog, append_delta, load_versions  # noqa: E402
from repro.serve import AliasService  # noqa: E402
from repro.store import SECTION_NAMES, Container, open_index  # noqa: E402

import inputs as inputs_mod  # noqa: E402
from inputs import BATCH_SIZE, REOPENS, SLOTS, TORN_OPS  # noqa: E402
from oracle import (  # noqa: E402
    IS_ALIAS,
    KINDS,
    LIST_ALIASES,
    LIST_POINTED_BY,
    LIST_POINTS_TO,
    canonical,
)
from build_child import peak_rss_mb  # noqa: E402
from spans import LAYERS, Spans  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("build_s", "s"), ("build_rss_mb", "MB"), ("image_bytes", "bytes"),
    ("open_answer_ms", "ms"), ("trace_qps", "1/s"), ("alias_batch_qps", "1/s"),
    ("list_batch_qps", "1/s"), ("socket_qps", "1/s"), ("socket_rtt_ms", "ms"),
    ("serve_rss_mb", "MB"), ("edit_ms", "ms"), ("reopen_answer_ms", "ms"),
)
STAGES = ("normalize", "order", "trie", "intervals", "rectangles", "dedup", "sections",
          "assemble")


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    units = [("analysis.parse_s", "s"), ("analysis.solve_s", "s"),
             ("analysis.to_matrix_s", "s"), ("analysis.solve_iterations", "count"),
             ("matrix.pointers", "count"), ("matrix.objects", "count"),
             ("matrix.facts", "count")]
    for stage in STAGES:
        units.append(("stages.%s_s" % stage, "s"))
        units.append(("stages.%s_rss_mb" % stage, "MB"))
    units += [("stages.candidates", "count"), ("stages.kept", "count"),
              ("stages.kept_ratio", "ratio"), ("persist.write_s", "s")]
    units += [("store.section_bytes.%s" % name, "bytes") for name in SECTION_NAMES]
    units += [("store.section_bytes.%s" % name, "bytes") for name in FLAT_SECTION_NAMES]
    units += [("store.open_ms", "ms"), ("store.sections_materialized", "count")]
    units += [("engine.first_answer_ms.%s" % kind, "ms") for kind in KINDS]
    units += [("engine.is_alias_us", "us"), ("engine.is_alias_batch_us", "us"),
              ("engine.list_aliases_us", "us"), ("engine.list_points_to_us", "us"),
              ("engine.list_pointed_by_us", "us"), ("engine.list_items", "count"),
              ("serve.overhead_us", "us"), ("serve.cache_hit_ratio", "ratio"),
              ("serve.apply_delta_ms", "ms"), ("daemon.overhead_us", "us"),
              ("daemon.start_s", "s"), ("delta.append_ms", "ms"), ("delta.records", "count"),
              ("delta.bytes_per_fact", "bytes"), ("delta.load_versions_ms", "ms"),
              ("delta.as_of_ms", "ms")]
    units += [("self_s.%s" % layer, "s") for layer in LAYERS]
    units += [("trace.overhead_pct", "%")]
    return units


def tail_quantile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    if count < 40:
        return None
    return round(1.0 - 10.0 / count, 3)


class Bench:
    """One run: set-up, whole rounds until the time is up, a report."""

    def __init__(self, workload_name: str, seed: int, seconds: float, traced: bool,
                 inject_wrong: bool):
        self.workload = inputs_mod.WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.inject_wrong = inject_wrong
        self.spans = Spans(enabled=False)
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.expected: Dict[tuple, object] = {}
        self.verified: Dict[tuple, object] = {}
        self.work = os.path.join(OUT, "run-%d" % os.getpid())
        self.daemon: Optional[subprocess.Popen] = None
        self.client: Optional[DaemonClient] = None
        self.served_bytes = b""
        self.rounds = 0

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def copy(self, source: str, target: str) -> None:
        """Copy one work file to another and flush it to disk.

        Left dirty, the copy would be written back later, inside some
        timed edit's fsync or a window, on the kernel's schedule.
        """
        shutil.copyfile(self.path(source), self.path(target))
        with open(self.path(target), "rb") as stream:
            os.fsync(stream.fileno())

    def want(self, kind: str, operands: tuple, epoch: Optional[int] = 0):
        key = (kind, operands, epoch)
        value = self.expected.get(key)
        if value is None:
            value = self.inputs.model.answer(kind, operands, epoch)
            self.expected[key] = value
        return value

    def check(self, where: str, kind: str, operands: tuple, got, epoch: Optional[int] = 0) -> None:
        """Count one answered operation and compare it with the model.

        An answer equal to one already verified for the same query skips
        the canonicalising sort; anything else is compared in full.
        """
        self.attempted += 1
        key = (kind, operands, epoch)
        seen = self.verified.get(key)
        if seen is not None and got == seen:
            return
        expected = self.want(kind, operands, epoch)
        if canonical(kind, got) == expected:
            self.verified[key] = got
        else:
            self.mismatches.append("%s: %s%r at epoch %s gave %s, expected %s" % (
                where, kind, operands, epoch, _short(got), _short(expected)))

    def check_many(self, where: str, kind: str, operand_list: Sequence[tuple],
                   answers: Sequence, epoch: Optional[int] = 0) -> None:
        if len(answers) != len(operand_list):
            self.mismatches.append("%s: %d answers for %d queries"
                                   % (where, len(answers), len(operand_list)))
        for operands, got in zip(operand_list, answers):
            self.check(where, kind, operands, got, epoch)

    def maybe_corrupt(self, answers: list) -> None:
        """The self-test: turn one answer into a wrong one, once."""
        if self.inject_wrong and answers:
            self.inject_wrong = False
            first = answers[0]
            answers[0] = (not first) if isinstance(first, bool) else list(first) + [-1]

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def build(self) -> dict:
        """Run one build in a child process; returns its report and RSS."""
        workload = self.workload
        kind = "ir" if workload.program is not None else "pm"
        command = [sys.executable, os.path.join(HERE, "build_child.py"), kind,
                   self.path("input.src"), self.path("build.pes"), str(workload.version),
                   "staged" if self.traced else "plain"]
        with self.spans.span("build.child", "bench"):
            done = subprocess.run(command, stdout=subprocess.PIPE, env=self._env(),
                                  timeout=170)
            if done.returncode != 0:
                raise RuntimeError("build child exited with %d" % done.returncode)
            report = json.loads(done.stdout.decode().strip().splitlines()[-1])
            self.spans.adopt(report.pop("spans"))
        return report

    def start_daemon(self) -> float:
        """Start the daemon on the served image; returns seconds to first ping."""
        sock = self.path("d.sock")
        start = time.perf_counter()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "daemon", self.path("served.pes"),
             "--socket", sock, "--workers", "1"],
            stdout=subprocess.DEVNULL, stderr=open(self.path("daemon.log"), "ab"),
            env=self._env())
        deadline = start + 60.0
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            try:
                client = DaemonClient(sock, timeout=30.0)
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not come up within 60 s")
                time.sleep(0.002)
                continue
            client.ping()
            elapsed = time.perf_counter() - start
            self.client = client
            return elapsed

    def stop_daemon(self) -> Optional[float]:
        """Stop the daemon; returns its peak RSS in MB, read as it exits."""
        if self.client is not None:
            self.client.close()
            self.client = None
        daemon, self.daemon = self.daemon, None
        if daemon is None or daemon.poll() is not None:
            return None
        peak = peak_rss_mb(str(daemon.pid))
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        return peak

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        generated = []
        fingerprint = None
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.inputs = inputs_mod.generate(self.workload, self.seed)
            with open(self.path("input.src"), "w") as stream:
                stream.write(self.inputs.source_text)
                stream.flush()
                os.fsync(stream.fileno())
            generated.append(time.perf_counter() - start)
            if fingerprint is None:
                fingerprint = self.inputs.fingerprint()
            elif fingerprint != self.inputs.fingerprint():
                self.mismatches.append("set-up: inputs differ between repetitions of seed %d"
                                       % self.seed)

        self.round_build(first=True)
        self.copy("build.pes", "served.pes")
        with open(self.path("served.pes"), "rb") as stream:
            self.served_bytes = stream.read()
        self.check_image()
        starts = []
        for attempt in range(DAEMON_STARTS):
            with self.spans.span("daemon.start", "daemon"):
                starts.append(self.start_daemon())
            if attempt < DAEMON_STARTS - 1:
                self.stop_daemon()
        for value in starts:
            self.sample("daemon.start_s", value)
        self.setup_s = statistics.median(generated) + statistics.median(starts)

    def check_image(self) -> None:
        """The materialised image must equal the model, fact for fact."""
        self.attempted += 1
        index = open_index(self.path("served.pes"))
        try:
            matrix = index.materialize()
        finally:
            index.close()
        model = self.inputs.model
        if (matrix.n_pointers, matrix.n_objects) != (model.n_pointers, model.n_objects):
            self.mismatches.append("build: image is %dx%d, model %dx%d" % (
                matrix.n_pointers, matrix.n_objects, model.n_pointers, model.n_objects))
            return
        for pointer in range(model.n_pointers):
            if frozenset(matrix.rows[pointer]) != model.rows[pointer]:
                self.mismatches.append("build: row %d of the image differs from the model"
                                       % pointer)
                return

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------

    def round_build(self, first: bool = False) -> None:
        report = self.build()
        if not first:
            self.attempted += 1
            with open(self.path("build.pes"), "rb") as stream:
                if stream.read() != self.served_bytes:
                    self.mismatches.append("build: round %d image differs from the checked one"
                                           % self.rounds)
        self.sample("image_bytes", os.path.getsize(self.path("build.pes")))
        for name, value in report.items():
            self.sample(name, value)

    def open_and_answer(self, path: str, p: int, q: int, obj: int):
        """A fresh lazy service on ``path``, until one answer of each kind.

        Returns the seconds taken and the answers, in ``KINDS`` order.
        """
        with self.spans.span("open_answer", "bench"):
            start = time.perf_counter()
            with self.spans.span("serve.from_files", "serve"):
                service = AliasService.from_files([path], lazy=True)
            with self.spans.span("serve.first_answers", "serve"):
                answers = [service.is_alias(p, q), service.list_aliases(p),
                           service.list_points_to(p), service.list_pointed_by(obj)]
            elapsed = time.perf_counter() - start
        service.close()
        return elapsed, answers

    def open_answer(self) -> None:
        p, q, obj = self.inputs.probe
        elapsed, answers = self.open_and_answer(self.path("round.pes"), p, q, obj)
        self.sample("open_answer_ms", elapsed * 1000.0)
        for kind, operands, got in zip(KINDS, ((p, q), (p,), (p,), (obj,)), answers):
            self.check("open", kind, operands, got)

    def phase_engine(self) -> None:
        """Direct calls into the engine (flat on v4, lazy ptList on v3)."""
        inp = self.inputs
        path = self.path("round.pes")
        p, q, obj = inp.probe
        for rep in range(REOPENS):
            start = time.perf_counter()
            with self.spans.span("store.open", "store"):
                container = Container.open(path, allow_tail=False)
            self.sample("store.open_ms", (time.perf_counter() - start) * 1000.0)
            index = index_for_container(container)
            calls = ((IS_ALIAS, index.is_alias, (p, q)),
                     (LIST_ALIASES, index.list_aliases, (p,)),
                     (LIST_POINTS_TO, index.list_points_to, (p,)),
                     (LIST_POINTED_BY, index.list_pointed_by, (obj,)))
            for kind, call, operands in calls:
                start = time.perf_counter()
                with self.spans.span("engine.first.%s" % kind, "engine"):
                    got = call(*operands)
                self.sample("engine.first_answer_ms.%s" % kind,
                            (time.perf_counter() - start) * 1000.0)
                self.check("engine-first", kind, operands, got)
            self.sample("store.sections_materialized", container.sections_materialized)
            if rep == 0:
                for number, name in enumerate(SECTION_NAMES):
                    self.sample("store.section_bytes.%s" % name,
                                len(container.section_view(number)))
                for number, name in enumerate(FLAT_SECTION_NAMES):
                    size = len(container.flat_view(number)) if container.has_flat else 0
                    self.sample("store.section_bytes.%s" % name, size)
            index.close()
            container.close()

        index = self.engine
        # Warm-up, untimed: the first calls build the lazy structures.
        self.check("engine-warmup", IS_ALIAS, (p, q), index.is_alias(p, q))
        self.check("engine-warmup", LIST_ALIASES, (p,), index.list_aliases(p))
        self.check("engine-warmup", LIST_POINTED_BY, (obj,), index.list_pointed_by(obj))
        pairs = inp.engine_pairs
        answers = []
        start = time.perf_counter()
        with self.spans.span("engine.is_alias", "engine"):
            for p, q in pairs:
                answers.append(index.is_alias(p, q))
        self.sample("engine.is_alias_us", (time.perf_counter() - start) * 1e6 / len(pairs))
        self.check_many("engine", IS_ALIAS, pairs, answers)
        mirrored = [index.is_alias(q, p) for p, q in pairs]
        if mirrored != answers:
            self.mismatches.append("engine: is_alias is not symmetric on this seed's pairs")
        items = 0
        for kind, operands in ((LIST_ALIASES, inp.engine_pointers),
                               (LIST_POINTS_TO, inp.engine_pointers),
                               (LIST_POINTED_BY, inp.engine_objects)):
            call = getattr(index, kind)
            answers = []
            start = time.perf_counter()
            with self.spans.span("engine.%s" % kind, "engine"):
                for operand in operands:
                    answers.append(call(operand))
            self.sample("engine.%s_us" % kind,
                        (time.perf_counter() - start) * 1e6 / len(operands))
            items += sum(len(answer) for answer in answers)
            self.check_many("engine", kind, [(operand,) for operand in operands], answers)
        self.sample("engine.list_items", items)

    def trace_window(self, calls, slot: int) -> None:
        """One window of the race-detector trace, one call per query.

        Slice 0 is the untimed warm-up; slot ``k`` replays slice ``k + 1``.
        In a traced run every other window records a span per call, and
        the two kinds of window give the tracing overhead.
        """
        length = self.workload.trace_window
        window = self.inputs.trace[(slot + 1) * length:(slot + 2) * length]
        traced = self.traced and slot % 2 == 1
        elapsed = self._trace_window(calls, window, "trace", timed=True, traced=traced)
        if traced:
            self.sample("trace.window_traced_s", elapsed)
        else:
            self.sample("trace.window_plain_s", elapsed)
            self.sample("trace_qps", length / elapsed)

    def _trace_window(self, calls, window, where: str, timed: bool, traced: bool) -> float:
        bound = [(calls[kind], operands) for kind, operands in window]
        answers = []
        append = answers.append
        if traced:
            span = self.spans.span
            names = ["serve.%s" % kind for kind, _ in window]
            start = time.perf_counter()
            for (call, operands), name in zip(bound, names):
                with span(name, "serve"):
                    append(call(*operands))
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            for call, operands in bound:
                append(call(*operands))
            elapsed = time.perf_counter() - start
        if timed:
            self.maybe_corrupt(answers)
        for (kind, operands), got in zip(window, answers):
            self.check(where, kind, operands, got)
        return elapsed

    def alias_window(self, service: AliasService, slot: int) -> None:
        """The same IsAlias batches through the service, the engine and the socket."""
        per = self.workload.alias_batches
        window = self.inputs.alias_batches[slot * per:(slot + 1) * per]
        queries = per * BATCH_SIZE
        times = []
        for name, call, layer in (("alias_batch", service.is_alias_batch, "serve"),
                                  ("engine_batch", self.engine.is_alias_batch, "engine"),
                                  ("socket_batch", self.client.is_alias_batch, "daemon")):
            answers = []
            with self.spans.span(name, "bench"):
                start = time.perf_counter()
                for batch in window:
                    with self.spans.span("%s.is_alias_batch" % layer, layer):
                        answers.append(call(batch))
                times.append(time.perf_counter() - start)
            for batch, got in zip(window, answers):
                self.check_many(name, IS_ALIAS, batch, got)
        service_t, engine_t, socket_t = times
        self.sample("alias_batch_qps", queries / service_t)
        self.sample("socket_qps", queries / socket_t)
        self.sample("engine.is_alias_batch_us", engine_t * 1e6 / queries)
        self.sample("serve.overhead_us", (service_t - engine_t) * 1e6 / queries)
        self.sample("daemon.overhead_us", (socket_t - service_t) * 1e6 / queries)

    def list_window(self, service: AliasService, slot: int) -> None:
        """One batch of each list query kind."""
        size = self.workload.list_batch
        operands = self.inputs.list_operands
        chunks = [(kind, call, operands[kind][slot * size:(slot + 1) * size])
                  for kind, call in ((LIST_ALIASES, service.list_aliases_many),
                                     (LIST_POINTS_TO, service.points_to_batch),
                                     (LIST_POINTED_BY, service.pointed_by_batch))]
        answers = []
        start = time.perf_counter()
        for kind, call, chunk in chunks:
            with self.spans.span("serve.%s_batch" % kind, "serve"):
                answers.append(call(chunk))
        self.sample("list_batch_qps", 3 * size / (time.perf_counter() - start))
        for (kind, _call, chunk), got in zip(chunks, answers):
            self.check_many("list_batch", kind, [(x,) for x in chunk], got)

    def rtt_window(self, slot: int) -> None:
        """Single IsAlias round trips over the socket."""
        per = self.workload.rtt_per_slot
        pairs = self.inputs.rtt_pairs[slot * per:(slot + 1) * per]
        client = self.client
        answers = []
        for p, q in pairs:
            start = time.perf_counter()
            with self.spans.span("daemon.is_alias", "daemon"):
                answers.append(client.is_alias(p, q))
            self.sample("socket_rtt_ms", (time.perf_counter() - start) * 1000.0)
        self.check_many("socket_rtt", IS_ALIAS, pairs, answers)

    def start_edits(self) -> None:
        """Open the edit file's long-lived service; edits start at epoch 0.

        Edits go to their own copy of the image, so the query phases keep
        reading the base while the edit stream runs between their windows.
        Spreading the durable appends over the round samples the disk at
        many moments, not in one burst.
        """
        self.inputs.model.reset()
        self.edit_service = AliasService.from_files([self.path("edit.pes")], lazy=True)
        self.edit_queue = list(self.inputs.edits)
        self.edit_answers = []
        self.edit_bytes = 0
        self.edit_facts = 0
        self.last_record = 0
        total = len(self.edit_queue)
        self.edit_plan = [(slot + 1) * total // SLOTS - slot * total // SLOTS
                          for slot in range(SLOTS)]

    def edit_slot(self) -> None:
        """Run this slot's share of the edit stream."""
        for _ in range(self.edit_plan.pop(0)):
            self.edit(*self.edit_queue.pop(0))

    def edit(self, inserts, deletes) -> None:
        """Durable append, live apply, an answer at the new version."""
        service = self.edit_service
        log = DeltaLog()
        for pointer, obj in inserts:
            log.insert(pointer, obj)
        for pointer, obj in deletes:
            log.delete(pointer, obj)
        pointer = (inserts + deletes)[0][0]
        with self.spans.span("edit", "bench"):
            start = time.perf_counter()
            with self.spans.span("delta.append_delta", "delta"):
                result = append_delta(self.path("edit.pes"), log)
            appended_at = time.perf_counter()
            with self.spans.span("serve.apply_delta", "serve"):
                service.apply_delta(log)
            applied_at = time.perf_counter()
            with self.spans.span("serve.list_points_to", "serve"):
                got = service.list_points_to(pointer)
            done = time.perf_counter()
        epoch = self.inputs.model.push(inserts, deletes)
        self.edit_answers.append((pointer, got, epoch, result.epoch, service.version))
        self.sample("edit_ms", (done - start) * 1000.0)
        self.sample("delta.append_ms", (appended_at - start) * 1000.0)
        self.sample("serve.apply_delta_ms", (applied_at - appended_at) * 1000.0)
        self.edit_bytes += result.bytes_appended
        self.last_record = result.bytes_appended
        self.edit_facts += len(inserts) + len(deletes)

    def finish_edits(self) -> None:
        self.edit_service.close()
        for pointer, got, epoch, file_epoch, service_version in self.edit_answers:
            self.check("edit", LIST_POINTS_TO, (pointer,), got, epoch)
            if file_epoch != epoch or service_version != epoch:
                self.mismatches.append("edit: epoch %d stamped as file %d, service %d"
                                       % (epoch, file_epoch, service_version))
        self.sample("delta.bytes_per_fact", self.edit_bytes / max(1, self.edit_facts))

    def phase_reopen(self) -> None:
        """Fresh opens of the edited file, time travel on the reopened file."""
        inp = self.inputs
        model = inp.model
        head = model.head
        path = self.path("edit.pes")
        inserts, deletes = inp.edits[0]
        p, obj = (inserts + deletes)[0]
        q = inp.probe[1]
        for _ in range(REOPENS):
            elapsed, answers = self.open_and_answer(path, p, q, obj)
            self.sample("reopen_answer_ms", elapsed * 1000.0)
            for kind, operands, got in zip(KINDS, ((p, q), (p,), (p,), (obj,)), answers):
                self.check("reopen", kind, operands, got, head)

            older = max(1, head // 2)
            start = time.perf_counter()
            with self.spans.span("delta.load_versions", "delta"):
                versions = load_versions(path, lazy=True)
            loaded = time.perf_counter()
            with self.spans.span("delta.as_of", "delta"):
                got = versions.as_of(older).list_points_to(p)
            self.sample("delta.load_versions_ms", (loaded - start) * 1000.0)
            self.sample("delta.as_of_ms", (time.perf_counter() - loaded) * 1000.0)
            self.sample("delta.records", versions.record_count)
            versions.close()
            self.check("as_of", LIST_POINTS_TO, (p,), got, older)

    def phase_torn(self) -> None:
        """Crash mid-append, then append and read the head.

        The cut removes half of the last record, as a crash during that
        append would leave it, so the state to expect is every earlier
        edit plus the new one.  Today ``append_delta`` (and a plain
        ``load_versions``) refuse such a file with ``CorruptFileError``;
        each such op counts as failed.
        """
        inp = self.inputs
        model = inp.model
        head = model.head
        torn = self.path("torn.pes")
        for number in range(TORN_OPS):
            pointer, obj = inp.torn_facts[number]
            self.copy("edit.pes", "torn.pes")
            with open(torn, "r+b") as stream:
                stream.truncate(os.path.getsize(torn) - self.last_record // 2)
                os.fsync(stream.fileno())
            self.attempted += 1
            try:
                with self.spans.span("delta.append_delta", "delta"):
                    append_delta(torn, DeltaLog().insert(pointer, obj))
                with self.spans.span("delta.load_versions", "delta"):
                    versions = load_versions(torn, lazy=True)
            except CorruptFileError:
                self.failed += 1
                continue
            try:
                overlay = versions.head_overlay()
                touched = [pointer] + [p for p, _ in inp.edits[head - 1][0] + inp.edits[head - 1][1]]
                for p in touched:
                    expected = set(model.points_to(p, head - 1))
                    if p == pointer:
                        expected.add(obj)
                    if canonical(LIST_POINTS_TO, overlay.list_points_to(p)) != tuple(sorted(expected)):
                        self.mismatches.append("torn: pointer %d after recovery" % p)
            finally:
                versions.close()

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def phase(self, name: str):
        """Start a phase: park everything alive so far outside the collector.

        Collections then only walk what the phase itself allocates, so the
        benchmark's growing reference data never lands a full collection
        inside a timed window.
        """
        gc.collect()
        gc.freeze()
        return self.spans.phase(name)

    def run_round(self) -> None:
        """Build, then interleave every query kind slot by slot.

        Each slot runs one window of every timed query phase, so each
        metric is sampled at many moments spread over the round rather
        than in one burst; the edit stream is spread over the same slots.
        """
        if self.rounds > 0:
            with self.phase("build"):
                self.round_build()
        for name in ("round.pes", "edit.pes"):
            self.copy("build.pes", name)
        self.engine = open_index(self.path("round.pes"))
        service = AliasService.from_files([self.path("round.pes")], lazy=True)
        try:
            with self.phase("engine"):
                self.phase_engine()
            calls = {IS_ALIAS: service.is_alias, LIST_ALIASES: service.list_aliases,
                     LIST_POINTS_TO: service.list_points_to,
                     LIST_POINTED_BY: service.list_pointed_by}
            self._trace_window(calls, self.inputs.trace[:self.workload.trace_window],
                               "trace-warmup", timed=False, traced=False)
            self.start_edits()
            before = service.stats()
            for slot in range(SLOTS):
                with self.phase("queries"):
                    self.open_answer()
                    self.trace_window(calls, slot)
                    self.alias_window(service, slot)
                    self.list_window(service, slot)
                    self.rtt_window(slot)
                    self.edit_slot()
            after = service.stats()
            hits = after.cache_hits - before.cache_hits
            misses = after.cache_misses - before.cache_misses
            self.sample("serve.cache_hit_ratio", hits / max(1, hits + misses))
            self.finish_edits()
        finally:
            service.close()
            self.engine.close()
        with self.phase("reopen"):
            self.phase_reopen()
        with self.phase("torn_tail"):
            self.phase_torn()
        self.rounds += 1

    def run(self) -> dict:
        try:
            self.spans.enabled = self.traced
            with self.spans.phase("setup"):
                self.setup()
            # Whole rounds only: start another while it should still end
            # within the measured time (the first round always runs).
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                self.run_round()
                now = time.perf_counter()
                if now + (now - round_start) - start > self.seconds:
                    break
            serve_rss = self.stop_daemon()
        finally:
            self.stop_daemon()
            shutil.rmtree(self.work, ignore_errors=True)
        self.sample("serve_rss_mb", serve_rss)
        self.sample("setup_s", self.setup_s)
        return self.report()

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return float(statistics.median(values)) if values else 0.0

    def report(self) -> dict:
        metrics: Dict[str, dict] = {}
        print("workload %s, seed %d, %d rounds in %.0f s, %s run"
              % (self.workload.name, self.seed, self.rounds, self.seconds,
                 "traced" if self.traced else "untraced"))
        if self.traced:
            self_times = self.spans.self_times()
            for layer, value in self_times.items():
                self.sample("self_s.%s" % layer, value)
            plain = self.median("trace.window_plain_s")
            if self.samples.get("trace.window_traced_s"):
                self.sample("trace.overhead_pct",
                            100.0 * (self.median("trace.window_traced_s") / plain - 1.0))
            spans_path = os.path.join(OUT, "spans-%s-seed%d.json" % (self.workload.name,
                                                                      self.seed))
            self.spans.dump(spans_path)
            print("spans: %d written to %s" % (len(self.spans.records), spans_path))
            print("%-14s %12s" % ("phase", "wall (s)"))
            for name, seconds in self.spans.phase_times().items():
                print("%-14s %12.4f" % (name, seconds))
            print("%-14s %12s %8s" % ("layer", "self (s)", "share"))
            total = sum(self_times.values()) or 1.0
            for layer in LAYERS:
                print("%-14s %12.4f %7.1f%%" % (layer, self_times[layer],
                                                 100.0 * self_times[layer] / total))
            units = per_layer_units()
        else:
            units = list(END_TO_END)
        for name, unit in units:
            values = self.samples.get(name, [])
            value = self.median(name)
            metrics[name] = {"value": value, "unit": unit}
            line = "%-36s %16.6f %-6s n=%d" % (name, value, unit, len(values))
            q = tail_quantile(len(values))
            if q is not None and unit in ("ms", "us", "s"):
                ordered = sorted(values)
                line += "  p%g=%.6f" % (q * 100, ordered[int(q * (len(ordered) - 1))])
            print(line)
        correct = not self.mismatches
        for line in self.mismatches[:20]:
            print("MISMATCH %s" % line)
        if len(self.mismatches) > 20:
            print("MISMATCH ... %d more" % (len(self.mismatches) - 20))
        print("attempted %d, failed %d (torn-tail recovery)" % (self.attempted, self.failed))
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 80 else text[:77] + "..."


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test: corrupt one answer; the run must report it")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.inject_wrong_answer)
    result = bench.run()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
