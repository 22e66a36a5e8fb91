"""Workload definitions and seeded input generation.

A workload fixes its inputs up to a relabelling: the build input (an IR
program or a calibrated PM), and the query traces, batches and edit
streams, drawn once over canonical ids.  ``--seed`` picks the relabelling:
a random permutation of pointer and object ids for a PM, of function order
(and so of every variable and site id) for an IR program.  Every seed
feeds the program different bytes and ids, while the work it asks for is
the same up to that renaming, so figures compare across seeds.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ir import Program, SymbolTable
from repro.analysis.parser import format_program
from repro.bench.programs import ProgramSpec, generate_program
from repro.bench.synthetic import SyntheticSpec, synthesize
from repro.bench.workloads import TraceSpec, generate_trace

from oracle import IS_ALIAS, LIST_ALIASES, LIST_POINTED_BY, LIST_POINTS_TO, Model, solve_andersen

#: The race-detector mix of ``bench.workloads``: IsAlias, ListPointsTo,
#: ListPointedBy, ListAliases.
RACE_MIX = (0.70, 0.15, 0.05, 0.10)

#: Slots per round: each runs one window of every timed query phase.
SLOTS = 12
#: Pairs per IsAlias batch.
BATCH_SIZE = 256
#: Fresh opens of the edited file per round.
REOPENS = 6
#: Facts per edit.
EDIT_FACTS = 3
#: Torn-tail recovery ops per round.
TORN_OPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    version: int
    #: Trace operations per window.
    trace_window: int
    #: Zipf locality of the trace (0 = uniform); ``hot_pointers`` > 0
    #: confines every query to that many pointers.
    locality: float
    hot_pointers: int
    #: IsAlias batches per window.
    alias_batches: int
    #: List batches: operands per kind per window.
    list_batch: int
    #: Single IsAlias round trips over the socket per window.
    rtt_per_slot: int
    #: Edits per round, spread over the slots.
    edits: int
    #: Engine-direct probes per round (single queries per kind).
    engine_queries: int
    #: Exactly one of ``program`` (IR source input) or ``pm`` (matrix input).
    program: Optional[ProgramSpec] = None
    pm: Optional[SyntheticSpec] = None


WORKLOADS: Dict[str, Workload] = {
    # Source text to a v3 image: the solve dominates the build; moderate
    # queries on the lazy ptList engine; a long edit stream.
    "ir-v3": Workload(
        name="ir-v3",
        version=3,
        program=ProgramSpec(name="ir-v3", n_functions=400, statements_per_function=25,
                            n_types=8, seed=7, indirect_call_prob=0.1),
        trace_window=400, locality=0.8, hot_pointers=0, alias_batches=12, list_batch=8,
        rtt_per_slot=20, edits=72, engine_queries=300,
    ),
    # A calibrated PM encoded to v4: sections + dedup dominate the build;
    # a short, hot query phase that lives in the cache; a short edit stream.
    "hub-v4": Workload(
        name="hub-v4",
        version=4,
        pm=SyntheticSpec(n_pointers=15000, n_objects=7500, seed=11),
        trace_window=2000, locality=0.8, hot_pointers=48, alias_batches=32,
        list_batch=128, rtt_per_slot=20, edits=24, engine_queries=200,
    ),
    # A smaller PM encoded to v4: a long, low-locality query phase whose
    # keys do not repeat within a round and together far outnumber the
    # cache entries, in-process and over the socket; a short edit stream.
    "serve-v4": Workload(
        name="serve-v4",
        version=4,
        pm=SyntheticSpec(n_pointers=10000, n_objects=5000, seed=13),
        trace_window=120, locality=0.0, hot_pointers=0, alias_batches=8, list_batch=4,
        rtt_per_slot=25, edits=24, engine_queries=400,
    ),
}


@dataclass
class Inputs:
    """Everything one run feeds the program, plus the reference model."""

    workload: Workload
    seed: int
    model: Model
    #: The build input: IR source text or ``.pm`` text.
    source_text: str
    #: The race-detector trace, as (kind, operands) operations.
    trace: List[Tuple[str, Tuple[int, ...]]]
    alias_batches: List[List[Tuple[int, int]]]
    list_operands: Dict[str, List[int]]
    rtt_pairs: List[Tuple[int, int]]
    engine_pairs: List[Tuple[int, int]]
    engine_pointers: List[int]
    engine_objects: List[int]
    #: Per-round edit stream: (inserts, deletes) fact tuples.
    edits: List[Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]]
    #: One fact per torn-tail op, absent at every epoch.
    torn_facts: List[Tuple[int, int]]
    #: The (p, q, obj) every fresh open answers for, so opens are alike.
    probe: Tuple[int, int, int]

    def fingerprint(self) -> tuple:
        """A cheap identity of the inputs, for the determinism check."""
        return (len(self.source_text), hash(self.source_text), self.model.fact_count(),
                tuple(self.trace[:64]), tuple(self.edits))


def _permuted_program(program: Program, rng: random.Random) -> Program:
    names = list(program.functions)
    rng.shuffle(names)
    return Program(functions={name: program.functions[name] for name in names},
                   globals=list(program.globals), entry=program.entry)


def _name_maps(canonical: Program, actual: Program) -> Tuple[List[int], List[int]]:
    """Canonical → actual pointer and object ids, matched by name."""
    before, after = SymbolTable(canonical), SymbolTable(actual)
    pointers = [0] * before.n_variables
    for name, index in before.variable_ids.items():
        pointers[index] = after.variable_ids[name]
    objects = [0] * before.n_sites
    for name, index in before.site_ids.items():
        objects[index] = after.site_ids[name]
    return pointers, objects


def _pm_text(rows: Sequence[Sequence[int]], n_objects: int) -> str:
    lines = ["%d %d" % (len(rows), n_objects)]
    for pointer, row in enumerate(rows):
        lines.extend("%d %d" % (pointer, obj) for obj in row)
    return "\n".join(lines) + "\n"


def _edit_stream(rows: Sequence[frozenset], n_objects: int, workload: Workload,
                 rng: random.Random, pointers: Sequence[int]):
    """Effective edits: each inserts absent facts and deletes present ones."""
    current: Dict[int, set] = {}
    edits = []
    for _ in range(workload.edits):
        inserts, deletes = [], []
        touched = set()
        while len(inserts) + len(deletes) < EDIT_FACTS:
            pointer = rng.choice(pointers)
            if pointer in touched:
                continue
            touched.add(pointer)
            row = current.setdefault(pointer, set(rows[pointer]))
            if row and rng.random() < 0.4:
                obj = rng.choice(sorted(row))
                row.discard(obj)
                deletes.append((pointer, obj))
            else:
                obj = rng.randrange(n_objects)
                while obj in row:
                    obj = rng.randrange(n_objects)
                row.add(obj)
                inserts.append((pointer, obj))
        edits.append((tuple(inserts), tuple(deletes)))
    return edits


def generate(workload: Workload, seed: int) -> Inputs:
    """Build one run's inputs and reference model.

    Queries, batches, edits and torn-tail facts are drawn once per
    workload over canonical ids; ``seed`` picks the relabelling (a random
    permutation of pointer and object ids, or of function order for an IR
    program) that maps them, and the build input, to this run's ids.
    """
    relabel = random.Random(seed * 1_000_003 + 17)
    draws = random.Random(zlib.crc32(workload.name.encode()))
    if workload.program is not None:
        canonical_program = generate_program(workload.program)
        program = _permuted_program(canonical_program, relabel)
        source_text = format_program(program)
        rows, n_objects = solve_andersen(program)
        pointer_map, object_map = _name_maps(canonical_program, program)
    else:
        base = synthesize(workload.pm)
        n_objects = base.n_objects
        pointer_map = list(range(base.n_pointers))
        object_map = list(range(n_objects))
        relabel.shuffle(pointer_map)
        relabel.shuffle(object_map)
        rows = [()] * base.n_pointers
        for pointer, row in enumerate(base.rows):
            rows[pointer_map[pointer]] = sorted(object_map[obj] for obj in row)
        source_text = _pm_text(rows, n_objects)
    model = Model(len(rows), n_objects, rows)
    canonical_object = [0] * n_objects
    for index, actual in enumerate(object_map):
        canonical_object[actual] = index
    canon = [frozenset(canonical_object[obj] for obj in model.rows[actual])
             for actual in pointer_map]

    nonempty = [p for p in range(len(canon)) if canon[p]]
    if workload.hot_pointers:
        pointers = draws.sample(nonempty, workload.hot_pointers)
        objects = sorted({obj for p in pointers for obj in canon[p]})
        objects = draws.sample(objects, min(len(objects), workload.hot_pointers // 2))
    else:
        pointers = list(range(len(canon)))
        objects = list(range(n_objects))

    def draw(count: int):
        spec = TraceSpec(length=count, mix=RACE_MIX, locality=workload.locality,
                         seed=draws.randrange(1 << 30))
        return generate_trace(spec, pointers, objects).operations

    trace = draw(workload.trace_window * (SLOTS + 1))
    pair_count = BATCH_SIZE * workload.alias_batches * SLOTS
    alias_pairs = [ops for kind, ops in draw(pair_count * 2) if kind == IS_ALIAS][:pair_count]
    while len(alias_pairs) < pair_count:
        alias_pairs.append((draws.choice(pointers), draws.choice(pointers)))
    per_kind = workload.list_batch * SLOTS
    list_operands = {
        LIST_ALIASES: [draws.choice(pointers) for _ in range(per_kind)],
        LIST_POINTS_TO: [draws.choice(pointers) for _ in range(per_kind)],
        LIST_POINTED_BY: [draws.choice(objects) for _ in range(per_kind)],
    }
    rtt_pairs = [(draws.choice(pointers), draws.choice(pointers))
                 for _ in range(workload.rtt_per_slot * SLOTS)]
    engine_pairs = [(draws.choice(pointers), draws.choice(pointers))
                    for _ in range(workload.engine_queries)]
    engine_pointers = [draws.choice(pointers) for _ in range(workload.engine_queries // 4)]
    engine_objects = [draws.choice(objects) for _ in range(workload.engine_queries // 4)]
    edits = _edit_stream(canon, n_objects, workload, draws,
                         pointers if workload.hot_pointers else nonempty)
    edited = {pointer for inserts, deletes in edits for pointer, _ in inserts + deletes}
    torn_facts = []
    while len(torn_facts) < TORN_OPS:
        pointer = draws.choice(nonempty)
        obj = draws.randrange(n_objects)
        if pointer not in edited and obj not in canon[pointer]:
            torn_facts.append((pointer, obj))
            edited.add(pointer)

    probe = (draws.choice(nonempty), draws.choice(nonempty), draws.choice(objects))

    def fact(pair):
        return pointer_map[pair[0]], object_map[pair[1]]

    def pair(ops):
        return pointer_map[ops[0]], pointer_map[ops[1]]

    def operation(kind, ops):
        if kind == IS_ALIAS:
            return kind, pair(ops)
        if kind == LIST_POINTED_BY:
            return kind, (object_map[ops[0]],)
        return kind, (pointer_map[ops[0]],)

    alias_pairs = [pair(ops) for ops in alias_pairs]
    return Inputs(
        workload=workload, seed=seed, model=model, source_text=source_text,
        trace=[operation(kind, ops) for kind, ops in trace],
        alias_batches=[alias_pairs[i:i + BATCH_SIZE] for i in range(0, pair_count, BATCH_SIZE)],
        list_operands={
            kind: [object_map[x] if kind == LIST_POINTED_BY else pointer_map[x] for x in xs]
            for kind, xs in list_operands.items()},
        rtt_pairs=[pair(ops) for ops in rtt_pairs],
        engine_pairs=[pair(ops) for ops in engine_pairs],
        engine_pointers=[pointer_map[p] for p in engine_pointers],
        engine_objects=[object_map[o] for o in engine_objects],
        edits=[(tuple(fact(f) for f in inserts), tuple(fact(f) for f in deletes))
               for inserts, deletes in edits],
        torn_facts=[fact(f) for f in torn_facts],
        probe=(pointer_map[probe[0]], pointer_map[probe[1]], object_map[probe[2]]),
    )
