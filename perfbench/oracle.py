"""The benchmark's own reference answers.

Nothing here calls into the code under test except for the IR dataclasses
(the input language) and the variable/site id table (the id universe the
encoded matrix is expressed over).  The solver and the query model are
written from the definitions, without the program's presolve, difference
propagation or interval encoding, so a wrong answer anywhere in the
pipeline shows up as a mismatch here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.ir import (
    Alloc,
    Call,
    Copy,
    FieldLoad,
    FieldStore,
    FuncRef,
    IndirectCall,
    Load,
    Program,
    Return,
    Store,
    SymbolTable,
)

IS_ALIAS = "is_alias"
LIST_ALIASES = "list_aliases"
LIST_POINTS_TO = "list_points_to"
LIST_POINTED_BY = "list_pointed_by"
KINDS = (IS_ALIAS, LIST_ALIASES, LIST_POINTS_TO, LIST_POINTED_BY)


# ----------------------------------------------------------------------
# Plain least-fixpoint Andersen solver
# ----------------------------------------------------------------------


def solve_andersen(program: Program) -> Tuple[List[Set[int]], int]:
    """Solve the inclusion constraints of ``program`` by naive iteration.

    Every pass re-applies every constraint to whole points-to sets until a
    pass changes nothing.  Returns the rows of the points-to matrix over
    the program's variable ids and the object (site) count.
    """
    table = SymbolTable(program)
    globals_ = set(program.globals)

    def var(function: str, name: str) -> int:
        if name in globals_:
            return table.variable_ids[name]
        return table.variable_ids["%s::%s" % (function, name)]

    returns: Dict[str, List[int]] = {}
    for function in program.functions.values():
        for stmt in function.simple_statements():
            if isinstance(stmt, Return) and stmt.value is not None:
                returns.setdefault(function.name, []).append(var(function.name, stmt.value))
    params = {
        name: [var(name, param) for param in function.params]
        for name, function in program.functions.items()
    }

    base: List[Tuple[int, int]] = []
    copies: List[Tuple[int, int]] = []  # (src, dst)
    loads: List[Tuple[int, int]] = []  # dst = *src
    stores: List[Tuple[int, int]] = []  # *dst = src
    icalls: List[Tuple[int, Optional[int], Tuple[int, ...]]] = []
    for function in program.functions.values():
        fname = function.name
        for stmt in function.simple_statements():
            if isinstance(stmt, Alloc):
                base.append((var(fname, stmt.target),
                             table.site_ids["%s::%s" % (fname, stmt.site)]))
            elif isinstance(stmt, FuncRef):
                base.append((var(fname, stmt.target), table.site_ids["fn:%s" % stmt.func]))
            elif isinstance(stmt, Copy):
                copies.append((var(fname, stmt.source), var(fname, stmt.target)))
            elif isinstance(stmt, (Load, FieldLoad)):
                loads.append((var(fname, stmt.target), var(fname, stmt.source)))
            elif isinstance(stmt, (Store, FieldStore)):
                stores.append((var(fname, stmt.target), var(fname, stmt.source)))
            elif isinstance(stmt, Call):
                for param, arg in zip(params[stmt.callee], stmt.args):
                    copies.append((var(fname, arg), param))
                if stmt.target is not None:
                    target = var(fname, stmt.target)
                    copies.extend((ret, target) for ret in returns.get(stmt.callee, ()))
            elif isinstance(stmt, IndirectCall):
                icalls.append((
                    var(fname, stmt.pointer),
                    var(fname, stmt.target) if stmt.target else None,
                    tuple(var(fname, arg) for arg in stmt.args),
                ))

    function_of_site = {
        site: name[3:] for name, site in table.site_ids.items() if name.startswith("fn:")
    }
    pts: List[Set[int]] = [set() for _ in range(table.n_variables)]
    cell: List[Set[int]] = [set() for _ in range(table.n_sites)]
    for variable, site in base:
        pts[variable].add(site)

    def include(dst: Set[int], src: Set[int]) -> bool:
        before = len(dst)
        dst |= src
        return len(dst) != before

    changed = True
    while changed:
        changed = False
        for src, dst in copies:
            if include(pts[dst], pts[src]):
                changed = True
        for dst, src in loads:
            target = pts[dst]
            for obj in list(pts[src]):
                if include(target, cell[obj]):
                    changed = True
        for dst, src in stores:
            source = pts[src]
            for obj in list(pts[dst]):
                if include(cell[obj], source):
                    changed = True
        for pointer, target, args in icalls:
            for site in list(pts[pointer]):
                callee = function_of_site.get(site)
                if callee is None:
                    continue
                for param, arg in zip(params[callee], args):
                    if include(pts[param], pts[arg]):
                        changed = True
                if target is not None:
                    for ret in returns.get(callee, ()):
                        if include(pts[target], pts[ret]):
                            changed = True
    return pts, table.n_sites


# ----------------------------------------------------------------------
# The dict-of-sets model with an epoch history
# ----------------------------------------------------------------------


class Model:
    """The reference PM: base rows plus an ordered list of edits.

    Epoch ``k`` is the base with the first ``k`` edits applied, which is
    the state a file or service stamps as version ``k``.  Queries at any
    epoch replay only the edits that touch the asked-about row.
    """

    def __init__(self, n_pointers: int, n_objects: int, rows: Sequence[Iterable[int]]):
        self.n_pointers = n_pointers
        self.n_objects = n_objects
        self.rows: List[frozenset] = [frozenset(row) for row in rows]
        columns: List[Set[int]] = [set() for _ in range(n_objects)]
        for pointer, row in enumerate(self.rows):
            for obj in row:
                columns[obj].add(pointer)
        self.columns: List[frozenset] = [frozenset(column) for column in columns]
        self.edits: List[Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]] = []

    def fact_count(self) -> int:
        return sum(len(row) for row in self.rows)

    def reset(self) -> None:
        """Drop every edit (a fresh image starts again at epoch 0)."""
        self.edits = []

    def push(self, inserts: Sequence[Tuple[int, int]], deletes: Sequence[Tuple[int, int]]) -> int:
        """Record one edit; returns its epoch."""
        self.edits.append((tuple(inserts), tuple(deletes)))
        return len(self.edits)

    @property
    def head(self) -> int:
        return len(self.edits)

    def _replay(self, start: frozenset, epoch: Optional[int], key) -> Set[int]:
        edits = self.edits if epoch is None else self.edits[:epoch]
        result = set(start)
        for inserts, deletes in edits:
            for fact in inserts:
                hit = key(fact)
                if hit is not None:
                    result.add(hit)
            for fact in deletes:
                hit = key(fact)
                if hit is not None:
                    result.discard(hit)
        return result

    def points_to(self, pointer: int, epoch: Optional[int] = None) -> Set[int]:
        return self._replay(self.rows[pointer], epoch,
                            lambda fact: fact[1] if fact[0] == pointer else None)

    def pointed_by(self, obj: int, epoch: Optional[int] = None) -> Set[int]:
        return self._replay(self.columns[obj], epoch,
                            lambda fact: fact[0] if fact[1] == obj else None)

    def is_alias(self, p: int, q: int, epoch: Optional[int] = None) -> bool:
        return not self.points_to(p, epoch).isdisjoint(self.points_to(q, epoch))

    def aliases(self, p: int, epoch: Optional[int] = None) -> Set[int]:
        found: Set[int] = set()
        for obj in self.points_to(p, epoch):
            found |= self.pointed_by(obj, epoch)
        found.discard(p)
        return found

    def answer(self, kind: str, operands: Tuple[int, ...], epoch: Optional[int] = None):
        """The canonical answer: a bool, or a sorted tuple of ids."""
        if kind == IS_ALIAS:
            return self.is_alias(operands[0], operands[1], epoch)
        if kind == LIST_ALIASES:
            return tuple(sorted(self.aliases(operands[0], epoch)))
        if kind == LIST_POINTS_TO:
            return tuple(sorted(self.points_to(operands[0], epoch)))
        if kind == LIST_POINTED_BY:
            return tuple(sorted(self.pointed_by(operands[0], epoch)))
        raise ValueError("unknown query kind %r" % kind)


def canonical(kind: str, value):
    """Bring a program answer into the model's canonical form."""
    if kind == IS_ALIAS:
        return bool(value)
    return tuple(sorted(value))
