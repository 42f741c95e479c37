"""Generic worklist dataflow solving over :mod:`repro.staticcheck.cfg`.

One solver, :func:`solve`, runs any monotone set-lattice analysis in
either direction: facts are hashable values in ``frozenset`` lattices
joined by union (may-analyses).  Transfer functions work element by
element, so per-statement results (which the dead-store and resource
checkers need) fall out of replaying a block from its fixpoint
boundary value.

Shipped analyses:

- :func:`liveness` — backward; facts are variable names live at a
  program point.  :func:`live_after` replays one block to recover the
  per-element live-out sets.
- the RES001 held-resources lattice lives in
  ``rules/resources.py`` on top of :func:`solve` with a custom
  transfer; its facts are ``(name, line, kind)`` acquisition records.

Use/def extraction understands block *elements* as the CFG builder
emits them: compound headers contribute only their controlling
expressions (an ``ast.For`` header uses its ``iter`` and defines its
``target``), never their suites — the suites live in other blocks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.staticcheck.cfg import CFG, EXCEPTION, NORMAL

Transfer = Callable[[ast.AST, frozenset], frozenset]

FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class Solution:
    """Per-block fixpoint values at block entry and exit.

    For a forward analysis ``block_in`` is the join over predecessor
    outs; for a backward analysis ``block_in`` is still the value at
    the block's *entry* (i.e. the analysis result after the block for
    backward flows).
    """

    block_in: dict[int, frozenset]
    block_out: dict[int, frozenset]


def solve(
    cfg: CFG,
    transfer: Transfer,
    direction: str = FORWARD,
    entry_value: frozenset = frozenset(),
    kinds: tuple[str, ...] = (NORMAL, EXCEPTION),
) -> Solution:
    """Union-join worklist fixpoint over ``cfg``.

    ``transfer`` maps (element, incoming facts) to outgoing facts and
    must be monotone.  ``kinds`` selects which edge kinds propagate —
    the resource checker passes ``(NORMAL,)`` to reason about normal
    completion only.
    """
    indices = [block.index for block in cfg.blocks]
    block_in = {index: frozenset() for index in indices}
    block_out = {index: frozenset() for index in indices}
    if direction == FORWARD:
        block_in[cfg.entry] = entry_value
        sources = cfg.predecessors
        boundary = cfg.entry
    else:
        block_out[cfg.exit] = entry_value
        sources = cfg.successors
        boundary = cfg.exit

    def flow_through(index: int, value: frozenset) -> frozenset:
        elements = cfg.blocks[index].elements
        if direction == BACKWARD:
            elements = list(reversed(elements))
        for element in elements:
            value = transfer(element, value)
        return value

    worklist = list(indices)
    while worklist:
        index = worklist.pop(0)
        joined = frozenset().union(
            *(
                (block_out if direction == FORWARD else block_in)[source]
                for source in sources(index, kinds)
            )
        )
        if index == boundary:
            joined |= entry_value
        if direction == FORWARD:
            block_in[index] = joined
            result = flow_through(index, joined)
            if result != block_out[index]:
                block_out[index] = result
                for succ in cfg.successors(index, kinds):
                    if succ not in worklist:
                        worklist.append(succ)
        else:
            block_out[index] = joined
            result = flow_through(index, joined)
            if result != block_in[index]:
                block_in[index] = result
                for pred in cfg.predecessors(index, kinds):
                    if pred not in worklist:
                        worklist.append(pred)
    return Solution(block_in=block_in, block_out=block_out)


# ---------------------------------------------------------------------------
# use/def extraction for block elements


def _names_loaded(node: ast.AST | None) -> set[str]:
    if node is None:
        return set()
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _names_stored(node: ast.AST | None) -> set[str]:
    if node is None:
        return set()
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
    }


def element_uses_defs(element: ast.AST) -> tuple[set[str], set[str]]:
    """(used names, defined names) for one CFG block element.

    Compound headers contribute only their controlling expressions;
    their suites are separate blocks.  Non-``Name`` assignment targets
    (``obj.attr``, ``seq[i]``) count their subexpressions as uses.
    """
    if isinstance(element, (ast.If, ast.While)):
        return _names_loaded(element.test), set()
    if isinstance(element, (ast.For, ast.AsyncFor)):
        return _names_loaded(element.iter), _names_stored(element.target)
    if isinstance(element, (ast.With, ast.AsyncWith)):
        uses: set[str] = set()
        defs: set[str] = set()
        for item in element.items:
            uses |= _names_loaded(item.context_expr)
            defs |= _names_stored(item.optional_vars)
        return uses, defs
    if isinstance(element, getattr(ast, "Match", ())):
        return _names_loaded(element.subject), set()
    if isinstance(element, ast.Assign):
        uses = _names_loaded(element.value)
        defs: set[str] = set()
        for target in element.targets:
            if isinstance(target, ast.Name):
                defs.add(target.id)
            else:
                uses |= _names_loaded(target)
                defs |= _names_stored(target)
        return uses, defs
    if isinstance(element, ast.AnnAssign):
        uses = _names_loaded(element.value) | _names_loaded(element.annotation)
        if isinstance(element.target, ast.Name):
            return uses, {element.target.id} if element.value else set()
        return uses | _names_loaded(element.target), set()
    if isinstance(element, ast.AugAssign):
        # reads the old value, writes the new one.
        uses = _names_loaded(element.value)
        if isinstance(element.target, ast.Name):
            return uses | {element.target.id}, {element.target.id}
        return uses | _names_loaded(element.target), set()
    if isinstance(element, ast.Delete):
        dead = {
            target.id
            for target in element.targets
            if isinstance(target, ast.Name)
        }
        return set(), dead
    if isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef)):
        uses = set()
        for decorator in element.decorator_list:
            uses |= _names_loaded(decorator)
        for default in element.args.defaults + [
            d for d in element.args.kw_defaults if d is not None
        ]:
            uses |= _names_loaded(default)
        return uses, {element.name}
    if isinstance(element, ast.ClassDef):
        uses = set()
        for decorator in element.decorator_list:
            uses |= _names_loaded(decorator)
        for base in element.bases:
            uses |= _names_loaded(base)
        return uses, {element.name}
    if isinstance(element, (ast.Import, ast.ImportFrom)):
        defs = set()
        for alias in element.names:
            if alias.name == "*":
                continue
            defs.add((alias.asname or alias.name).split(".", 1)[0])
        return set(), defs
    # simple statements and bare handler-type expressions: uses only,
    # plus any stores they contain (walrus, except-as has no AST name
    # node so it is invisible here).
    return _names_loaded(element), _names_stored(element)


# ---------------------------------------------------------------------------
# liveness (backward)


def _live_transfer(element: ast.AST, live: frozenset) -> frozenset:
    uses, defs = element_uses_defs(element)
    return frozenset((live - frozenset(defs)) | frozenset(uses))


def liveness(cfg: CFG) -> Solution:
    """Backward may-analysis; facts are names live at a program point."""
    return solve(cfg, _live_transfer, direction=BACKWARD)


def live_after(cfg: CFG, solution: Solution, block_index: int) -> list[frozenset]:
    """Per-element live-out sets for one block, in element order.

    ``live_after(...)[i]`` is the set of names live immediately after
    ``cfg.blocks[block_index].elements[i]``.
    """
    elements = cfg.blocks[block_index].elements
    live = solution.block_out[block_index]
    after: list[frozenset] = [frozenset()] * len(elements)
    for position in range(len(elements) - 1, -1, -1):
        after[position] = live
        live = _live_transfer(elements[position], live)
    return after
