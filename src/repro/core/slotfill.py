"""Skeleton instantiation: map a template query onto a target schema.

Given a template SQL AST (from a retrieved demonstration, an SFT
training example, or the model's pre-training skeleton bank), this
module produces concrete candidate SQL for the *target* database:

- template tables map to the highest-scoring target tables (schema
  linking scores from the classifier or the lexical scorer);
- template columns map to type-compatible columns of the assigned
  table, ranked by column score;
- string literals bind to retrieved database values (stored surface
  form!), quoted question spans, or capitalized entity spans;
- numeric literals bind to the numbers mentioned in the question;
- join conditions are rebuilt from foreign keys (or name-equality when
  key metadata is ablated away).

Each knob failure mode is a real error mode of the system: a missing
foreign key loses the join path, a missed value match produces a
predicate with the wrong surface form, a mis-ranked column selects the
wrong projection.

A template is compiled, once per dialect, into a :class:`FillPlan`: its
slots in fill order (select items, FROM/JOIN, WHERE, GROUP BY, HAVING,
ORDER BY, LIMIT, subqueries in place) with the dialect text between
them rendered by the backend's
:class:`~repro.sqlgen.dialects.base.DialectEmitter`.  A fill chooses a
target for each slot from the request's
:class:`~repro.core.fillcontext.InstantiationContext`, assembles the
SQL text and collects the feature inputs its choices imply, so no fill
builds an AST; :attr:`FilledCandidate.query` parses the SQL on demand.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

from repro.core.fillcontext import (
    InstantiationContext,
    _Col,
    _literal,
    _Value,
    question_aggregate,
    question_comparison_op,
    question_order_direction,
)
from repro.core.structure import StructureProfile, profile_query
from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    InCondition,
    LikeCondition,
    Literal,
    NullCondition,
    Query,
    identifier_key,
)
from repro.sqlgen.dialects import DialectEmitter, parse_dialect_sql


class _Bound(NamedTuple):
    """A plan under one table assignment: what all its variants share."""

    #: Lower-cased template table ("" too, for a one-table template) ->
    #: target table.
    targets: dict[str, str]
    #: Each query level's text with its FROM/JOIN and LIMIT formatted
    #: in: a format string over the level's slots.
    forms: tuple[str, ...]
    #: Join columns and the template's own fixed column references.
    columns: frozenset[str]
    tables: frozenset[str]
    pools: dict


class _Unfillable(Exception):
    """A template node no fill gets past."""


_BY_DEGREE = attrgetter("degree")
_COMPARISONS = (">", "<", ">=", "<=")
#: A level's pieces its table assignment fixes, by position in
#: (head limit text, FROM/JOIN text, tail limit text).
_HEAD, _FROM, _TAIL = range(3)


class _Fill:
    """One fill's state: its slot choices so far and the feature inputs
    they imply."""

    __slots__ = (
        "ctx", "emitter", "pools", "targets", "forms", "variant", "chosen", "used",
        "number", "string", "values", "ungrounded", "variant_matters",
        "columns", "projected", "bindings",
    )

    def __init__(self, ctx: InstantiationContext, emitter, bound: _Bound, variant: int):
        self.ctx, self.emitter, self.variant = ctx, emitter, variant
        self.pools, self.targets, self.forms = bound.pools, bound.targets, bound.forms
        self.chosen: dict[str, _Col | None] = {}
        self.used: set[str] = set()
        self.number = self.string = 0
        #: The retrieved values not bound yet (None: all of them).
        self.values: list[_Value] | None = None
        #: Literal slots that had to fall back to template/DB defaults
        #: because nothing in the question grounded them.
        self.ungrounded = 0
        #: Whether some select slot picked by ``variant`` had a column
        #: left past its pick, i.e. ``variant + 1`` would choose another.
        self.variant_matters = False
        #: Keys of the columns chosen (the bound's come on top), of the
        #: projected ones, and the WHERE's (column key, value) bindings.
        self.columns: list[str] = []
        self.projected: list[str] = []
        self.bindings: list[tuple[str, object]] = []

    def column(self, slots: tuple) -> _Col | None:
        """Assign a target column to a template column: the first of
        ``slots`` (its kinds, in fallback order) with a pool to pick from.

        The choice is keyed by the template column alone so the same
        template column always maps to the same target column, no
        matter where it re-appears (SELECT vs WHERE vs ORDER BY).
        """
        for key, table_key, kind, keyless, select in slots:
            if key in self.chosen:
                return self.chosen[key]
            table = self.targets.get(table_key)
            if table is None:
                self.chosen[key] = None
                return None
            candidates = self.pools.get((table, kind, keyless))
            if candidates is None:
                candidates = self.ctx.column_pool(self.emitter, table, kind, keyless)
            if not candidates:
                continue
            # Spread distinct template slots across distinct target columns.
            pool = candidates
            if self.used:
                pool = [c for c in candidates if c.key not in self.used] or candidates
            index = 0
            if select:
                index = min(self.variant, len(pool) - 1)
                self.variant_matters |= index < len(pool) - 1
            chosen = self.chosen[key] = pool[index]
            self.used.add(chosen.key)
            return chosen
        return None

    def number_literal(self, default: tuple[str, object]) -> tuple[str, object]:
        """The question's next number, else (ungrounded) ``default``."""
        numbers = self.ctx.number_literals
        if self.number < len(numbers):
            self.number += 1
            return numbers[self.number - 1]
        self.ungrounded += 1
        return default

    def text_binding(self, slots: tuple, default: tuple[str, object]):
        """(column, literal) for an equality on text; column None when
        nothing binds.  Retrieved values pin both the column and the
        stored surface form; without them the question's spans fill the
        value slot."""
        table = self.targets.get(slots[0][1])
        if table is None:
            return None, default
        # A matched value in the assigned table is the strongest signal.
        preferred = self.column(slots)
        match = self._take_value(table, preferred)
        if match is not None:
            return match.column, match.literal
        if preferred is None:
            return None, default
        strings = self.ctx.question_strings
        if self.string < len(strings):
            self.string += 1
            surface = strings[self.string - 1]
            return preferred, self.ctx.repaired_literal(table, preferred.name, surface)
        self.ungrounded += 1
        return preferred, self.ctx.stored_literal(table, preferred.name) or default

    def _take_value(self, table: str, preferred: _Col | None) -> _Value | None:
        table_key = identifier_key(table)
        target = preferred.key if preferred is not None else f"{table_key}."
        available = self.values if self.values is not None else self.ctx.values(self.emitter)
        pool = [v for v in available if v.column.key == target] or [
            v for v in available if v.table_key == table_key
        ]
        if not pool:
            return None
        best = max(pool, key=_BY_DEGREE)
        self.values = list(available)
        self.values.remove(best)
        return best


def _slots(column: ColumnRef, role: str, *kinds: str) -> tuple:
    """``column``'s slots, one per kind in fallback order: (key, table
    key, kind, keyless, select)."""
    keyless = role in ("select", "group", "agg", "order")
    key, table_key = column.key(), identifier_key(column.table)
    return tuple((key, table_key, kind, keyless, role == "select") for kind in kinds)


def _on_column(slots: tuple, rest: Callable | None = None) -> Callable:
    """A slot on one chosen column: its text, then ``rest(state, column)``."""

    def slot(state: _Fill) -> str | None:
        column = state.column(slots)
        if column is None:
            return None
        state.columns.append(column.key)
        return column.text if rest is None else column.text + rest(state, column)

    return slot


def _around(slots: tuple, inner: Callable, middle: str) -> Callable:
    """``column <middle> subquery )``; the subquery fills even when no
    column is chosen, as its choices count towards ``variant_matters``."""

    def slot(state: _Fill) -> str | None:
        column, text = state.column(slots), inner(state)
        if column is None or text is None:
            return None
        state.columns.append(column.key)
        return f"{column.text}{middle}{text} )"

    return slot


def _text_of(piece) -> Callable:
    """``piece`` as a slot: a fixed text becomes a slot always giving it."""
    return piece if callable(piece) else (lambda state: piece)


def _escaped(text: str, rounds: int = 1) -> str:
    """``text`` as a literal through ``rounds`` of ``str.format``."""
    if "{" in text or "}" in text:
        for _ in range(rounds):
            text = text.replace("{", "{{").replace("}", "}}")
    return text


class FillPlan:
    """A template compiled for one dialect: its slots, in fill order,
    with the dialect text between them rendered once.

    :meth:`bind` resolves what a table assignment fixes (FROM/JOIN
    text, join columns, LIMIT text); a fill then only chooses columns
    and literals.  A template node no fill gets past (an aggregate
    compared with a subquery, an ORDER BY literal, ...) makes a plan
    that never fills.

    Slots run in template order (select items, FROM/JOIN, WHERE, GROUP
    BY, HAVING, ORDER BY, LIMIT, each subquery in place), and each one's
    text is what :meth:`DialectEmitter.serialize` renders for the node
    it fills, so a fill's SQL is the serialization of the query its
    choices make.  FROM and joins do not depend on the variant, so an
    assignment where they do not map binds to nothing instead of
    failing every variant.  ``tests/test_engine.py`` checks both against
    a reference filler that builds the query.
    """

    def __init__(self, template: Query, emitter: DialectEmitter):
        self.emitter, self.dialect = emitter, emitter.name
        #: Distinct template tables in appearance order (lower-cased).
        self.tables = _template_tables(template)
        first = template.select_items[0].expr if template.select_items else None
        #: One COUNT projection and no GROUP BY (every fill keeps both).
        self.bare_count = (
            len(template.select_items) == 1
            and isinstance(first, Aggregation)
            and first.func == "count"
            and not template.group_by
        )
        #: Per query level, top level first: (query, form, bound positions).
        self._levels: list = []
        self._fixed_columns: set[str] = set()
        try:
            self._fill = self._query(template, top=True)
        except _Unfillable:
            self._fill = None

    def bind(self, table_map: dict[str, str], ctx: InstantiationContext) -> _Bound | None:
        """The plan under ``table_map``, or None when it cannot fill:
        every query level's FROM and joins map through ``table_map``
        (a join may not repeat a table)."""
        if self._fill is None:
            return None
        targets = dict(table_map)
        if len(table_map) == 1:
            # Unqualified columns belong to the template's only table.
            targets[""] = next(iter(table_map.values()))
        emitter, top_k = self.emitter, ctx.question_top_k
        columns, forms = set(self._fixed_columns), []
        for query, form, positions in self._levels:
            first = targets.get(identifier_key(query.from_table)) or targets.get("")
            if first is None:
                return None
            joined, sources = [first], [emitter.quote(first)]
            for edge in query.joins:
                right = targets.get(identifier_key(edge.table))
                if right is None or right in joined:
                    return None
                join = ctx.join(joined, right)
                if join is None:
                    return None
                sources.append(emitter.render_join(join))
                columns.update((join.left.key(), join.right.key()))
                joined.append(right)
            head = tail = ""
            if query.limit is not None:
                head, tail = emitter.render_limit(query.limit if top_k is None else top_k)
            fixed = (f" {head}" if head else "", " ".join(sources), f" {tail}" if tail else "")
            forms.append(form.format(*(
                "{}" if position is None else _escaped(fixed[position])
                for position in positions
            )))
        # The top level's FROM and joins use every assigned table, each
        # once; subqueries use some of them again.
        tables = frozenset(map(identifier_key, table_map.values()))
        return _Bound(targets, tuple(forms), frozenset(columns), tables, ctx.pools(emitter))

    def fill(self, bound: _Bound, ctx: InstantiationContext, variant: int):
        """(candidate or None, whether ``variant + 1`` could fill differently)."""
        state = _Fill(ctx, self.emitter, bound, variant)
        sql = self._fill(state)
        if sql is None:
            return None, state.variant_matters
        bindings, projected = tuple(state.bindings), state.projected
        return FilledCandidate(
            sql,
            state.ungrounded,
            self.dialect,
            bound.columns.union(state.columns),
            bound.tables,
            bindings,
            bool(projected) and any(key in projected for key, _ in bindings),
            self.bare_count,
        ), state.variant_matters

    # -- compilation: one method per template node kind -------------------------

    def _query(self, query: Query, top: bool = False) -> Callable:
        level = len(self._levels)
        self._levels.append(None)
        pieces, positions, slots = [], [], []

        def add(piece) -> None:
            if isinstance(piece, str):
                pieces.append(_escaped(piece, rounds=2))
                return
            pieces.append("{}")
            positions.append(piece if isinstance(piece, int) else None)
            if callable(piece):
                slots.append(piece)

        add("SELECT DISTINCT" if query.distinct else "SELECT")
        if query.limit is not None:
            add(_HEAD)
        for number, item in enumerate(query.select_items):
            add(", " if number else " ")
            add(self._expr(item.expr, projected=top))
        add(" FROM ")
        add(_FROM)
        if query.where is not None:
            add(" WHERE ")
            add(self._condition(query.where, binds=top))
        if query.group_by:
            add(" GROUP BY ")
            add(self._group(query))
        if query.having is not None:
            add(" HAVING ")
            add(self._condition(query.having, binds=False))
        for number, item in enumerate(query.order_by):
            add(", " if number else " ORDER BY ")
            add(self._order(item))
        if query.limit is not None:
            add(_TAIL)
        self._levels[level] = (query, "".join(pieces), tuple(positions))

        def fill(state: _Fill) -> str | None:
            texts = []
            for slot in slots:
                text = slot(state)
                if text is None:
                    return None
                texts.append(text)
            return state.forms[level].format(*texts)

        return fill

    def _expr(self, expr, projected: bool = False):
        """A select item, or an aggregate anywhere: its fixed text or slot."""
        if isinstance(expr, Literal):
            return expr.render()
        if isinstance(expr, ColumnRef):
            if expr.column == "*":
                return self.emitter.render_column(ColumnRef("", "*"))

            def project(state: _Fill, column: _Col) -> str:
                state.projected.append(column.key)
                return ""

            return _on_column(_slots(expr, "select", "any"), project if projected else None)
        if not isinstance(expr, Aggregation):
            raise _Unfillable
        if expr.arg.column == "*":
            star = Aggregation(expr.func, ColumnRef("", "*"), expr.distinct)
            return self.emitter.render_expression(star)
        # Condition the aggregate on the question's wording.
        cued = expr.func in ("avg", "max", "min", "sum")
        slots = _slots(expr.arg, "agg", "numeric", "any") if cued else _slots(
            expr.arg, "agg", "any"
        )
        distinct = "DISTINCT " if expr.distinct else ""

        def aggregate(state: _Fill) -> str | None:
            func = state.ctx.question_cue(question_aggregate, expr.func) if cued else expr.func
            column = state.column(slots)
            if column is None:
                return None
            state.columns.append(column.key)
            return f"{func.upper()}({distinct}{column.text})"

        return aggregate

    def _group(self, query: Query) -> Callable:
        slots = [_slots(column, "group", "any") for column in query.group_by]
        # GROUP BY must group by the non-aggregated projection when the
        # template does — keep them aligned.
        plain = [
            item.expr.key() for item in query.select_items
            if isinstance(item.expr, ColumnRef) and item.expr.column != "*"
        ]
        aligned = plain[0] if plain and len(slots) == 1 else None

        def group(state: _Fill) -> str | None:
            chosen = []
            for slot in slots:
                column = state.column(slot)
                if column is None:
                    return None
                chosen.append(column)
            if aligned is not None:
                chosen = [state.chosen[aligned]]
            state.columns.extend(column.key for column in chosen)
            return ", ".join(column.text for column in chosen)

        return group

    def _order(self, item) -> Callable:
        if isinstance(item.expr, ColumnRef):
            expr = _on_column(_slots(item.expr, "order", "numeric", "any"))
        elif isinstance(item.expr, Aggregation):
            expr = _text_of(self._expr(item.expr))
        else:
            raise _Unfillable

        def order(state: _Fill) -> str | None:
            text = expr(state)
            if text is None:
                return None
            descending = state.ctx.question_cue(question_order_direction, item.descending)
            return text + (" DESC" if descending else " ASC")

        return order

    def _condition(self, cond, binds: bool) -> Callable:
        """``cond``'s slot; with ``binds`` (the top level's WHERE) its
        equality predicates count as bindings."""
        if isinstance(cond, CompoundCondition):
            parts = [
                (self._condition(sub, binds), isinstance(sub, CompoundCondition))
                for sub in cond.conditions
            ]
            joiner = f" {cond.op.upper()} "

            def compound(state: _Fill) -> str | None:
                texts = []
                for part, nested in parts:
                    text = part(state)
                    if text is None:
                        return None
                    texts.append(f"( {text} )" if nested else text)
                return joiner.join(texts)

            return compound
        if isinstance(cond, BinaryCondition):
            return self._binary(cond, binds)
        if not isinstance(getattr(cond, "expr", None), ColumnRef):
            raise _Unfillable
        if isinstance(cond, InCondition):
            return self._in(cond, binds)
        if isinstance(cond, BetweenCondition):
            low, high = _literal(cond.low), _literal(cond.high)

            def between(state: _Fill, column: _Col) -> str:
                first, second = state.number_literal(low), state.number_literal(high)
                if isinstance(first[1], (int, float)) and isinstance(
                    second[1], (int, float)
                ) and first[1] > second[1]:
                    first, second = second, first
                return f" BETWEEN {first[0]} AND {second[0]}"

            return _on_column(_slots(cond.expr, "filter", "numeric"), between)
        if isinstance(cond, LikeCondition):
            keyword = " NOT LIKE " if cond.negated else " LIKE "
            default = cond.pattern.render()

            def like(state: _Fill, column: _Col) -> str:
                letter = state.ctx.question_letter
                if letter is None:
                    state.ungrounded += 1
                    return keyword + default
                return keyword + Literal(f"{letter}%").render()

            return _on_column(_slots(cond.expr, "filter", "text"), like)
        if isinstance(cond, NullCondition):
            keyword = " IS NOT NULL" if cond.negated else " IS NULL"
            return _on_column(
                _slots(cond.expr, "filter", "any"), lambda state, column: keyword
            )
        raise _Unfillable

    def _binary(self, cond: BinaryCondition, binds: bool) -> Callable:
        left, right, op = cond.left, cond.right, cond.op
        render_operator = self.emitter.render_operator
        bind = binds and op == "="
        if isinstance(right, Query):
            # Scalar subquery: filled in place by the same fill.
            if not isinstance(left, ColumnRef):
                raise _Unfillable
            inner = self._query(right)
            return _around(
                _slots(left, "filter", "numeric"), inner, f" {render_operator(op)} ( "
            )

        def compared(state: _Fill, default, column: _Col | None = None) -> str:
            """`` op number``: the question's next number, its wording's operator."""
            text, value = state.number_literal(default)
            if bind and column is not None:
                state.bindings.append((column.key, value))
            if op in _COMPARISONS:
                return f" {render_operator(state.ctx.question_cue(question_comparison_op, op))} {text}"
            return f" {render_operator(op)} {text}"

        if isinstance(left, Aggregation):
            aggregate = _text_of(self._expr(left))
            if isinstance(right, Literal) and isinstance(right.value, (int, float)):
                default = _literal(right)
                rest = lambda state: compared(state, default)  # noqa: E731
            else:
                if isinstance(right, Aggregation):
                    right = right.arg
                if isinstance(right, ColumnRef) and right.column != "*":
                    self._fixed_columns.add(right.key())
                fixed = f" {render_operator(op)} {self.emitter.render_expression(cond.right)}"
                rest = lambda state: fixed  # noqa: E731

            def having(state: _Fill) -> str | None:
                text = aggregate(state)
                return None if text is None else text + rest(state)

            return having
        if not isinstance(left, ColumnRef):
            raise _Unfillable
        if isinstance(right, Literal) and not isinstance(right.value, str):
            default = _literal(right)
            return _on_column(
                _slots(left, "filter", "numeric"),
                lambda state, column: compared(state, default, column),
            )
        if isinstance(right, Literal):
            slots, default = _slots(left, "filter", "text"), _literal(right)
            middle = f" {render_operator(op)} "

            def text_equality(state: _Fill) -> str | None:
                column, literal = state.text_binding(slots, default)
                if column is None:
                    return None
                state.columns.append(column.key)
                if bind:
                    state.bindings.append((column.key, literal[1]))
                return column.text + middle + literal[0]

            return text_equality
        if not isinstance(right, ColumnRef):
            raise _Unfillable
        first, second = _slots(left, "filter", "any"), _slots(right, "filter", "any")
        middle = f" {render_operator(op)} "

        def columns(state: _Fill) -> str | None:
            one, other = state.column(first), state.column(second)
            if one is None or other is None:
                return None
            state.columns.extend((one.key, other.key))
            return one.text + middle + other.text

        return columns

    def _in(self, cond: InCondition, binds: bool) -> Callable:
        keyword = " NOT IN ( " if cond.negated else " IN ( "
        if cond.subquery is not None:
            inner = self._query(cond.subquery)
            return _around(_slots(cond.expr, "filter", "any"), inner, keyword)
        text, number = _slots(cond.expr, "filter", "text"), _slots(cond.expr, "filter", "numeric")
        values = [(isinstance(v.value, str), _literal(v)) for v in cond.values]

        def in_values(state: _Fill) -> str | None:
            column, literals = None, []
            for is_text, default in values:
                if is_text:
                    bound, literal = state.text_binding(text, default)
                    column = column or bound
                else:
                    literal = state.number_literal(default)
                    column = column or state.column(number)
                literals.append(literal)
            if column is None:
                return None
            state.columns.append(column.key)
            if binds:
                state.bindings.extend((column.key, value) for _, value in literals)
            return column.text + keyword + ", ".join(t for t, _ in literals) + " )"

        return in_values


class PlannedTemplate:
    """A template query with its fill plans, one per dialect, and its
    structure profile, each computed on first use."""

    __slots__ = ("query", "_plans", "_profile")

    def __init__(self, query: Query):
        self.query = query
        self._plans: dict[DialectEmitter, FillPlan] = {}
        self._profile: StructureProfile | None = None

    @property
    def profile(self) -> StructureProfile:
        """:func:`~repro.core.structure.profile_query` of the template."""
        if self._profile is None:
            self._profile = profile_query(self.query)
        return self._profile

    def plan(self, emitter: DialectEmitter) -> FillPlan:
        plan = self._plans.get(emitter)
        if plan is None:
            plan = self._plans[emitter] = FillPlan(self.query, emitter)
        return plan


def _template_tables(template: Query) -> list[str]:
    """Distinct template tables in appearance order."""
    tables = [identifier_key(template.from_table)]
    for edge in template.joins:
        if identifier_key(edge.table) not in tables:
            tables.append(identifier_key(edge.table))
    return tables


class FilledCandidate(NamedTuple):
    """One instantiated candidate: its SQL, its grounding diagnostics and
    the feature inputs its slot choices imply."""

    sql: str
    ungrounded_literals: int
    #: The dialect ``sql`` is written in.
    dialect: str
    #: Lower-cased ``table.column`` keys and tables the SQL references.
    columns: frozenset[str]
    tables: frozenset[str]
    #: (column key, value) of each equality/IN predicate of the WHERE.
    bindings: tuple[tuple[str, object], ...]
    #: A projected column is also equality-filtered.
    overlap: bool
    #: One COUNT projection and no GROUP BY.
    bare_count: bool

    @property
    def query(self) -> Query:
        """The SQL's parse tree, parsed when read: no fill builds one."""
        return parse_dialect_sql(self.sql, self.dialect)


def iter_fills(plan: FillPlan, ctx: InstantiationContext) -> Iterator[FilledCandidate]:
    """The candidate instantiations of ``plan``'s template, one fill at a time.

    Yields up to ``slot_depth * assignments`` candidates, deduplicated
    case-insensitively on their SQL, best-ranked table assignments
    first, each assignment's fills as :func:`assignment_fills` makes
    them.  Each fill happens only when the next candidate is asked for,
    so a caller that stops early skips the rest of the work.  The SQL
    is in the plan's dialect.
    """
    seen: set[str] = set()
    for table_map in ctx.table_assignments(plan.tables):
        for candidate in assignment_fills(plan, table_map, ctx):
            key = candidate.sql.lower()
            if key not in seen:
                seen.add(key)
                yield candidate


def assignment_fills(
    plan: FillPlan, table_map: dict[str, str], ctx: InstantiationContext
) -> Iterator[FilledCandidate]:
    """``plan``'s fills under one table assignment: ``variant`` 0, 1, ...
    in turn, not deduplicated.

    Every fill uses exactly the tables ``table_map`` assigns: FROM and
    each join map through it (a join may not repeat a table), subqueries
    map through the same fill, and compound arms are dropped.  An
    assignment whose FROM or joins do not map gives no fill.

    Variant early exit: ``variant`` only picks a select slot's column,
    so once a fill (finished or abandoned) read no select pool with a
    column left past its pick, every later variant would make the same
    choices in the same order and give the same SQL or nothing.  Those
    variants are skipped; the yielded sequence is the one filling every
    variant would give, less repeats.
    """
    bound = plan.bind(table_map, ctx)
    if bound is None:
        return
    for variant in range(max(1, ctx.slot_depth)):
        candidate, variant_matters = plan.fill(bound, ctx, variant)
        if candidate is not None:
            yield candidate
        if not variant_matters:
            break

