"""Relational-algebra plan operators and a pull-based executor.

Plans are immutable trees of operators.  ``execute(plan, database, params)``
yields qualified rows (dicts keyed ``alias.column``).  The operator set is
the minimum a real engine needs to run the paper's base expressions and the
baselines: scan (with aliasing), filter, project, hash equi-join, nested-loop
theta join fallback, aggregate with grouping, sort, limit, distinct.

A qunit instance is one definition's plan run under one binding, so the
same plan runs once per binding.  Besides the plain interpreter, two access
paths serve the ``Filter…(Scan)`` chains ("access paths") such plans are
built from, and both yield exactly the rows, row order and key order of the
plain interpreter:

* **Index probe.**  A chain with a ``col = $param`` or ``col = literal``
  conjunct reads ``database.hash_index(table, col).lookup(value)`` instead
  of scanning, then applies every predicate of the chain to the probed
  rows.  Exact because the lookup returns every row the conjunct accepts,
  in ascending row id order, i.e. scan order:
  :class:`~repro.relational.expr.Comparison` normalises only str/str
  pairs and ``HashIndex`` keys text through the same ``normalize``;
  non-text equality is hash-consistent Python ``==``; ``None`` matches on
  neither path.  Anything extra the lookup returns (a NaN found by
  identity) the re-applied predicate drops.  An unhashable value falls
  back to the scan.
* **Shared join inputs.**  A hash-join input that is an access path is
  grouped once per database state as ``{_normalize_key(key): [row ids]}``
  over its parameter-free predicates (:meth:`Database.memo`, cleared by
  every insert).  On the build side the groups replace the per-run hash
  table; on the probe side, opposite a per-run build, the matching row ids
  are gathered per build key and replayed in ascending order — scan order.
  Rows are qualified only when they match, and a parameter-dependent
  predicate that the index cannot serve (``NOT p2.name = $x``) is checked
  on those matched rows.

Both paths run only when every column and parameter the chain reads
resolves, so a malformed plan raises from the plain interpreter exactly as
it always did.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from repro.errors import PlanError
from repro.relational.expr import And, ColumnRef, Comparison, Expression, Literal, Param, Params

__all__ = [
    "Plan",
    "Scan",
    "Filter",
    "Project",
    "HashJoin",
    "NestedLoopJoin",
    "Aggregate",
    "AggregateSpec",
    "Sort",
    "Limit",
    "Distinct",
    "execute",
]

QualifiedRow = dict[str, object]


class Plan:
    """Base class for plan operators."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    @cached_property
    def _access(self) -> "_AccessPath | None":
        """This subtree as a ``Filter…(Scan)`` chain, or None.  Cached on
        the (immutable) node, so a prepared plan analyses itself once."""
        return _access_path(self)

    def output_columns(self, database: "Database") -> list[str]:  # noqa: F821
        """Qualified column names this operator produces, in order."""
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(Plan):
    """Full scan of a base table, qualifying columns with ``alias``."""

    table: str
    alias: str | None = None

    @property
    def prefix(self) -> str:
        return self.alias or self.table

    def output_columns(self, database) -> list[str]:
        schema = database.schema.table(self.table)
        return [f"{self.prefix}.{column}" for column in schema.column_names]


@dataclass(frozen=True)
class Filter(Plan):
    """Keep rows for which ``predicate`` evaluates truthy."""

    child: Plan
    predicate: Expression

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, database) -> list[str]:
        return self.child.output_columns(database)


@dataclass(frozen=True)
class Project(Plan):
    """Keep only ``columns`` (qualified names), optionally renaming.

    ``renames`` maps output name -> input qualified name; plain ``columns``
    pass through under their own name.
    """

    child: Plan
    columns: tuple[str, ...]
    renames: tuple[tuple[str, str], ...] = ()

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, database) -> list[str]:
        return list(self.columns) + [out for out, _ in self.renames]


@dataclass(frozen=True)
class HashJoin(Plan):
    """Equi-join: build a hash table on the right child, probe with the left."""

    left: Plan
    right: Plan
    left_key: str
    right_key: str

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def output_columns(self, database) -> list[str]:
        return self.left.output_columns(database) + self.right.output_columns(database)


@dataclass(frozen=True)
class NestedLoopJoin(Plan):
    """Theta-join fallback for non-equi predicates (used rarely)."""

    left: Plan
    right: Plan
    predicate: Expression

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def output_columns(self, database) -> list[str]:
        return self.left.output_columns(database) + self.right.output_columns(database)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``function(input) AS output``.

    ``function`` is one of count/sum/min/max/avg; ``input`` is a qualified
    column or None for ``count(*)``.
    """

    function: str
    input: str | None
    output: str

    _FUNCTIONS = ("count", "sum", "min", "max", "avg")

    def __post_init__(self) -> None:
        if self.function not in self._FUNCTIONS:
            raise PlanError(f"unknown aggregate function {self.function!r}")
        if self.function != "count" and self.input is None:
            raise PlanError(f"aggregate {self.function} requires an input column")


@dataclass(frozen=True)
class Aggregate(Plan):
    """Group by ``keys`` (qualified columns) and compute ``aggregates``."""

    child: Plan
    keys: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, database) -> list[str]:
        return list(self.keys) + [spec.output for spec in self.aggregates]


@dataclass(frozen=True)
class Sort(Plan):
    """Order by qualified columns; ``descending`` applies to all keys."""

    child: Plan
    keys: tuple[str, ...]
    descending: bool = False

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, database) -> list[str]:
        return self.child.output_columns(database)


@dataclass(frozen=True)
class Limit(Plan):
    child: Plan
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PlanError(f"limit must be non-negative, got {self.count}")

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, database) -> list[str]:
        return self.child.output_columns(database)


@dataclass(frozen=True)
class Distinct(Plan):
    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, database) -> list[str]:
        return self.child.output_columns(database)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute(plan: Plan, database, params: Params | None = None) -> Iterator[QualifiedRow]:
    """Evaluate ``plan`` against ``database`` yielding qualified rows."""
    if isinstance(plan, Scan):
        yield from _execute_scan(plan, database)
    elif isinstance(plan, Filter):
        yield from _execute_filter(plan, database, params)
    elif isinstance(plan, Project):
        yield from _execute_project(plan, database, params)
    elif isinstance(plan, HashJoin):
        yield from _execute_hash_join(plan, database, params)
    elif isinstance(plan, NestedLoopJoin):
        yield from _execute_nested_loop(plan, database, params)
    elif isinstance(plan, Aggregate):
        yield from _execute_aggregate(plan, database, params)
    elif isinstance(plan, Sort):
        yield from _execute_sort(plan, database, params)
    elif isinstance(plan, Limit):
        yield from _execute_limit(plan, database, params)
    elif isinstance(plan, Distinct):
        yield from _execute_distinct(plan, database, params)
    else:
        raise PlanError(f"unknown plan operator {type(plan).__name__}")


def _execute_scan(plan: Scan, database) -> Iterator[QualifiedRow]:
    names = plan.output_columns(database)
    for row in database.table(plan.table):
        # Stored rows hold every column in schema order.
        yield dict(zip(names, row.values()))


def _execute_filter(plan: Filter, database, params) -> Iterator[QualifiedRow]:
    path = plan._access
    if path is not None:
        names = path.scan.output_columns(database)
        if path.resolves(names, params):
            target = path.probe_target(params)
            if target is not None:
                yield from _probe(path, target, names, database, params)
                return
    for row in execute(plan.child, database, params):
        if plan.predicate.evaluate(row, params):
            yield row


# ---------------------------------------------------------------------------
# Access paths: index probes and shared join inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _AccessPath:
    """A ``Filter…(Scan)`` chain: the scan and its predicates, innermost
    first, split into parameter-free (``free``) and parameter-dependent
    (``dependent``) ones.  ``equalities`` lists the ``column = operand``
    conjuncts (operand a :class:`Param` or :class:`Literal`) an index
    probe can serve, in chain order."""

    scan: Scan
    predicates: tuple[Expression, ...]
    free: tuple[Expression, ...]
    dependent: tuple[Expression, ...]
    equalities: tuple[tuple[str, Param | Literal], ...]
    references: frozenset[str]
    params: frozenset[str]

    def resolves(self, names: list[str], params: Params | None) -> bool:
        """Whether every column (of the scan's qualified ``names``) and
        parameter the chain reads is there — the condition under which a
        fast path cannot skip an error the plain interpreter would raise."""
        if self.params and (params is None or not self.params <= params.keys()):
            return False
        return self.references <= set(names)

    def probe_target(self, params: Params | None) -> tuple[str, object] | None:
        """``(column, value)`` of the first equality whose value is bound
        under ``params`` and hashable, or None."""
        for column, operand in self.equalities:
            if isinstance(operand, Param):
                if params is None or operand.name not in params:
                    continue
                value = params[operand.name]
            else:
                value = operand.value
            try:
                hash(value)
            except TypeError:
                continue
            return column, value
        return None

    def column_of(self, qualified: str, names: list[str]) -> str | None:
        """The stored column behind ``qualified``, if this scan has it."""
        if qualified not in names:
            return None
        return qualified[len(self.scan.prefix) + 1:]


def _access_path(plan: Plan) -> _AccessPath | None:
    filters: list[Expression] = []
    while isinstance(plan, Filter):
        filters.append(plan.predicate)
        plan = plan.child
    if not isinstance(plan, Scan):
        return None
    predicates = tuple(reversed(filters))
    prefix = plan.prefix
    equalities: list[tuple[str, Param | Literal]] = []
    for predicate in predicates:
        for conjunct in _conjuncts(predicate):
            if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
                continue
            for column, operand in ((conjunct.left, conjunct.right),
                                    (conjunct.right, conjunct.left)):
                if (isinstance(column, ColumnRef) and column.table == prefix
                        and isinstance(operand, (Param, Literal))):
                    equalities.append((column.column, operand))
                    break
    references: set[str] = set()
    params: set[str] = set()
    for predicate in predicates:
        references |= predicate.references()
        params |= predicate.param_names()
    return _AccessPath(
        scan=plan,
        predicates=predicates,
        free=tuple(p for p in predicates if not p.param_names()),
        dependent=tuple(p for p in predicates if p.param_names()),
        equalities=tuple(equalities),
        references=frozenset(references),
        params=frozenset(params),
    )


def _conjuncts(expression: Expression) -> Iterator[Expression]:
    if isinstance(expression, And):
        yield from _conjuncts(expression.left)
        yield from _conjuncts(expression.right)
    else:
        yield expression


def _probe(path: _AccessPath, target: tuple[str, object], names: list[str],
           database, params) -> Iterator[QualifiedRow]:
    """The chain's rows via the hash index on the target column."""
    column, value = target
    scan = path.scan
    table = database.table(scan.table)
    predicates = path.predicates
    for row_id in database.hash_index(scan.table, column).lookup(value):
        row = dict(zip(names, table.row(row_id).values()))
        if all(predicate.evaluate(row, params) for predicate in predicates):
            yield row


class _JoinInput:
    """One run's view of an access path used as a hash-join input: the
    shared key groups plus a per-run cache of matched, qualified rows
    (``None`` for a row a parameter-dependent predicate rejects)."""

    def __init__(self, path: _AccessPath, names: list[str],
                 groups: dict[object, list[int]], database, params):
        self.groups = groups
        self._table = database.table(path.scan.table)
        self._names = names
        self._dependent = path.dependent
        self._params = params
        self._rows: dict[int, QualifiedRow | None] = {}

    def row(self, row_id: int) -> QualifiedRow | None:
        try:
            return self._rows[row_id]
        except KeyError:
            pass
        row: QualifiedRow | None = dict(zip(self._names,
                                            self._table.row(row_id).values()))
        params = self._params
        if not all(predicate.evaluate(row, params)
                   for predicate in self._dependent):
            row = None
        self._rows[row_id] = row
        return row


def _join_input(plan: Plan, key: str, database, params) -> _JoinInput | None:
    """``plan`` as shared key groups on ``key``, or None when it is not an
    access path, does not resolve, or is better served by an index probe
    (a parameter-dependent chain that the probe narrows per run)."""
    path = plan._access
    if path is None:
        return None
    names = path.scan.output_columns(database)
    if not path.resolves(names, params):
        return None
    column = path.column_of(key, names)
    if column is None:
        return None
    if path.dependent and path.probe_target(params) is not None:
        return None
    scan = path.scan
    groups = database.memo(
        (scan.table, scan, path.free, column),
        lambda: _key_groups(path, column, names, database))
    return _JoinInput(path, names, groups, database, params)


def _key_groups(path: _AccessPath, column: str, names: list[str],
                database) -> dict[object, list[int]]:
    """``{_normalize_key(value): [row ids]}`` over the rows that pass the
    chain's parameter-free predicates; null keys never join."""
    scan = path.scan
    predicates = path.free
    groups: dict[object, list[int]] = {}
    for row_id, stored in enumerate(database.table(scan.table)):
        value = stored[column]
        if value is None:
            continue
        if predicates:
            row = dict(zip(names, stored.values()))
            if not all(predicate.evaluate(row) for predicate in predicates):
                continue
        groups.setdefault(_normalize_key(value), []).append(row_id)
    return groups


def _execute_project(plan: Project, database, params) -> Iterator[QualifiedRow]:
    for row in execute(plan.child, database, params):
        out: QualifiedRow = {}
        for column in plan.columns:
            if column not in row:
                raise PlanError(
                    f"projected column {column!r} missing from row; "
                    f"available: {sorted(row)}"
                )
            out[column] = row[column]
        for output, source in plan.renames:
            if source not in row:
                raise PlanError(
                    f"renamed column {source!r} missing from row; "
                    f"available: {sorted(row)}"
                )
            out[output] = row[source]
        yield out


def _normalize_key(value: object) -> object:
    """Hash-join keys compare case-insensitively for text, exactly otherwise."""
    if isinstance(value, str):
        return value.lower()
    return value


def _execute_hash_join(plan: HashJoin, database, params) -> Iterator[QualifiedRow]:
    shared = _join_input(plan.right, plan.right_key, database, params)
    if shared is not None:
        groups, right_row = shared.groups, shared.row
        for left_row in execute(plan.left, database, params):
            key = left_row.get(plan.left_key)
            if key is None:
                continue
            for row_id in groups.get(_normalize_key(key), ()):
                matched = right_row(row_id)
                if matched is not None:
                    merged = dict(left_row)
                    merged.update(matched)
                    yield merged
        return
    build: dict[object, list[QualifiedRow]] = {}
    for row in execute(plan.right, database, params):
        key = row.get(plan.right_key)
        if key is None:
            continue
        build.setdefault(_normalize_key(key), []).append(row)
    shared = _join_input(plan.left, plan.left_key, database, params)
    if shared is not None:
        # Each left row has one key, so its id appears once: sorting the
        # ids replays the matching left rows in scan order.
        groups = shared.groups
        hits = sorted((row_id, key) for key in build
                      for row_id in groups.get(key, ()))
        for row_id, key in hits:
            left_row = shared.row(row_id)
            if left_row is None:
                continue
            for right_row in build[key]:
                merged = dict(left_row)
                merged.update(right_row)
                yield merged
        return
    for left_row in execute(plan.left, database, params):
        key = left_row.get(plan.left_key)
        if key is None:
            continue
        for right_row in build.get(_normalize_key(key), ()):
            merged = dict(left_row)
            merged.update(right_row)
            yield merged


def _execute_nested_loop(plan: NestedLoopJoin, database, params) -> Iterator[QualifiedRow]:
    right_rows = list(execute(plan.right, database, params))
    for left_row in execute(plan.left, database, params):
        for right_row in right_rows:
            merged = dict(left_row)
            merged.update(right_row)
            if plan.predicate.evaluate(merged, params):
                yield merged


def _execute_aggregate(plan: Aggregate, database, params) -> Iterator[QualifiedRow]:
    groups: dict[tuple[object, ...], list[QualifiedRow]] = {}
    order: list[tuple[object, ...]] = []
    for row in execute(plan.child, database, params):
        key = tuple(row.get(column) for column in plan.keys)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    if not plan.keys and not groups:
        # Global aggregate over an empty input still yields one row.
        groups[()] = []
        order.append(())
    for key in order:
        rows = groups[key]
        out: QualifiedRow = dict(zip(plan.keys, key))
        for spec in plan.aggregates:
            out[spec.output] = _apply_aggregate(spec, rows)
        yield out


def _apply_aggregate(spec: AggregateSpec, rows: list[QualifiedRow]) -> object:
    if spec.function == "count":
        if spec.input is None:
            return len(rows)
        return sum(1 for row in rows if row.get(spec.input) is not None)
    values = [row[spec.input] for row in rows
              if row.get(spec.input) is not None]
    if not values:
        return None
    if spec.function == "sum":
        return sum(values)  # type: ignore[arg-type]
    if spec.function == "min":
        return min(values)  # type: ignore[type-var]
    if spec.function == "max":
        return max(values)  # type: ignore[type-var]
    return sum(values) / len(values)  # type: ignore[arg-type]


def _sort_key(value: object) -> tuple[int, object]:
    """Total order with None first, grouped by type to avoid TypeError."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def _execute_sort(plan: Sort, database, params) -> Iterator[QualifiedRow]:
    rows = list(execute(plan.child, database, params))
    rows.sort(
        key=lambda row: tuple(_sort_key(row.get(column)) for column in plan.keys),
        reverse=plan.descending,
    )
    yield from rows


def _execute_limit(plan: Limit, database, params) -> Iterator[QualifiedRow]:
    emitted = 0
    for row in execute(plan.child, database, params):
        if emitted >= plan.count:
            return
        emitted += 1
        yield row


def _execute_distinct(plan: Distinct, database, params) -> Iterator[QualifiedRow]:
    seen: set[tuple[tuple[str, object], ...]] = set()
    for row in execute(plan.child, database, params):
        fingerprint = tuple(sorted(row.items(), key=lambda item: item[0]))
        try:
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
        except TypeError:
            # Unhashable value: fall back to emitting (correctness over dedup).
            pass
        yield row
