"""Prepared qunit SQL: the executor's access paths return the plain rows.

A qunit instance is one definition's plan run under one binding, so the
executor prepares each SQL text once, answers ``col = $x`` through the hash
index and shares parameter-free join inputs across runs (see
``repro.relational.algebra``).  None of that may change a row, the row
order or a row's key order.  The benchmark oracle runs this same executor,
so these tests do not trust it:

* a golden digest of every definition × binding of all five derivation
  flavours, computed with the plain interpreter (scan every table, hash
  every join input on every run) and frozen here;
* a differential against a small scan / filter / hash-join interpreter
  written in this file, over random databases and parameters;
* invalidation: rows inserted after a run show up in the next one.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.derivation import (
    ExternalEvidenceDeriver,
    FormBasedDeriver,
    QueryLogDeriver,
    SchemaDataDeriver,
    imdb_expert_qunits,
)
from repro.datasets.evidence import generate_wiki_corpus
from repro.datasets.imdb import generate_imdb
from repro.datasets.querylog import QueryLogGenerator
from repro.errors import BindError, PlanError
from repro.relational.algebra import Filter, HashJoin, Project, Scan, execute
from repro.relational.database import Database
from repro.relational.expr import ColumnRef, Comparison, InList, Literal, Not, Param
from repro.relational.schema import Column, ColumnType, Schema, TableSchema

# -- golden digest -------------------------------------------------------------

#: sha256 per flavour over ``repr([list(r.items()) for r in rows])`` of every
#: instance, definitions in derivation order, bindings in enumeration order;
#: synthetic IMDb at scale 0.1, seed 7.  Computed by the executor before it
#: gained index probes and shared join inputs.
GOLDEN = {
    "expert": "94406af30270991146dcf48c538a61962d6c81563d25c6659b3a4e3e011f5b60",
    "schema_data": "959de5f368ae8cd0ea56ad86c75ed6a7f17edab0c00be5f0b18242c2ee2969c6",
    "query_log": "0706b57a018a43d2cb08aeaeb3a2b8ed638b4044ec29c99fe9070a5d121d428e",
    "external": "8ec873143c456ddbc99244bcc66c238b12a50db3e9fe25de5a7d8efc83eb57cd",
    "forms": "8f2415eb2b5686d34229e1a89769ca1bc818e642432fde4e2d4027e38298d079",
}
GOLDEN_BINDINGS = 1178
SEED = 7


def _flavours(db):
    yield "expert", imdb_expert_qunits()
    yield "schema_data", SchemaDataDeriver(db, k1=4, k2=3).derive()
    generator = QueryLogGenerator(db, seed=SEED + 1)
    log = generator.generate(generator.recommended_unique())
    yield "query_log", QueryLogDeriver(db).derive(log.as_list())
    yield "external", ExternalEvidenceDeriver(db).derive(
        generate_wiki_corpus(db, seed=SEED + 2))
    yield "forms", FormBasedDeriver(db).derive()


def test_every_instance_of_every_flavour_matches_the_golden_digest():
    db = generate_imdb(scale=0.1, seed=SEED)
    digests = {}
    bindings = 0
    for flavour, definitions in _flavours(db):
        digest = hashlib.sha256()
        for definition in definitions:
            for binding in definition.bindings(db):
                rows = definition.materialize(db, binding).rows
                digest.update(repr([list(r.items()) for r in rows]).encode())
                bindings += 1
        digests[flavour] = digest.hexdigest()
    assert bindings == GOLDEN_BINDINGS
    assert digests == GOLDEN


def test_prepare_compiles_each_text_once():
    db = generate_imdb(scale=0.1, seed=SEED)
    definition = imdb_expert_qunits()[0]
    plan = db.prepare(definition.base_sql)
    assert db.prepare(definition.base_sql) is plan
    binding = definition.bindings(db, limit=1)[0]
    first = definition.materialize(db, binding).rows
    assert db.prepare(definition.base_sql) is plan
    assert definition.materialize(db, binding).rows == first


def test_threads_sharing_a_fresh_database_get_the_serial_rows():
    # Serving threads share one Database: its prepared plans, hash indexes
    # and join inputs are built by whichever thread gets there first.
    names = {"coactors", "movie_full_credits", "person_main_page", "movie_plot"}
    definitions = [d for d in imdb_expert_qunits() if d.name in names]

    def digest(db) -> str:
        h = hashlib.sha256()
        for definition in definitions:
            for binding in definition.bindings(db, limit=25):
                rows = definition.materialize(db, binding).rows
                h.update(repr([list(r.items()) for r in rows]).encode())
        return h.hexdigest()

    expected = digest(generate_imdb(scale=0.1, seed=SEED))
    shared = generate_imdb(scale=0.1, seed=SEED)
    results: list[str] = []
    start = threading.Barrier(4)

    def worker():
        start.wait()
        results.append(digest(shared))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


# -- differential against an in-test interpreter ----------------------------------

def _schema() -> Schema:
    return Schema([
        TableSchema("person", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT),
            Column("age", ColumnType.INTEGER),
        ], primary_key="id"),
        TableSchema("movie", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("title", ColumnType.TEXT),
            Column("rating", ColumnType.FLOAT),
            Column("color", ColumnType.BOOLEAN),
        ], primary_key="id"),
        TableSchema("cast", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("person_id", ColumnType.INTEGER),
            Column("movie_id", ColumnType.INTEGER),
            Column("note", ColumnType.TEXT),
        ], primary_key="id"),
    ])


#: Spellings that differ in case, accents and whitespace: ``normalize``
#: (filters, hash index) folds all of them, ``str.lower`` (join keys) only
#: the case.
NAMES = ["Amélie", "amelie", " AMELIE ", "Zoë", "zoe", "Bo", "bo", "bo  b", "Bo B"]
texts = st.one_of(st.none(), st.sampled_from(NAMES))
ints = st.one_of(st.none(), st.integers(0, 3))
floats = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1.5, 2.0, -0.0]))


def build_db(people, movies, casts) -> Database:
    db = Database(_schema())
    for i, (name, age) in enumerate(people):
        db.insert("person", {"id": i, "name": name, "age": age})
    for i, (title, rating, color) in enumerate(movies):
        db.insert("movie", {"id": i, "title": title, "rating": rating,
                            "color": color})
    for i, (person_id, movie_id, note) in enumerate(casts):
        db.insert("cast", {"id": i, "person_id": person_id,
                           "movie_id": movie_id, "note": note})
    return db


def reference(plan, db, params) -> list[dict]:
    """Scan / filter / hash-join / project exactly as the executor always
    did: every table scanned and every join input hashed on every run."""
    if isinstance(plan, Scan):
        prefix = plan.alias or plan.table
        return [{f"{prefix}.{k}": v for k, v in row.items()}
                for row in db.table(plan.table)]
    if isinstance(plan, Filter):
        return [row for row in reference(plan.child, db, params)
                if plan.predicate.evaluate(row, params)]
    if isinstance(plan, HashJoin):
        build: dict = {}
        for row in reference(plan.right, db, params):
            key = row.get(plan.right_key)
            if key is not None:
                key = key.lower() if isinstance(key, str) else key
                build.setdefault(key, []).append(row)
        out = []
        for left in reference(plan.left, db, params):
            key = left.get(plan.left_key)
            if key is None:
                continue
            key = key.lower() if isinstance(key, str) else key
            for right in build.get(key, ()):
                out.append({**left, **right})
        return out
    if isinstance(plan, Project):
        return [{column: row[column] for column in plan.columns}
                for row in reference(plan.child, db, params)]
    raise AssertionError(f"reference cannot run {type(plan).__name__}")


def col(table: str, column: str) -> ColumnRef:
    return ColumnRef(table, column)


def eq(left, right) -> Comparison:
    return Comparison("=", left, right)


PERSON_BY_NAME = Filter(Scan("person"), eq(col("person", "name"), Param("x")))
MOVIE_BY_RATING = Filter(Scan("movie"), eq(Param("r"), col("movie", "rating")))
MOVIE_BY_COLOR = Filter(Scan("movie"), eq(col("movie", "color"), Param("b")))

PLANS = {
    # Index probe on a top-level chain; a literal probe; two probes.
    "probe": PERSON_BY_NAME,
    "probe_literal": Filter(Scan("person"), eq(col("person", "age"), Literal(2))),
    "probe_float_vs_int": MOVIE_BY_RATING,
    "probe_bool": MOVIE_BY_COLOR,
    "chain": Filter(Filter(Scan("person"), InList(col("person", "age"), (1, 2, 3))),
                    eq(col("person", "name"), Param("x"))),
    # Parameter on the build side: the probe side is shared key groups.
    "param_on_build": HashJoin(Scan("cast"), PERSON_BY_NAME,
                               "cast.person_id", "person.id"),
    # Parameter on the probe side: the build side is shared key groups.
    "param_on_probe": HashJoin(PERSON_BY_NAME, Scan("cast"),
                               "person.id", "cast.person_id"),
    # NOT col = $x cannot be probed: checked on matched build rows.
    "not_on_build": HashJoin(
        Scan("cast", "c"),
        Filter(Scan("person", "p"), Not(eq(col("p", "name"), Param("x")))),
        "c.person_id", "p.id"),
    # ... and on matched probe rows opposite a per-run build.
    "not_on_probe": HashJoin(
        Filter(Scan("cast"), Not(eq(col("cast", "note"), Param("x")))),
        MOVIE_BY_COLOR, "cast.movie_id", "movie.id"),
    # Text join keys fold case only, never accents or whitespace.
    "text_keys": Project(HashJoin(
        Scan("cast"),
        Filter(Scan("person"), Not(eq(col("person", "age"), Param("n")))),
        "cast.note", "person.name"), ("cast.id", "person.id")),
    # Coactors: self-join through aliases, parameter on both ends.
    "coactors": Project(HashJoin(
        HashJoin(Scan("cast", "c2"),
                 HashJoin(Scan("cast", "c1"),
                          Filter(Scan("person", "p1"),
                                 eq(col("p1", "name"), Param("x"))),
                          "c1.person_id", "p1.id"),
                 "c2.movie_id", "c1.movie_id"),
        Filter(Scan("person", "p2"), Not(eq(col("p2", "name"), Param("x")))),
        "c2.person_id", "p2.id"), ("p2.name", "c1.movie_id")),
}

param_values = st.fixed_dictionaries({
    "x": st.one_of(st.none(), st.sampled_from(NAMES + ["nobody"])),
    "r": st.one_of(st.none(), st.integers(0, 2), st.sampled_from([1.5, -0.0])),
    "b": st.one_of(st.none(), st.booleans(), st.integers(0, 1)),
    "n": st.one_of(st.none(), st.integers(0, 3)),
})


def _ordered(rows):
    return [list(row.items()) for row in rows]


@settings(max_examples=60, deadline=None)
@given(
    people=st.lists(st.tuples(texts, ints), max_size=6),
    movies=st.lists(st.tuples(texts, floats, st.one_of(st.none(), st.booleans())),
                    max_size=4),
    casts=st.lists(st.tuples(ints, ints, texts), max_size=8),
    runs=st.lists(param_values, min_size=1, max_size=4),
)
def test_executor_matches_plain_interpreter_in_order(people, movies, casts, runs):
    db = build_db(people, movies, casts)
    # Several bindings against one database state: shared inputs built
    # by the first run must serve the later ones unchanged.
    for params in runs:
        for name, plan in PLANS.items():
            got = _ordered(execute(plan, db, params))
            assert got == _ordered(reference(plan, db, params)), (name, params)


# -- edge values the index must not answer ------------------------------------------

def test_nan_parameter_matches_nothing_even_when_identical():
    db = build_db([], [("a", math.nan, None), ("b", 1.0, None)], [])
    stored_nan = db.table("movie").row(0)["rating"]
    for value in (stored_nan, math.nan, 1, 1.0, True):
        params = {"r": value}
        assert (_ordered(execute(MOVIE_BY_RATING, db, params))
                == _ordered(reference(MOVIE_BY_RATING, db, params)))
    assert list(execute(MOVIE_BY_RATING, db, {"r": stored_nan})) == []


def test_unhashable_parameter_falls_back_to_the_scan():
    db = build_db([("bo", 1)], [], [])
    assert list(execute(PERSON_BY_NAME, db, {"x": ["bo"]})) == []


def test_unbound_parameter_still_raises():
    db = build_db([("bo", 1)], [], [(0, None, "x")])
    with pytest.raises(BindError):
        list(execute(PERSON_BY_NAME, db, {}))
    with pytest.raises(BindError):
        list(execute(PLANS["not_on_build"], db, {}))


def test_unknown_column_still_raises():
    db = build_db([("bo", 1)], [], [])
    plan = Filter(Scan("person"), eq(col("person", "nickname"), Literal("bo")))
    with pytest.raises(PlanError):
        list(execute(plan, db))


# -- invalidation -----------------------------------------------------------------

@pytest.mark.parametrize("writer", ["insert", "insert_many"])
@pytest.mark.parametrize("table", ["person", "cast"])
def test_rows_inserted_after_a_run_appear_in_the_next(writer, table):
    # cast 2 points at a person that only the "person" case inserts.
    db = build_db([("bo", 1), ("amelie", 2)], [],
                  [(0, None, None), (1, None, None), (2, None, None)])
    runs = [(PLANS["param_on_build"], {"x": "bo"}),
            (PLANS["param_on_probe"], {"x": "bo"}),
            (PLANS["not_on_build"], {"x": "amelie"})]
    before = [_ordered(execute(plan, db, params)) for plan, params in runs]
    if table == "person":
        row = {"id": 2, "name": "Bo", "age": 3}
    else:
        row = {"id": 3, "person_id": 0, "note": "new"}
    if writer == "insert":
        db.insert(table, row)
    else:
        assert db.insert_many(table, [row]) == 1
    for (plan, params), old in zip(runs, before):
        new = _ordered(execute(plan, db, params))
        assert new == _ordered(reference(plan, db, params))
        assert len(new) == len(old) + 1


def test_failed_insert_many_still_invalidates_the_rows_it_wrote():
    db = build_db([("bo", 1)], [], [(0, None, None)])
    plan = PLANS["param_on_probe"]
    assert len(list(execute(plan, db, {"x": "bo"}))) == 1
    with pytest.raises(Exception):
        db.insert_many("cast", [{"id": 1, "person_id": 0},
                                {"id": 1, "person_id": 0}])  # duplicate key
    assert len(list(execute(plan, db, {"x": "bo"}))) == 2
