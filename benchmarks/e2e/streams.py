"""Seeded inputs: query streams, the synthetic large corpus, ingest documents.

Every stream has the same two knobs (SNIPPETS.md 2 and 3): *weighted
templates* decide what a fresh query looks like, and a *repetition
rate* — the share of operations whose normalised query hash has
occurred before — decides how often an earlier query comes back.  The
program under test receives only the generated strings.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.qunit import QunitInstance
from repro.datasets.querylog import QueryLogGenerator, SessionLogGenerator
from repro.eval.paraphrase import paraphrase_query
from repro.ir import Document

LARGE_VOCABULARY = 20_000
LARGE_DOC_TOKENS = 40


@dataclass(frozen=True)
class QueryTemplate:
    """One weighted query shape; ``build(rng)`` makes a fresh instance."""

    name: str
    weight: float
    build: Callable[[random.Random], str]


def query_hash(query: str) -> str:
    """The identity repetition is measured on."""
    return " ".join(query.lower().split())


def measured_repetition(queries: list[str]) -> float:
    """Share of ``queries`` whose hash occurred earlier in the list."""
    return 1.0 - len({query_hash(q) for q in queries}) / len(queries)


def repeating_stream(fresh, slices: int, slice_size: int,
                     repetition: float, rng: random.Random) -> list[str]:
    """``slices * slice_size`` queries.  Every slice holds exactly
    ``round(slice_size * repetition)`` re-issues of an earlier op's
    query (drawn uniformly over earlier *ops*, so popular queries get
    more popular) at seeded positions; the rest are the next queries of
    the ``fresh`` iterator of distinct ones.  Equal shares per slice
    keep slices comparable: the quiet pool is then picked on noise, not
    on how many new queries a slice happened to draw."""
    repeats = round(slice_size * repetition)
    issued: list[str] = []
    for _ in range(slices):
        again = set(rng.sample(range(slice_size), repeats))
        for position in range(slice_size):
            if issued and position in again:
                issued.append(issued[rng.randrange(len(issued))])
            else:
                issued.append(next(fresh))
    return issued


# -- the lexical stream (http_closed, ingest_mixed) --------------------------


def lexical_pool(database, seed: int, distinct: int) -> list[str]:
    """At least ``distinct`` distinct keyword queries over ``database``:
    the query-log generator's class mix (its weighted templates) plus
    the refinement chains of seeded user sessions, shuffled — the class
    mix is the same at every point of the stream."""
    log = QueryLogGenerator(database, seed=seed).generate(distinct)
    sessions = SessionLogGenerator(database, seed=seed + 1).generate(
        max(1, distinct // 8))
    pool = dict.fromkeys(query for query, _frequency in log.entries)
    pool.update(dict.fromkeys(query for session in sessions
                              for query in session.queries))
    pool = list(pool)
    random.Random(seed).shuffle(pool)
    return pool


#: The query-log generator runs out of distinct strings over the
#: benchmark's database a little above this; a stream that needs more
#: fresh queries starts the pool over (and reports the repetition it
#: really has).
MAX_DISTINCT = 3200


def lexical_stream(database, seed: int, slices: int, slice_size: int,
                   repetition: float) -> list[str]:
    count = slices * slice_size
    distinct = int(count * (1.0 - repetition)) + slice_size + 16
    pool = lexical_pool(database, seed, min(distinct, MAX_DISTINCT))
    return repeating_stream(itertools.cycle(pool), slices, slice_size,
                            repetition, random.Random(seed + 2))


def entity_cover(database) -> list[str]:
    """The warm-up of the collection workloads: every movie and person
    once by name and once with its commonest attribute.  It makes every
    definition's lazy load happen and fills the materialisation memo
    with the bindings the timed queries will ask for, so the timed
    phase is the steady state and not its approach."""
    movies = [str(row["title"]) for row in database.table("movie")]
    persons = [str(row["name"]) for row in database.table("person")]
    return (movies + persons + [f"{title} cast" for title in movies]
            + [f"{name} movies" for name in persons])


# -- the paraphrase stream (hybrid_paraphrase) -------------------------------


def paraphrase_stream(database, seed: int, count: int) -> list[str]:
    """Entity and entity-attribute queries with every long token broken
    by one character edit: no index term matches, most n-grams do.
    All distinct — each op pays the vector scan."""
    out: dict[str, None] = {}
    for query in lexical_pool(database, seed, count * 3):
        broken = paraphrase_query(query, seed)
        if broken != query:
            out.setdefault(broken)
        if len(out) == count:
            return list(out)
    raise ValueError(f"only {len(out)} distinct paraphrases of {count}")


# -- the large tier (ir_large) -----------------------------------------------


def large_vocabulary() -> list[str]:
    return [f"w{rank:05d}" for rank in range(LARGE_VOCABULARY)]


def large_documents(seed: int, count: int) -> list[Document]:
    """``count`` documents of 40 tokens, Zipf(1) over 20 000 terms."""
    rng = random.Random(seed)
    vocabulary = large_vocabulary()
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(LARGE_VOCABULARY)))
    return [
        Document.create(
            f"d{i:06d}",
            {"body": " ".join(rng.choices(vocabulary,
                                          cum_weights=cumulative,
                                          k=LARGE_DOC_TOKENS))})
        for i in range(count)
    ]


def large_templates() -> list[QueryTemplate]:
    """Weights put p50 inside ``long_mixed`` (the 30th–80th percentile
    band) and p95 inside ``long_common`` (80th–100th), each >= 10
    points from a class boundary."""
    vocabulary = large_vocabulary()

    def rare(rng, k):
        return [vocabulary[rng.randrange(500, LARGE_VOCABULARY)]
                for _ in range(k)]

    def top(rng, k, ranks):
        return [vocabulary[rank] for rank in rng.sample(range(ranks), k)]

    return [
        QueryTemplate("short_rare", 0.3, lambda rng: " ".join(rare(rng, 2))),
        QueryTemplate("long_mixed", 0.5, lambda rng: " ".join(
            rare(rng, 3) + top(rng, 2, 30))),
        QueryTemplate("long_common", 0.2,
                      lambda rng: " ".join(top(rng, 5, 100))),
    ]


def large_stream(seed: int, slices: int, slice_size: int,
                 repetition: float) -> list[tuple[str, str]]:
    """``slices * slice_size`` (template name, query) pairs.  Every
    slice holds each template in exactly its weight's share (shuffled
    inside the slice), so slice medians are comparable and the quiet
    pool is picked on noise, not on which classes a slice drew."""
    rng = random.Random(seed)
    templates = large_templates()
    per_slice = [template for template in templates
                 for _ in range(round(template.weight * slice_size))]
    if len(per_slice) != slice_size:
        raise ValueError(f"slice size {slice_size} does not split by the "
                         f"template weights")
    issued: dict[str, list[str]] = {t.name: [] for t in templates}
    seen: set[str] = set()
    stream = []
    for _ in range(slices):
        order = list(per_slice)
        rng.shuffle(order)
        for template in order:
            earlier = issued[template.name]
            if earlier and rng.random() < repetition:
                query = earlier[rng.randrange(len(earlier))]
            else:
                query = template.build(rng)
                while query in seen:
                    query = template.build(rng)
                seen.add(query)
            earlier.append(query)
            stream.append((template.name, query))
    return stream


# -- ingest documents (ingest_mixed) -----------------------------------------


def serial_token(seed: int, number: int) -> str:
    """A letters-only token unique to ``(seed, number)`` that no entity
    name contains and no stemming rule shortens (it ends in ``q``)."""
    def letters(value: int) -> str:
        out = ""
        while True:
            out = chr(ord("a") + value % 26) + out
            value //= 26
            if not value:
                return out
    return f"zq{letters(seed)}x{letters(number)}q"


def ingest_instances(collection, database, seed: int,
                     count: int) -> list[QunitInstance]:
    """``count`` new ``movie_plot`` instances.  Titles and plots
    recombine words the corpus already indexes (so they shift the
    statistics later reads are ranked by) and end in a
    :func:`serial_token` — the one query that must retrieve exactly
    this document, which the durability check asks."""
    rng = random.Random(seed)
    words = sorted({word.lower()
                    for row in database.table("movie")
                    for word in str(row["title"]).split()
                    if word.isalpha()})
    names = [str(row["name"]) for row in database.table("person")]
    definition = collection.definition("movie_plot")
    instances = []
    for i in range(count):
        title = f"{' '.join(rng.sample(words, 2))} {serial_token(seed, i)}"
        plot = (f"{rng.choice(names)} returns in a story about "
                f"{' and '.join(rng.sample(words, 3))}")
        instances.append(QunitInstance(
            definition, {"x": title},
            [{"movie.title": title, "movie_info.info": plot,
              "info_type.name": "plot"}]))
    return instances
