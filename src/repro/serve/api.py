"""The unified serving API: typed requests in, typed responses out.

Every way of asking the engine a question — the in-process façade
(:meth:`~repro.core.search.engine.QunitSearchEngine.execute`), the
asyncio HTTP front end (:mod:`repro.serve.server`), and the CLI — speaks
one pair of types:

- :class:`SearchRequest` — the query plus its serving envelope (result
  limit, whether the caller wants the pipeline trace, which client is
  asking, how long it is willing to wait).
- :class:`SearchResponse` — the ranked answers plus the serving
  *outcome*: the optional explanation, per-stage timings, and the
  cache/admission flags a load client needs to measure whether caching
  actually pays.

The four historical engine entry points (``search``, ``search_many``,
``search_with_explanation``, ``search_many_with_explanations``) survive
as thin deprecated wrappers over this path; see the engine module.

Both types round-trip through plain JSON-able dicts (:meth:`to_dict` /
:meth:`from_dict`) — that dict form *is* the HTTP wire format, and the
answer serialization is lossless (system, score, text, atoms, and
provenance all survive), so results served over HTTP compare equal to
in-process results field by field (property-tested in
``tests/test_serve_server.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.answer import Answer
from repro.ir.topk import STRATEGIES
from repro.serve.explain import SearchExplanation, StageTiming

__all__ = [
    "SearchRequest",
    "SearchResponse",
    "answer_to_dict",
    "answer_from_dict",
    "explanation_to_dict",
    "explanation_from_dict",
    "requests_to_dicts",
    "requests_from_dicts",
    "responses_to_dicts",
    "responses_from_dicts",
]


@dataclass(frozen=True)
class SearchRequest:
    """One typed search request — the unit every serving layer accepts.

    ``query`` is the raw keyword string.  ``limit`` bounds the answer
    list.  ``explain`` asks for the full pipeline trace in the response
    (the trace is computed either way; the flag only controls whether it
    is returned, which matters on the wire).  ``client_id`` names the
    requesting client for per-client quotas and repetition measurement
    (``None`` = anonymous, which shares one quota bucket).  ``timeout``
    is the seconds the caller is willing to wait end to end — enforced
    by the HTTP server's queue (a request that cannot be answered in
    time gets a 504), ignored by the in-process path where there is no
    queue to wait in.  ``strategy`` overrides the engine's configured
    retrieval strategy for this request only (one of
    :data:`repro.ir.topk.STRATEGIES`, e.g. ``"hybrid"``; ``None`` = the
    engine default).
    """

    query: str
    limit: int = 5
    explain: bool = False
    client_id: str | None = None
    timeout: float | None = None
    strategy: str | None = None

    def __post_init__(self) -> None:
        """Validate at construction, not mid-pipeline."""
        if not isinstance(self.query, str):
            raise ValueError(f"query must be a string, got {self.query!r}")
        if not isinstance(self.limit, int) or isinstance(self.limit, bool) \
                or self.limit < 0:
            raise ValueError(
                f"limit must be a non-negative integer, got {self.limit!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive or None, got {self.timeout!r}")
        if self.client_id is not None and not isinstance(self.client_id, str):
            raise ValueError(
                f"client_id must be a string or None, got {self.client_id!r}")
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES} or None, "
                f"got {self.strategy!r}")

    def to_dict(self) -> dict:
        """The JSON-able wire form (defaults elided for compactness)."""
        data: dict = {"query": self.query, "limit": self.limit}
        if self.explain:
            data["explain"] = True
        if self.client_id is not None:
            data["client_id"] = self.client_id
        if self.timeout is not None:
            data["timeout"] = self.timeout
        if self.strategy is not None:
            data["strategy"] = self.strategy
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SearchRequest":
        """Parse a wire-form dict (the HTTP request body).

        Raises:
            ValueError: on non-dict input, unknown keys, or any field
                failing the constructor's validation.
        """
        if not isinstance(data, dict):
            raise ValueError(f"request body must be a JSON object, "
                             f"got {type(data).__name__}")
        known = {"query", "limit", "explain", "client_id", "timeout",
                 "strategy"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)} "
                             f"(known: {sorted(known)})")
        if "query" not in data:
            raise ValueError("request is missing the required 'query' field")
        timeout = data.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ValueError(f"timeout must be a number, got {timeout!r}")
        return cls(
            query=data["query"],
            limit=data.get("limit", 5),
            explain=bool(data.get("explain", False)),
            client_id=data.get("client_id"),
            timeout=float(timeout) if timeout is not None else None,
            strategy=data.get("strategy"),
        )


@dataclass(frozen=True)
class SearchResponse:
    """One typed search result: answers plus the serving outcome.

    ``answers`` are the ranked :class:`~repro.answer.Answer` objects.
    ``explanation`` is the pipeline trace when the request asked for it
    (``None`` otherwise).  ``timings`` are the per-stage wall times of
    the batch that served this query (empty when the result came from
    the cache or admission short-circuited it).  ``cached`` marks a
    result served from the pipeline result cache; ``admitted`` is false
    when admission control rejected the query without running the
    pipeline.  ``client_id`` echoes the request's.
    """

    query: str
    answers: tuple[Answer, ...]
    explanation: SearchExplanation | None = None
    timings: tuple[StageTiming, ...] = ()
    cached: bool = False
    admitted: bool = True
    client_id: str | None = None

    def to_dict(self) -> dict:
        """The JSON-able wire form (the HTTP response body)."""
        data: dict = {
            "query": self.query,
            "answers": [answer_to_dict(answer) for answer in self.answers],
            "timings": [{"stage": timing.stage, "seconds": timing.seconds}
                        for timing in self.timings],
            "cached": self.cached,
            "admitted": self.admitted,
        }
        if self.explanation is not None:
            data["explanation"] = explanation_to_dict(self.explanation)
        if self.client_id is not None:
            data["client_id"] = self.client_id
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SearchResponse":
        """Reconstruct a response from its wire form.

        Raises:
            ValueError: on non-dict input or missing required fields.
        """
        if not isinstance(data, dict):
            raise ValueError(f"response body must be a JSON object, "
                             f"got {type(data).__name__}")
        try:
            answers = tuple(answer_from_dict(entry)
                            for entry in data["answers"])
            query = data["query"]
        except KeyError as exc:
            raise ValueError(f"response is missing field {exc}") from exc
        explanation = data.get("explanation")
        return cls(
            query=query,
            answers=answers,
            explanation=(explanation_from_dict(explanation)
                         if explanation is not None else None),
            timings=tuple(StageTiming(entry["stage"], entry["seconds"])
                          for entry in data.get("timings", ())),
            cached=bool(data.get("cached", False)),
            admitted=bool(data.get("admitted", True)),
            client_id=data.get("client_id"),
        )


def requests_to_dicts(requests) -> list[dict]:
    """A whole batch of requests in wire form — the payload of one
    ``batch`` frame on the worker protocol (:mod:`repro.serve.workers`)."""
    return [request.to_dict() for request in requests]


def requests_from_dicts(payload) -> list[SearchRequest]:
    """Parse a batch of wire-form requests.

    Raises:
        ValueError: when the payload is not a list, or any entry fails
            :meth:`SearchRequest.from_dict` validation.
    """
    if not isinstance(payload, list):
        raise ValueError(f"batch payload must be a JSON array, "
                         f"got {type(payload).__name__}")
    return [SearchRequest.from_dict(entry) for entry in payload]


def responses_to_dicts(responses) -> list[dict]:
    """A whole batch of responses in wire form — the payload of one
    ``result`` frame on the worker protocol."""
    return [response.to_dict() for response in responses]


def responses_from_dicts(payload) -> list[SearchResponse]:
    """Parse a batch of wire-form responses.

    Raises:
        ValueError: when the payload is not a list, or any entry fails
            :meth:`SearchResponse.from_dict` validation.
    """
    if not isinstance(payload, list):
        raise ValueError(f"result payload must be a JSON array, "
                         f"got {type(payload).__name__}")
    return [SearchResponse.from_dict(entry) for entry in payload]


def answer_to_dict(answer: Answer) -> dict:
    """Lossless JSON-able form of one :class:`~repro.answer.Answer`.

    Atoms are sorted (they live in a frozenset) so two equal answers
    always serialize identically; provenance order is preserved (it is
    meaningful — branding appends to it).
    """
    return {
        "system": answer.system,
        "score": answer.score,
        "text": answer.text,
        "atoms": sorted(list(atom) for atom in answer.atoms),
        "provenance": [[key, value] for key, value in answer.provenance],
    }


def _freeze(value):
    """Rebuild nested sequences as tuples: JSON has no tuple type, so
    provenance values that left as tuples arrive as lists — freezing
    them restores the exact form the pipeline builds (and keeps frozen
    answers hashable)."""
    if isinstance(value, list):
        return tuple(_freeze(entry) for entry in value)
    return value


def answer_from_dict(data: dict) -> Answer:
    """Reconstruct an :class:`~repro.answer.Answer` from its wire form.

    Raises:
        ValueError: on missing fields or malformed atoms.
    """
    try:
        atoms = frozenset(
            (str(table), str(column), str(value))
            for table, column, value in data["atoms"])
        provenance = tuple((str(key), _freeze(value))
                           for key, value in data["provenance"])
        return Answer(system=data["system"], atoms=atoms,
                      text=data["text"], score=data["score"],
                      provenance=provenance)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed answer payload: {exc!r}") from exc


def explanation_to_dict(explanation: SearchExplanation) -> dict:
    """JSON-able form of one pipeline trace."""
    return {
        "query": explanation.query,
        "template": explanation.template,
        "query_class": explanation.query_class,
        "candidates": [[name, score, rejected]
                       for name, score, rejected in explanation.candidates],
        "answers": list(explanation.answers),
        "strategy": explanation.strategy,
        "plan": list(explanation.plan),
        "stages": [{"stage": timing.stage, "seconds": timing.seconds}
                   for timing in explanation.stages],
        "cache_hits": explanation.cache_hits,
        "cache_misses": explanation.cache_misses,
        "shard_tasks": explanation.shard_tasks,
        "shard_tasks_skipped": explanation.shard_tasks_skipped,
        "generation": explanation.generation,
        "lazy_loads": explanation.lazy_loads,
        "bloom_skips": explanation.bloom_skips,
        "notes": list(explanation.notes),
    }


def explanation_from_dict(data: dict) -> SearchExplanation:
    """Reconstruct a :class:`~repro.serve.explain.SearchExplanation`.

    Raises:
        ValueError: on missing fields.
    """
    try:
        return SearchExplanation(
            query=data["query"],
            template=data["template"],
            query_class=data["query_class"],
            candidates=tuple((name, score, bool(rejected))
                             for name, score, rejected
                             in data["candidates"]),
            answers=tuple(data["answers"]),
            strategy=data.get("strategy", "auto"),
            plan=tuple(data.get("plan", ())),
            stages=tuple(StageTiming(entry["stage"], entry["seconds"])
                         for entry in data.get("stages", ())),
            cache_hits=data.get("cache_hits", 0),
            cache_misses=data.get("cache_misses", 0),
            shard_tasks=data.get("shard_tasks", 0),
            shard_tasks_skipped=data.get("shard_tasks_skipped", 0),
            generation=data.get("generation"),
            lazy_loads=data.get("lazy_loads", 0),
            bloom_skips=data.get("bloom_skips", 0),
            notes=tuple(data.get("notes", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed explanation payload: {exc!r}") from exc
