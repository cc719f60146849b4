"""Integration tests for the asyncio HTTP serving front end
(``repro.serve.server`` + ``repro.serve.client``): routing and error
codes over a real socket, micro-batch formation, backpressure and
quota 429s, graceful shutdown mid-batch, and the property that answers
served over HTTP are identical to in-process answers."""

import asyncio
import http.client
import json
import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QunitCollection
from repro.core.derivation import imdb_expert_qunits
from repro.core.search import QunitSearchEngine
from repro.core.store import CollectionStore, LoadOptions, SaveOptions
from repro.datasets.querylog import SessionLogGenerator
from repro.serve.api import SearchRequest
from repro.serve.client import (
    SearchClient,
    ServerBusy,
    build_session_workload,
    run_load_in_process,
)
from repro.serve.server import SearchServer, ServerConfig


@pytest.fixture(scope="module")
def serve_collection(imdb_db):
    return QunitCollection(imdb_db, imdb_expert_qunits(),
                           max_instances_per_definition=40)


@pytest.fixture(scope="module")
def workload_queries(imdb_db):
    generator = SessionLogGenerator(imdb_db, seed=5)
    sessions = generator.generate(25)
    return sorted({query for session in sessions
                   for query in session.queries})[:15]


@pytest.fixture(scope="module")
def live_server(serve_collection):
    """One server on a background event-loop thread, so synchronous
    ``http.client`` (and hypothesis) can talk to it per example."""
    engine = QunitSearchEngine(serve_collection, flavor="expert")
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = SearchServer(engine, ServerConfig(window=0.002, max_batch=8))
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=120)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.close(),
                                         loop).result(timeout=120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


def _request(server, method, path, payload=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}
    finally:
        connection.close()


class TestRouting:
    def test_healthz(self, live_server):
        status, data = _request(live_server, "GET", "/healthz")
        assert (status, data) == (200, {"status": "ok"})

    def test_wrong_method_is_405(self, live_server):
        assert _request(live_server, "POST", "/healthz",
                        {})[0] == 405
        assert _request(live_server, "GET", "/search")[0] == 405

    def test_unknown_route_is_404(self, live_server):
        assert _request(live_server, "GET", "/nope")[0] == 404

    def test_malformed_json_is_400(self, live_server):
        host, port = live_server.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request("POST", "/search", body="{not json",
                               headers={"Content-Type": "application/json"})
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_unknown_request_field_is_400(self, live_server):
        status, data = _request(live_server, "POST", "/search",
                                {"query": "x", "bogus": 1})
        assert status == 400
        assert "bogus" in data["error"]

    def test_missing_query_is_400(self, live_server):
        status, data = _request(live_server, "POST", "/search",
                                {"limit": 3})
        assert status == 400 and "query" in data["error"]

    def test_malformed_batch_is_400(self, live_server):
        status, _data = _request(live_server, "POST", "/search/batch",
                                 {"requests": "not a list"})
        assert status == 400

    def test_search_and_stats(self, live_server, workload_queries):
        status, data = _request(live_server, "POST", "/search",
                                {"query": workload_queries[0], "limit": 3})
        assert status == 200
        assert data["query"] == workload_queries[0]
        assert len(data["answers"]) <= 3
        status, stats = _request(live_server, "GET", "/stats")
        assert status == 200
        assert stats["requests"] >= 1 and stats["served"] >= 1
        assert stats["batches"] >= 1

    def test_batch_route(self, live_server, workload_queries):
        payload = {"requests": [{"query": query, "limit": 2}
                                for query in workload_queries[:3]]}
        status, data = _request(live_server, "POST", "/search/batch",
                                payload)
        assert status == 200
        assert [entry["query"] for entry in data["responses"]] \
            == workload_queries[:3]

    def test_keep_alive_connection_reuse(self, live_server):
        host, port = live_server.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for _ in range(2):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_keep_alive_reuse_across_search_requests(self, live_server,
                                                     workload_queries):
        # Sequential POST /search requests (and a /stats probe) ride the
        # same TCP connection; every response must leave the stream
        # positioned at the next request boundary.
        host, port = live_server.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for query in workload_queries[:3]:
                connection.request(
                    "POST", "/search", body=json.dumps({"query": query}),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") != "close"
                data = json.loads(response.read())
                assert data["query"] == query
            connection.request("GET", "/stats")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["served"] >= 3
        finally:
            connection.close()


class TestHttpMatchesInProcess:
    """The core serving property: batched-over-HTTP answers are
    identical, field by field, to in-process engine answers."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_answers_identical(self, live_server, serve_collection,
                               workload_queries, data):
        query = data.draw(st.sampled_from(workload_queries))
        limit = data.draw(st.integers(min_value=1, max_value=8))
        explain = data.draw(st.booleans())
        request = SearchRequest(query=query, limit=limit, explain=explain)

        reference_engine = QunitSearchEngine(serve_collection,
                                             flavor="expert")
        [reference] = reference_engine.execute([request])

        async def over_http():
            host, port = live_server.address
            async with SearchClient(host, port) as client:
                return await client.search(request)

        served = asyncio.run(over_http())
        assert served.query == reference.query
        assert served.answers == reference.answers
        if explain:
            assert served.explanation is not None
            assert served.explanation.candidates \
                == reference.explanation.candidates
            assert served.explanation.answers \
                == reference.explanation.answers
        else:
            assert served.explanation is None


def _start_server(collection, config, slow=None):
    """An engine + server pair (unstarted); ``slow`` wraps the batch
    runner with a delay or gate for tests that need in-flight batches."""
    engine = QunitSearchEngine(collection, flavor="expert")
    server = SearchServer(engine, config)
    if slow is not None:
        real = server.batcher.runner

        def gated(requests):
            slow()
            return real(requests)

        server.batcher.runner = gated
    return server


class TestServingBehavior:
    def test_concurrent_requests_form_one_batch(self, serve_collection,
                                                workload_queries):
        """Requests arriving within the window are served by a single
        engine call (the micro-batch), visible in /stats."""

        async def main():
            config = ServerConfig(window=0.3, max_batch=10)
            async with _start_server(serve_collection, config) as server:
                host, port = server.address

                async def one(query):
                    async with SearchClient(host, port) as client:
                        return await client.search(
                            SearchRequest(query=query, limit=3))

                responses = await asyncio.gather(
                    *(one(query) for query in workload_queries[:4]))
                return server.stats(), responses

        stats, responses = asyncio.run(main())
        assert len(responses) == 4
        assert stats["batches"] == 1
        assert stats["served"] == 4
        assert stats["mean_batch_size"] == pytest.approx(4.0)

    def test_backpressure_answers_429_with_retry_after(
            self, serve_collection, workload_queries):
        gate = threading.Event()

        async def main():
            config = ServerConfig(window=0.0, max_batch=1, queue_limit=1)
            async with _start_server(
                    serve_collection, config,
                    slow=lambda: gate.wait(timeout=10)) as server:
                host, port = server.address
                clients = [SearchClient(host, port) for _ in range(3)]
                try:
                    first = asyncio.ensure_future(clients[0].search(
                        SearchRequest(query=workload_queries[0])))
                    await asyncio.sleep(0.2)  # in the (gated) batch
                    second = asyncio.ensure_future(clients[1].search(
                        SearchRequest(query=workload_queries[1])))
                    await asyncio.sleep(0.2)  # fills the queue
                    with pytest.raises(ServerBusy) as excinfo:
                        await clients[2].search(
                            SearchRequest(query=workload_queries[2]))
                    assert excinfo.value.retry_after > 0
                    gate.set()
                    responses = await asyncio.gather(first, second)
                    return server.stats(), responses
                finally:
                    gate.set()
                    for client in clients:
                        await client.close()

        stats, responses = asyncio.run(main())
        assert len(responses) == 2
        assert stats["rejected"] == 1

    def test_quota_exhaustion_answers_429(self, serve_collection,
                                          workload_queries):
        async def main():
            config = ServerConfig(window=0.0, max_batch=1,
                                  quota_rate=0.001, quota_burst=1)
            async with _start_server(serve_collection, config) as server:
                host, port = server.address
                async with SearchClient(host, port) as client:
                    first = await client.search(SearchRequest(
                        query=workload_queries[0], client_id="greedy"))
                    with pytest.raises(ServerBusy) as excinfo:
                        await client.search(SearchRequest(
                            query=workload_queries[1], client_id="greedy"))
                    # An unrelated client is admitted normally.
                    other = await client.search(SearchRequest(
                        query=workload_queries[1], client_id="modest"))
                return first, excinfo.value, other, server.stats()

        first, busy, other, stats = asyncio.run(main())
        assert first.query == workload_queries[0]
        assert other.query == workload_queries[1]
        assert busy.retry_after > 0
        assert stats["quota_rejections"] == 1

    def test_retry_after_header_value_on_queue_exhaustion(
            self, serve_collection, workload_queries):
        # The overload 429 advertises max(4 * window, 0.05) seconds, so
        # with window=0 the header must read exactly "0.05".
        gate = threading.Event()

        async def main():
            config = ServerConfig(window=0.0, max_batch=1, queue_limit=1)
            async with _start_server(
                    serve_collection, config,
                    slow=lambda: gate.wait(timeout=10)) as server:
                host, port = server.address
                clients = [SearchClient(host, port) for _ in range(3)]
                try:
                    first = asyncio.ensure_future(clients[0].search(
                        SearchRequest(query=workload_queries[0])))
                    await asyncio.sleep(0.2)  # in the (gated) batch
                    second = asyncio.ensure_future(clients[1].search(
                        SearchRequest(query=workload_queries[1])))
                    await asyncio.sleep(0.2)  # fills the queue
                    status, data = await clients[2].request(
                        "POST", "/search",
                        {"query": workload_queries[2]})
                    gate.set()
                    await asyncio.gather(first, second)
                    return status, data
                finally:
                    gate.set()
                    for client in clients:
                        await client.close()

        status, data = asyncio.run(main())
        assert status == 429
        assert data["retry_after"] == "0.05"

    def test_retry_after_header_value_on_quota_exhaustion(
            self, serve_collection, workload_queries):
        # Quota 429s advertise the token-refill wait: burst 1 at 0.5/s
        # means the next token is ~2 s out when the second request lands
        # immediately after the first.
        async def main():
            config = ServerConfig(window=0.0, max_batch=1,
                                  quota_rate=0.5, quota_burst=1)
            async with _start_server(serve_collection, config) as server:
                host, port = server.address
                async with SearchClient(host, port) as client:
                    await client.search(SearchRequest(
                        query=workload_queries[0], client_id="greedy"))
                    return await client.request(
                        "POST", "/search",
                        {"query": workload_queries[1],
                         "client_id": "greedy"})

        status, data = asyncio.run(main())
        assert status == 429
        advertised = float(data["retry_after"])
        assert 1.0 < advertised <= 2.0

    def test_graceful_shutdown_completes_inflight_batch(
            self, serve_collection, workload_queries):
        """close() mid-batch: queued requests are still answered, and
        the listener is gone afterwards."""
        gate = threading.Event()

        async def main():
            config = ServerConfig(window=0.0, max_batch=1, queue_limit=8)
            server = _start_server(serve_collection, config,
                                   slow=lambda: gate.wait(timeout=10))
            await server.start()
            host, port = server.address
            clients = [SearchClient(host, port) for _ in range(3)]
            try:
                pending = [asyncio.ensure_future(client.search(
                    SearchRequest(query=query)))
                    for client, query in zip(clients, workload_queries)]
                await asyncio.sleep(0.3)  # one in flight, two queued
                closer = asyncio.ensure_future(server.close())
                await asyncio.sleep(0.1)
                gate.set()
                responses = await asyncio.gather(*pending)
                await closer
                with pytest.raises(OSError):
                    await asyncio.open_connection(host, port)
                return responses
            finally:
                gate.set()
                for client in clients:
                    await client.close()

        responses = asyncio.run(main())
        assert [response.query for response in responses] \
            == workload_queries[:3]

    def test_queued_timeout_answers_504(self, serve_collection,
                                        workload_queries):
        gate = threading.Event()

        async def main():
            config = ServerConfig(window=0.0, max_batch=1, queue_limit=8)
            async with _start_server(
                    serve_collection, config,
                    slow=lambda: gate.wait(timeout=10)) as server:
                host, port = server.address
                clients = [SearchClient(host, port) for _ in range(2)]
                try:
                    first = asyncio.ensure_future(clients[0].search(
                        SearchRequest(query=workload_queries[0])))
                    await asyncio.sleep(0.2)
                    status, data = await clients[1].request(
                        "POST", "/search",
                        SearchRequest(query=workload_queries[1],
                                      timeout=0.05).to_dict())
                    gate.set()
                    await first
                    return status, data, server.stats()
                finally:
                    gate.set()
                    for client in clients:
                        await client.close()

        status, data, stats = asyncio.run(main())
        assert status == 504
        assert stats["timeouts"] == 1


class TestHybridOverHttp:
    def test_per_request_strategy_override(self, live_server,
                                           workload_queries):
        status, data = _request(live_server, "POST", "/search",
                                {"query": workload_queries[0], "limit": 3,
                                 "strategy": "hybrid", "explain": True})
        assert status == 200
        assert data["explanation"]["strategy"] == "hybrid"

    def test_invalid_strategy_is_400(self, live_server):
        status, data = _request(live_server, "POST", "/search",
                                {"query": "x", "strategy": "bogus"})
        assert status == 400
        assert "strategy" in data["error"]

    @pytest.mark.parametrize("value", ["maxscore", "wand", "blockmax"])
    def test_retired_strategies_fail_loudly(self, live_server, capsys,
                                            value):
        # Strategy names older builds accepted are refused at every
        # entry point for outside input — never silently mapped to auto.
        from repro.cli import main
        from repro.ir import InvertedIndex, Searcher

        named = "('auto', 'hybrid')"
        with pytest.raises(ValueError, match=re.escape(named)):
            Searcher(InvertedIndex(), strategy=value)
        with pytest.raises(ValueError, match=re.escape(named)):
            LoadOptions(strategy=value)
        with pytest.raises(ValueError, match=re.escape(named)):
            SearchRequest.from_dict({"query": "x", "strategy": value})
        status, data = _request(live_server, "POST", "/search",
                                {"query": "x", "strategy": value})
        assert status == 400
        assert named in data["error"]
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "x", "--strategy", value])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_vector_extents_serve_lexical_over_http(
            self, serve_collection, tmp_path):
        # A collection saved without vector extents, served over HTTP
        # with a hybrid request: 200, lexical answers, a fallback note
        # in the trace — never a 500.
        store = CollectionStore(tmp_path / "no-vectors")
        store.save(serve_collection, SaveOptions(vectors=False))
        loaded = store.load(serve_collection.database,
                            LoadOptions(lazy=False))
        # Free text that matches no definition, so serving it must run
        # flat IR retrieval (where the hybrid fallback fires); a
        # structurally-matched query would materialize its answers
        # without ever touching a searcher.
        query = "science fiction movies"

        async def main():
            config = ServerConfig(window=0.0, max_batch=4)
            async with _start_server(loaded, config) as server:
                host, port = server.address
                async with SearchClient(host, port) as client:
                    hybrid = await client.request(
                        "POST", "/search",
                        {"query": query, "limit": 3,
                         "strategy": "hybrid", "explain": True})
                    lexical = await client.request(
                        "POST", "/search", {"query": query, "limit": 3})
                return hybrid, lexical

        (status, data), (lex_status, lex_data) = asyncio.run(main())
        assert status == 200 and lex_status == 200
        assert data["answers"] == lex_data["answers"]
        assert any("no vector extents" in note
                   for note in data["explanation"]["notes"])


class TestSubprocessLoadClient:
    def test_fleet_runs_out_of_process(self, serve_collection,
                                       workload_queries):
        # The closed-loop fleet must complete from a child interpreter
        # (real external traffic) and ship its report back intact.
        workload = [workload_queries[:3], workload_queries[3:6]]

        async def main():
            config = ServerConfig(window=0.002, max_batch=8)
            async with _start_server(serve_collection, config) as server:
                host, port = server.address
                report = await run_load_in_process(host, port, workload,
                                                   limit=3)
                return report, server.stats()

        report, stats = asyncio.run(main())
        assert report.completed == 6
        assert report.errors == 0
        assert report.qps > 0
        assert stats["served"] >= 6


class TestLoadClientHelpers:
    def test_build_session_workload_preserves_session_order(self, imdb_db):
        generator = SessionLogGenerator(imdb_db, seed=6)
        sessions = generator.generate(10)
        streams = build_session_workload(sessions, 3)
        assert 1 <= len(streams) <= 3
        total = sum(len(stream) for stream in streams)
        assert total == sum(len(session.queries) for session in sessions)
        # Round-robin: stream 0 holds sessions 0, 3, 6, 9 concatenated.
        expected = [query for i in (0, 3, 6, 9)
                    for query in sessions[i].queries]
        assert streams[0] == expected

    def test_build_session_workload_validation(self, imdb_db):
        generator = SessionLogGenerator(imdb_db, seed=6)
        sessions = generator.generate(2)
        with pytest.raises(ValueError):
            build_session_workload(sessions, 0)
        with pytest.raises(ValueError):
            build_session_workload([], 4)
