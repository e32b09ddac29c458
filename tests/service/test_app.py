"""End-to-end HTTP tests for the pebbling service.

No pytest-asyncio in the container: each test drives its own event loop
with ``asyncio.run``.  The blocking :class:`ServiceClient` talks to the
in-loop server from executor threads.
"""

import asyncio
import json
import time

import pytest

from repro._version import __version__
from repro.experiments import InlineBackend, MemoryResultStore, MultiprocessingBackend
from repro.service import PebbleService, ServiceClient, ServiceError


@pytest.fixture(scope="module")
def pool():
    backend = MultiprocessingBackend(jobs=2)
    yield backend
    backend.close()


class ServiceHarness:
    """Async context: a served PebbleService + executor-driven client."""

    def __init__(self, backend=None, store=None, **kw):
        self.service = PebbleService(backend or InlineBackend(), store, **kw)
        self.client = None

    async def __aenter__(self):
        host, port = await self.service.start("127.0.0.1", 0)
        self.host, self.port = host, port
        self.client = ServiceClient(f"http://{host}:{port}")
        return self

    async def __aexit__(self, *exc):
        if self.client is not None:
            self.client.close()
        await self.service.aclose()

    def call(self, method, *args):
        """Run a blocking client method off-loop; await the result."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(None, lambda: getattr(self.client, method)(*args))

    def fresh_call(self, method, *args):
        """Same, but over a new single-use connection (thread-safe)."""
        loop = asyncio.get_running_loop()
        url = f"http://{self.host}:{self.port}"

        def run():
            with ServiceClient(url) as client:
                return getattr(client, method)(*args)

        return loop.run_in_executor(None, run)


def run(coro):
    return asyncio.run(coro)


class TestEndpoints:
    def test_health_and_catalogues(self):
        async def scenario():
            async with ServiceHarness() as h:
                health = await h.call("health")
                assert health["ok"] and health["version"] == __version__
                methods = await h.call("methods")
                assert "exact" in methods and "baseline" in methods
                specs = await h.call("specs")
                assert any(s["name"] == "smoke" for s in specs)

        run(scenario())

    def test_query_happy_path(self):
        async def scenario():
            async with ServiceHarness() as h:
                result = await h.call(
                    "query", {"dag": "pyramid:3", "method": "baseline"}
                )
                assert result["status"] == "ok"
                assert result["cost"] is not None
                assert result["red_limit"] >= 2

        run(scenario())

    def test_warm_query_is_cached_and_fast(self):
        async def scenario():
            store = MemoryResultStore()
            async with ServiceHarness(store=store) as h:
                cold = await h.call("query", {"dag": "pyramid:3",
                                              "method": "baseline"})
                assert not cold["cached"]
                start = time.perf_counter()
                warm = await h.call("query", {"dag": "pyramid:3",
                                              "method": "baseline"})
                elapsed = time.perf_counter() - start
                assert warm["cached"]
                assert warm["cost"] == cold["cost"]
                assert elapsed < 0.5  # acceptance bound is 10ms server-side;
                # allow generous slack for executor hop + CI jitter

        run(scenario())

    def test_infeasible_is_a_200_answer(self):
        async def scenario():
            async with ServiceHarness() as h:
                envelope = await h.call(
                    "query_raw",
                    {"dag": "pyramid:3", "method": "greedy", "red_limit": 1},
                )
                assert envelope["ok"]
                assert envelope["result"]["status"] == "infeasible"

        run(scenario())

    def test_stats_endpoint(self):
        async def scenario():
            store = MemoryResultStore()
            async with ServiceHarness(store=store) as h:
                query = {"dag": "chain:4", "method": "baseline"}
                await h.call("query", query)
                await h.call("query", query)
                stats = await h.call("stats")
                assert stats["queue"]["requests"] == 2
                assert stats["queue"]["executed"] == 1
                assert stats["queue"]["cache_hits"] == 1
                assert stats["store"]["hit_rate"] == 0.5

        run(scenario())

    def test_batch_endpoint(self):
        async def scenario():
            async with ServiceHarness() as h:
                results = await h.call("batch", [
                    {"dag": "chain:3", "method": "baseline"},
                    {"dag": "chain:4", "method": "baseline"},
                ])
                assert len(results) == 2
                assert all(r["ok"] for r in results)

        run(scenario())


class TestErrorPaths:
    def test_malformed_schema_is_400(self):
        async def scenario():
            async with ServiceHarness() as h:
                for bad in (
                    {"dag": ""},
                    {"dag": "chain:3", "model": "quantum"},
                    {"dag": "chain:3", "frobnicate": True},
                ):
                    envelope = await h.call("query_raw", bad)
                    assert not envelope["ok"]
                    assert envelope["error"]["code"] == "bad-request"

        run(scenario())

    def test_malformed_method_argument_is_400(self):
        # regression: these used to resolve, so the error only surfaced
        # when a worker ran the cell, as a 502 execution-error
        async def scenario():
            async with ServiceHarness() as h:
                for method in ("fixed-order:nope", "beam:0", "idastar"):
                    with pytest.raises(ServiceError) as info:
                        await h.call("query", {"dag": "chain:3", "method": method})
                    assert info.value.status == 400, method
                    assert info.value.payload["error"]["code"] == "bad-request"

        run(scenario())

    def test_unbuildable_dag_is_400(self):
        async def scenario():
            async with ServiceHarness() as h:
                with pytest.raises(ServiceError) as info:
                    await h.call("query", {"dag": "no-such-dag:3"})
                assert info.value.status == 400
                assert "unknown DAG spec" in str(info.value)

        run(scenario())

    def test_missing_spec_file_is_400(self, tmp_path):
        # regression: a @path spec naming a missing file used to raise a
        # raw OSError inside the worker, surfacing as a 502 internal
        # error instead of a client-side 400
        async def scenario():
            async with ServiceHarness() as h:
                with pytest.raises(ServiceError) as info:
                    await h.call("query", {"dag": f"@{tmp_path}/missing.json"})
                assert info.value.status == 400
                assert "bad DAG spec" in str(info.value)

        run(scenario())

    def test_timeout_is_504(self, pool):
        async def scenario():
            async with ServiceHarness(backend=pool) as h:
                with pytest.raises(ServiceError) as info:
                    await h.call("query", {"dag": "chain:3",
                                           "method": "sleep:30",
                                           "timeout": 0.3})
                assert info.value.status == 504
                assert info.value.code == "timeout"
                stats = await h.call("stats")
                assert stats["queue"]["timeouts"] == 1

        run(scenario())

    def test_failed_store_write_is_counted(self):
        class BrokenStore(MemoryResultStore):
            def put(self, result):
                raise OSError("disk full")

        async def scenario():
            async with ServiceHarness(store=BrokenStore()) as h:
                query = {"dag": "chain:4", "method": "baseline"}
                first = await h.call("query", query)
                assert first["status"] == "ok" and not first["cached"]
                stats = await h.call("stats")
                assert stats["queue"]["store_errors"] == 1
                again = await h.call("query", query)
                assert again["cost"] == first["cost"] and not again["cached"]
                stats = await h.call("stats")
                assert stats["queue"]["executed"] == 2
                assert stats["queue"]["cache_hits"] == 0

        run(scenario())

    def test_failed_backend_batch_is_counted(self):
        class BrokenBackend(InlineBackend):
            def run_tasks(self, batch, **kw):
                raise RuntimeError("worker pool is gone")

        async def scenario():
            async with ServiceHarness(backend=BrokenBackend()) as h:
                for n, dag in enumerate(["chain:3", "chain:4"], start=1):
                    with pytest.raises(ServiceError) as info:
                        await h.call("query", {"dag": dag, "method": "baseline"})
                    assert info.value.status == 500
                    assert info.value.code == "internal-error"
                    stats = await h.call("stats")
                    assert stats["queue"]["failed_batches"] == n
                    assert stats["queue"]["internal_errors"] == n
                    assert stats["queue"]["executed"] == 0

        run(scenario())

    def test_handler_exception_is_counted(self):
        class BrokenStore(MemoryResultStore):
            def get(self, task):
                raise OSError("store is unreadable")

        async def scenario():
            async with ServiceHarness(store=BrokenStore()) as h:
                with pytest.raises(ServiceError) as info:
                    await h.call("query", {"dag": "chain:4", "method": "baseline"})
                assert info.value.status == 500
                assert info.value.code == "internal-error"
                assert "store is unreadable" in str(info.value)
                stats = await h.call("stats")
                assert stats["queue"]["internal_errors"] == 1
                assert stats["queue"]["failed_batches"] == 0
                assert stats["queue"]["batches"] == 0

        run(scenario())

    def test_unknown_route_and_wrong_verb(self):
        async def scenario():
            async with ServiceHarness() as h:
                with pytest.raises(ServiceError) as info:
                    await h.call("_request", "GET", "/v1/nope")
                assert info.value.status == 404
                with pytest.raises(ServiceError) as info:
                    await h.call("_request", "POST", "/healthz", {})
                assert info.value.status == 405

        run(scenario())

    def test_oversized_body_is_413(self):
        async def scenario():
            async with ServiceHarness(max_body=256) as h:
                with pytest.raises(ServiceError) as info:
                    await h.call("query", {"dag": "chain:3" + " " * 512})
                assert info.value.status == 413

        run(scenario())

    def test_raw_protocol_errors(self):
        """Bytes-level checks http.client cannot produce: bad JSON body,
        missing Content-Length, garbage request line."""

        async def roundtrip(host, port, raw):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(raw)
            await writer.drain()
            writer.write_eof()
            response = await reader.read()
            writer.close()
            return response

        async def scenario():
            async with ServiceHarness() as h:
                bad_json = (
                    b"POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\n\r\n{oops"
                )
                response = await roundtrip(h.host, h.port, bad_json)
                assert b"400 Bad Request" in response
                assert b"not valid JSON" in response

                no_length = b"POST /v1/query HTTP/1.1\r\n\r\n"
                response = await roundtrip(h.host, h.port, no_length)
                assert b"411 Length Required" in response

                garbage = b"EHLO\r\n\r\n"
                response = await roundtrip(h.host, h.port, garbage)
                assert b"400 Bad Request" in response

        run(scenario())


class TestConcurrency:
    def test_duplicate_queries_computed_exactly_once(self):
        async def scenario():
            store = MemoryResultStore()
            async with ServiceHarness(store=store) as h:
                query = {"dag": "pyramid:4", "method": "baseline"}
                results = await asyncio.gather(
                    *(h.fresh_call("query", query) for _ in range(8))
                )
                assert len({r["cost"] for r in results}) == 1
                stats = await h.call("stats")
                assert stats["queue"]["requests"] == 8
                assert stats["queue"]["executed"] == 1
                assert (stats["queue"]["coalesced"]
                        + stats["queue"]["cache_hits"]) == 7
                assert store.puts == 1  # the cell was stored exactly once

        run(scenario())

    def test_distinct_queries_batched(self):
        async def scenario():
            async with ServiceHarness() as h:
                queries = [{"dag": f"chain:{n}", "method": "baseline"}
                           for n in range(2, 8)]
                results = await asyncio.gather(
                    *(h.fresh_call("query", q) for q in queries)
                )
                assert len(results) == 6
                stats = await h.call("stats")
                assert stats["queue"]["executed"] == 6
                assert stats["queue"]["batches"] <= 6

        run(scenario())

    def test_crash_does_not_drop_other_requests(self, pool):
        """Acceptance: a worker crash mid-request leaves concurrent
        requests and the service itself healthy."""

        async def scenario():
            async with ServiceHarness(backend=pool) as h:
                answers = await asyncio.gather(
                    h.fresh_call("query_raw", {"dag": "chain:3",
                                               "method": "crash"}),
                    *(h.fresh_call("query", {"dag": f"chain:{n}",
                                             "method": "baseline"})
                      for n in (4, 5, 6)),
                )
                crashed, *good = answers
                assert not crashed["ok"]
                assert "worker process died" in crashed["error"]["message"]
                assert crashed["error"]["code"] == "execution-error"
                assert all(r["status"] == "ok" for r in good)
                health = await h.call("health")
                assert health["ok"]
                again = await h.call("query", {"dag": "chain:7",
                                               "method": "baseline"})
                assert again["status"] == "ok"

        run(scenario())


class TestLifecycle:
    def test_clean_shutdown_with_open_connections(self):
        async def scenario():
            h = ServiceHarness()
            await h.__aenter__()
            await h.call("health")  # leaves a keep-alive connection open
            await h.__aexit__()

        run(scenario())

    def test_sequential_services_rebind(self):
        """Two services back to back: no lingering state or port issues."""

        async def scenario():
            for _ in range(2):
                async with ServiceHarness() as h:
                    result = await h.call("query", {"dag": "chain:3",
                                                    "method": "baseline"})
                    assert result["status"] == "ok"

        run(scenario())

    def test_payload_round_trips_as_json(self):
        async def scenario():
            async with ServiceHarness() as h:
                result = await h.call("query", {"dag": "pyramid:3",
                                                "method": "baseline"})
                json.dumps(result)  # fully JSON-serialisable

        run(scenario())
