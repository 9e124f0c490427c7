"""Serving layer: bit-identity, coalescing, admission control, pools.

The invariant worth the most scrutiny is at the top: results served over
the wire are **bit-identical** to a direct ``Engine.run`` of the same
workload — serving adds scheduling and accounting, never arithmetic. The
digest of the reference run is pinned as a literal so a change to either
side of the equation (engine numerics or server plumbing) fails loudly.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig, ServerConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.errors import ConfigError
from repro.server import (ProtocolError, ServerClient, ServerHandle,
                          array_digest, decode_array, encode_array,
                          parse_request)

ALGORITHM, DATASET, SCALE, ITERATIONS = "gd", "cri1", 0.25, 4

#: SHA-256 of the ``x`` result of gd/cri1 at scale 0.25, 4 iterations,
#: via a direct ``Engine.run`` on the default cluster. Pinned: the server
#: must reproduce this exactly, and the engine must keep producing it.
PINNED_X_SHA256 = \
    "5a3b64b69358ac05bbdc9a22dc61f484ae63c542d0f16881f457ab01e153cc2c"


def _direct_run():
    algo = get_algorithm(ALGORITHM)
    dataset = load_dataset(DATASET, scale=SCALE)
    meta, data = algo.make_inputs(dataset.matrix)
    engine = make_engine("remac", ClusterConfig())
    return algo, engine.run(algo.program(ITERATIONS), meta, data,
                            symmetric=algo.symmetric_inputs,
                            iterations=ITERATIONS)


@pytest.fixture(scope="module")
def server():
    handle = ServerHandle(ServerConfig(port=0, max_queue=16,
                                       tenant_quota=4))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServerClient(server.host, server.port) as connection:
        yield connection


class TestBitIdentity:
    def test_served_result_matches_pinned_direct_run(self, client):
        response = client.run(ALGORITHM, DATASET, scale=SCALE,
                              iterations=ITERATIONS, tenant="pin")
        assert response["status"] == "ok"
        assert response["results"]["x"]["sha256"] == PINNED_X_SHA256

    def test_direct_engine_run_matches_pin(self):
        _, result = _direct_run()
        assert array_digest(result.value("x")) == PINNED_X_SHA256

    def test_returned_values_reconstruct_exactly(self, client):
        _, direct = _direct_run()
        response = client.run(ALGORITHM, DATASET, scale=SCALE,
                              iterations=ITERATIONS, tenant="values",
                              return_values=True)
        served = decode_array(response["results"]["x"])
        np.testing.assert_array_equal(served,
                                      np.asarray(direct.value("x")))

    def test_warm_hit_serves_identical_bytes(self, client):
        first = client.run(ALGORITHM, DATASET, scale=SCALE,
                           iterations=ITERATIONS, tenant="warm-a")
        second = client.run(ALGORITHM, DATASET, scale=SCALE,
                            iterations=ITERATIONS, tenant="warm-b")
        assert second["plan_cache"] in ("hit", "coalesced")
        assert first["results"]["x"]["sha256"] \
            == second["results"]["x"]["sha256"]


class TestServing:
    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["counters"]["received"] >= 1
        assert "plan_cache" in stats and "sessions" in stats

    def test_optimize_op(self, client):
        response = client.optimize(ALGORITHM, DATASET, scale=SCALE,
                                   iterations=ITERATIONS)
        assert response["status"] == "ok"
        assert response["estimated_cost_s"] > 0.0
        assert "results" not in response

    def test_tenant_accounting(self, client, server):
        client.run(ALGORITHM, DATASET, scale=SCALE,
                   iterations=ITERATIONS, tenant="bookkeeper")
        summaries = {s["tenant"]: s
                     for s in server.service.stats()["sessions"]}
        assert summaries["bookkeeper"]["runs"] >= 1
        assert summaries["bookkeeper"]["compiles"] >= 1

    def test_unknown_algorithm_is_an_error_response(self, client):
        response = client.request({"op": "run", "algorithm": "nope"})
        assert response["status"] == "error"
        assert "unknown algorithm" in response["error"]

    def test_invalid_json_keeps_connection_usable(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = json.loads(reader.readline())
            assert response["status"] == "error"
            sock.sendall(b'{"op": "ping", "id": 1}\n')
            assert json.loads(reader.readline())["status"] == "ok"

    def test_concurrent_tenants_one_compile(self, server):
        """A burst of identical fresh-fingerprint requests compiles once."""
        burst, iterations = 4, 6  # fingerprint unused elsewhere
        before = server.service.plan_cache.stats_dict()
        barrier = threading.Barrier(burst)
        responses = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            with ServerClient(server.host, server.port) as connection:
                barrier.wait()
                response = connection.run(
                    ALGORITHM, DATASET, scale=SCALE, iterations=iterations,
                    tenant=f"burst-{index}")
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(burst)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = server.service.plan_cache.stats_dict()
        assert all(r["status"] == "ok" for r in responses)
        assert after["misses"] - before["misses"] == 1
        digests = {r["results"]["x"]["sha256"] for r in responses}
        assert len(digests) == 1
        outcomes = sorted(r["plan_cache"] for r in responses)
        assert outcomes.count("miss") == 1
        assert all(o in ("miss", "hit", "coalesced") for o in outcomes)


class TestAdmissionControl:
    def test_quota_exceeded_rejected_with_retry_after(self):
        """Requests past ``tenant_quota`` bounce; capacity then recovers."""
        config = ServerConfig(port=0, max_queue=8, tenant_quota=1,
                              compile_workers=1, execute_workers=1)
        with ServerHandle(config) as handle:
            workers = 4
            barrier = threading.Barrier(workers)
            responses = []
            lock = threading.Lock()

            def worker() -> None:
                with ServerClient(handle.host, handle.port) as connection:
                    barrier.wait()
                    response = connection.run(
                        ALGORITHM, DATASET, scale=SCALE,
                        iterations=ITERATIONS, tenant="greedy")
                    with lock:
                        responses.append(response)

            threads = [threading.Thread(target=worker)
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            statuses = sorted(r["status"] for r in responses)
            assert "rejected" in statuses  # quota bit at least once
            rejected = [r for r in responses if r["status"] == "rejected"]
            assert all(r["error"] == "quota_exceeded" for r in rejected)
            # retry_after is computed from observed queue state, floored
            # at the configured constant.
            assert all(r["retry_after"] >= config.retry_after_seconds
                       for r in rejected)
            # The quota frees once requests drain: a sequential retry runs.
            with ServerClient(handle.host, handle.port) as connection:
                retry = connection.run(ALGORITHM, DATASET, scale=SCALE,
                                       iterations=ITERATIONS,
                                       tenant="greedy")
            assert retry["status"] == "ok"
            assert handle.service.stats()["counters"]["rejected_quota"] >= 1

    def test_rejected_requests_never_reach_the_cache(self):
        config = ServerConfig(port=0, max_queue=1, tenant_quota=1)
        with ServerHandle(config) as handle:
            # Saturate the global bound from inside the service so the
            # next request over the wire is rejected deterministically.
            handle.service._admitted = config.max_queue
            before = handle.service.plan_cache.stats_dict()
            with ServerClient(handle.host, handle.port) as connection:
                response = connection.run(ALGORITHM, DATASET, scale=SCALE,
                                          iterations=ITERATIONS)
            assert response["status"] == "rejected"
            assert response["error"] == "server_busy"
            assert handle.service.plan_cache.stats_dict() == before
            handle.service._admitted = 0


class TestSharedPools:
    def test_service_close_is_idempotent(self):
        handle = ServerHandle(ServerConfig(port=0))
        handle.stop()
        handle.service.close()  # second close must be a no-op
        assert handle.service.closed


class TestProtocol:
    def test_parse_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_parse_rejects_bad_scale(self):
        with pytest.raises(ProtocolError, match="scale"):
            parse_request({"op": "run", "scale": 99.0})

    def test_parse_rejects_bad_iterations(self):
        with pytest.raises(ProtocolError, match="iterations"):
            parse_request({"op": "run", "iterations": 0})

    def test_parse_rejects_empty_tenant(self):
        with pytest.raises(ProtocolError, match="tenant"):
            parse_request({"op": "run", "tenant": ""})

    def test_array_roundtrip_is_exact(self, rng):
        array = rng.random((5, 3))
        decoded = decode_array(encode_array(array))
        np.testing.assert_array_equal(decoded, array)
        assert array_digest(decoded) == array_digest(array)

    def test_digest_is_layout_invariant(self, rng):
        array = rng.random((6, 4))
        assert array_digest(array) \
            == array_digest(np.asfortranarray(array))

    def test_server_config_validation(self):
        with pytest.raises(ConfigError):
            ServerConfig(tenant_quota=10, max_queue=4)
        with pytest.raises(ConfigError):
            ServerConfig(port=99999)
        with pytest.raises(ConfigError):
            ServerConfig(retry_after_seconds=float("nan"))


class TestRunResultValue:
    def test_missing_variable_names_the_alternatives(self):
        _, result = _direct_run()
        with pytest.raises(KeyError) as excinfo:
            result.value("nonexistent")
        message = str(excinfo.value)
        assert "nonexistent" in message
        assert "available result variables" in message
        assert "x" in message
