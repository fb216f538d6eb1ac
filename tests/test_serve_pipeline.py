"""The shared ``/predict`` pipeline: one wire contract for every front door.

``PECANServer`` and ``PoolServer`` run the same decode → cache/coalesce →
dispatch → verify → reply steps (:mod:`repro.serve.pipeline`), so the same
request matrix must get the same status codes, error-body keys, trace echo
and cache verdicts from both.  Nothing here depends on wall-clock timing.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.io import export_deployment_bundle
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import (BundleEngine, PECANServer, PoolServer, ServeConfig,
                         canonical_response_bytes)
from repro.serve.cache import canonical_input_hash, canonical_num_samples
from repro.serve.pipeline import decode_predict_body
from repro.serve.trace import LAMPORT_HEADER, TRACE_HEADER, new_trace_id


def small_model(seed: int = 0):
    rng = np.random.default_rng(seed)
    cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
    model = Sequential(
        Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * 4 * 4, 6, rng=rng),
    )
    return convert_to_pecan(model, cfg, rng=rng)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    return export_deployment_bundle(small_model(), root / "m.npz",
                                    input_shape=(1, 10, 10))


@pytest.fixture(scope="module")
def server(bundle):
    server = PECANServer(config=ServeConfig.build(
        port=0, mmap=False, cache_mb=8.0))
    server.add_bundle(bundle, name="m", preload=True)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def pool(bundle):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=1, heartbeat_interval_s=0.1, heartbeat_timeout_s=5.0,
        cache_mb=8.0, cache_check_every=0))
    pool.add_bundle(bundle, name="m")
    pool.start()
    assert pool.wait_ready(120.0), "pool worker never became ready"
    yield pool
    pool.stop(drain=True)


def post(port: int, body: bytes, headers=None):
    """POST raw bytes to ``/predict``: ``(status, body_dict, headers)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        connection.request("POST", "/predict", body=body,
                           headers={"Content-Type": "application/json",
                                    **(headers or {})})
        response = connection.getresponse()
        return (response.status, json.loads(response.read()),
                {key.lower(): value for key, value in response.getheaders()})
    finally:
        connection.close()


@pytest.mark.parametrize("body", [b'"inputs"', b'["inputs"]', b"5"],
                         ids=["string", "list", "number"])
@pytest.mark.parametrize("door", ["server", "pool"])
def test_non_object_json_body_is_400(request, door, body):
    """Valid JSON that is not an object is a client error at every front
    door (the single server used to answer 500 for a string or a list)."""
    port = request.getfixturevalue(door).port
    trace_id = new_trace_id()
    status, reply, headers = post(port, body, {TRACE_HEADER: trace_id})
    assert status == 400
    assert "JSON object" in reply["error"]
    assert reply["trace_id"] == trace_id
    assert headers[TRACE_HEADER.lower()] == trace_id


@pytest.mark.parametrize("door", ["server", "pool"])
def test_bodies_are_utf8_json(request, door, bundle):
    """JSON on the wire is UTF-8 (RFC 8259), with or without a BOM and
    trailing whitespace.  The pool splices its hop fields onto the client's
    own bytes, so every door refuses a UTF-16 body alike."""
    port = request.getfixturevalue(door).port
    x = np.random.default_rng(9).normal(size=(1, 1, 10, 10))
    text = json.dumps({"inputs": x.tolist(), "model": "m", "no_cache": True})
    status, reply, _ = post(port, b"\xef\xbb\xbf" + text.encode() + b"\r\n")
    assert status == 200
    np.testing.assert_array_equal(reply["outputs"],
                                  BundleEngine(bundle).predict(x))
    status, reply, _ = post(port, text.encode("utf-16"))
    assert status == 400 and "error" in reply


@pytest.mark.parametrize("door", ["server", "pool"])
def test_json_floats_ints_and_ndarray_are_one_input(request, door, bundle):
    """One tensor sent as JSON floats, as JSON ints (with ``-0``, which
    ``json.loads`` reads as the int 0) and as an ndarray through the Python
    ``predict`` API: one canonical hash, bitwise one output, and the second
    and third sends are cache hits.  Malformed bodies keep their exact 400
    message."""
    door = request.getfixturevalue(door)
    x = np.random.default_rng(11).integers(-3, 4, size=(2, 1, 10, 10)).astype(float)
    floats = json.dumps({"inputs": x.tolist(), "model": "m"}).encode()
    ints = json.dumps({"inputs": x.astype(int).tolist(), "model": "m"}).encode()
    ints = ints.replace(b" 0,", b" -0,")
    assert b"-0," in ints
    hashes = {canonical_input_hash(decode_predict_body(body)["inputs"])
              for body in (floats, ints)}
    assert hashes == {canonical_input_hash(x)}
    status, fill, _ = post(door.port, floats)
    assert status == 200 and "cached" not in fill
    status, hit, _ = post(door.port, ints)
    assert status == 200 and hit["cached"] is True
    in_process = door.predict(x, model="m")
    assert in_process["cached"] is True
    expected = BundleEngine(bundle).predict(x).view(np.uint64)
    for reply in (fill, hit, in_process):
        assert (np.asarray(reply["outputs"]).view(np.uint64) == expected).all()

    for body in (b'{"inputs": [1, 2', b'{"inputs": [[1.5, 2], [3]], "model": "m"}'):
        with pytest.raises(ValueError) as refused:
            np.asarray(json.loads(body)["inputs"], dtype=np.float64)
        status, reply, _ = post(door.port, body)
        assert status == 400 and reply["error"] == str(refused.value)


def run_matrix(port: int):
    """The contract request matrix against one server: ``{case: reply}``."""
    x = np.random.default_rng(5).normal(size=(2, 1, 10, 10)).tolist()
    cases = {
        "malformed_json": b"{not json",
        "missing_inputs": json.dumps({"model": "m"}).encode(),
        "bad_priority": json.dumps({"inputs": x, "priority": "vip"}).encode(),
        "unknown_model": json.dumps({"inputs": x, "model": "ghost"}).encode(),
        "fill": json.dumps({"inputs": x, "model": "m"}).encode(),
        "hit": json.dumps({"inputs": x, "model": "m"}).encode(),
        "no_cache": json.dumps({"inputs": x, "model": "m"}).encode(),
    }
    replies = {}
    for case, body in cases.items():
        trace_id = new_trace_id()
        headers = {TRACE_HEADER: trace_id}
        if case == "no_cache":
            headers["X-No-Cache"] = "1"
        replies[case] = (trace_id, *post(port, body, headers))
    return replies


class TestSharedContract:
    EXPECTED_STATUS = {"malformed_json": 400, "missing_inputs": 400,
                       "bad_priority": 400, "unknown_model": 404,
                       "fill": 200, "hit": 200, "no_cache": 200}

    @pytest.fixture(scope="class")
    def matrices(self, server, pool):
        return {"server": run_matrix(server.port), "pool": run_matrix(pool.port)}

    def test_status_codes_and_body_keys_match(self, matrices):
        server, pool = matrices["server"], matrices["pool"]
        for case, status in self.EXPECTED_STATUS.items():
            assert server[case][1] == pool[case][1] == status, case
            assert sorted(server[case][2]) == sorted(pool[case][2]), case

    def test_trace_id_echo_and_lamport_header(self, matrices):
        for door, replies in matrices.items():
            for case, (trace_id, _, reply, headers) in replies.items():
                assert reply["trace_id"] == trace_id, (door, case)
                assert headers[TRACE_HEADER.lower()] == trace_id, (door, case)
                assert int(headers[LAMPORT_HEADER.lower()]) >= 0, (door, case)

    def test_hit_is_flagged_and_bitwise_equal_to_the_fill(self, matrices):
        fills = []
        for door, replies in matrices.items():
            fill, hit, forced = (replies[case][2]
                                 for case in ("fill", "hit", "no_cache"))
            assert "cached" not in fill and "cached" not in forced, door
            assert hit["cached"] is True, door
            assert hit["queue_ms"] == 0.0 and hit["model"] == "m", door
            for other in (hit, forced):
                assert (np.asarray(other["outputs"]).view(np.uint64)
                        == np.asarray(fill["outputs"]).view(np.uint64)).all()
            fills.append(fill["outputs"])
        assert fills[0] == fills[1]            # server and pool agree too


def test_in_process_predict_keeps_its_contract(server):
    """``PECANServer.predict`` returns a dict (hits included) and raises
    typed exceptions; the HTTP path shares its pipeline."""
    x = np.random.default_rng(6).normal(size=(1, 10, 10))
    fresh = server.predict(x, model="m")
    hit = server.predict(x, model="m")
    assert isinstance(hit, dict) and hit["cached"] is True
    assert hit["outputs"] == fresh["outputs"]
    assert hit["trace_id"] != fresh["trace_id"]
    with pytest.raises(KeyError):
        server.predict(x, model="ghost")
    with pytest.raises(ValueError):
        server.predict(np.zeros((1, 3, 3)), model="m")


def test_canonical_num_samples_reads_the_last_field():
    for samples in (1, 3, 128):
        canonical = canonical_response_bytes(
            {"outputs": [[0.5]] * samples, "classes": [0] * samples,
             "num_samples": samples})
        assert canonical_num_samples(canonical) == samples
