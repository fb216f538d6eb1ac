"""Tests for :mod:`repro.serve.adminapi` — the typed ``/admin/*`` contract.

Unit level: schema round trips (including the ``max_latency_ratio``
tri-state), the exception→structured-error classification, and the shared
dispatch.  Golden level: the SAME requests against a live ``PECANServer`` and
a live ``PoolServer`` must produce the same structured wire shapes — the
whole point of sharing one schema module across every server.
"""

from __future__ import annotations

import http.client
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serve import PECANServer, PoolServer, ServeClient, ServeHTTPError
from repro.serve.adminapi import (ADMIN_VERBS, AdminError, DeployRequest,
                                  PromoteRequest, RollbackRequest,
                                  ScaleRequest, classify_error, dispatch_admin,
                                  error_payload, error_response,
                                  parse_admin_request)
from repro.serve.config import ServeConfig
from repro.serve.lifecycle import LifecycleError



# --------------------------------------------------------------------------- #
# Request schemas
# --------------------------------------------------------------------------- #
class TestSchemas:
    def test_deploy_round_trip(self):
        request = DeployRequest(name="m", path="/tmp/b.npz", version=3,
                                canary_fraction=0.5, min_samples=7,
                                max_parity_violations=1,
                                max_latency_ratio=2.0, auto=False)
        assert DeployRequest.from_payload(request.to_payload()) == request

    def test_deploy_latency_ratio_tri_state(self):
        # Absent -> the historical default of 3.0.
        assert DeployRequest.from_payload(
            {"name": "m", "path": "p"}).max_latency_ratio == 3.0
        # Explicit null -> the latency gate is disabled.
        assert DeployRequest.from_payload(
            {"name": "m", "path": "p",
             "max_latency_ratio": None}).max_latency_ratio is None

    def test_missing_fields_keep_legacy_messages(self):
        with pytest.raises(AdminError, match="deploy needs 'name' and 'path'"):
            DeployRequest.from_payload({"name": "m"})
        with pytest.raises(AdminError, match="promote needs 'name'"):
            PromoteRequest.from_payload({})
        with pytest.raises(AdminError, match="rollback needs 'name'"):
            RollbackRequest.from_payload({})
        try:
            PromoteRequest.from_payload({})
        except AdminError as exc:
            assert exc.status == 400 and exc.code == "bad-request"
            assert exc.reason == "missing-field"

    def test_scale_request_validation(self):
        assert ScaleRequest.from_payload({"workers": "3"}).workers == 3
        assert ScaleRequest.from_payload({"workers": 0}).reason == "operator"
        with pytest.raises(AdminError, match="non-negative"):
            ScaleRequest.from_payload({"workers": -1})
        with pytest.raises(AdminError, match="integer"):
            ScaleRequest.from_payload({"workers": "many"})

    def test_promote_rollback_round_trip(self):
        assert PromoteRequest.from_payload(
            PromoteRequest("m", 2).to_payload()) == PromoteRequest("m", 2)
        assert RollbackRequest.from_payload(
            RollbackRequest("m").to_payload()) == RollbackRequest("m")

    def test_parse_admin_request_paths_and_bodies(self):
        request = parse_admin_request("/admin/scale", b'{"workers": 2}')
        assert isinstance(request, ScaleRequest) and request.workers == 2
        with pytest.raises(AdminError, match="unknown admin path"):
            parse_admin_request("/admin/frobnicate", b"{}")
        with pytest.raises(AdminError, match="JSON object"):
            parse_admin_request("/admin/scale", b"[1]")
        try:
            parse_admin_request("/admin/scale", b"{nope")
        except AdminError as exc:
            assert exc.reason == "bad-json" and exc.status == 400
        assert set(ADMIN_VERBS) == {"deploy", "promote", "rollback", "scale",
                                    "status"}


class TestErrorClassification:
    def test_mapping_preserves_legacy_statuses(self):
        assert classify_error(LifecycleError("no rollout")).status == 400
        assert classify_error(ValueError("bad")).status == 400
        assert classify_error(FileNotFoundError("gone")).status == 400
        missing = classify_error(KeyError("'ghost'"))
        assert missing.status == 404 and missing.code == "not-found"
        assert str(missing) == "ghost"             # KeyError quoting stripped
        boom = classify_error(RuntimeError("boom"))
        assert boom.status == 500 and str(boom) == "RuntimeError: boom"
        assert boom.reason == "RuntimeError"

    def test_error_payload_keeps_legacy_error_key(self):
        payload = error_payload(AdminError("nope", status=404,
                                           code="not-found"))
        assert payload == {"error": "nope", "code": "not-found",
                           "reason": "not-found", "retry_after": None}

    def test_retry_after_becomes_a_header(self):
        status, body, headers = error_response(AdminError(
            "busy", status=503, code="unavailable", retry_after_s=1.0))
        assert status == 503 and headers["Retry-After"] == "1.000"
        assert json.loads(body)["retry_after"] == 1.0

    def test_unknown_code_is_rejected(self):
        with pytest.raises(ValueError, match="unknown admin error code"):
            AdminError("x", code="flaky")


class TestDispatch:
    def test_routes_to_handler_and_wraps_errors(self):
        calls = []
        status, body, _ = dispatch_admin(
            "/admin/promote", b'{"name": "m"}',
            {"promote": lambda r: calls.append(r) or {"ok": True}})
        assert status == 200 and json.loads(body) == {"ok": True}
        assert calls[0].name == "m"
        status, body, _ = dispatch_admin(
            "/admin/promote", b'{"name": "m"}',
            {"promote": lambda r: (_ for _ in ()).throw(KeyError("'m'"))})
        assert status == 404 and json.loads(body)["error"] == "m"

    def test_missing_handler_is_not_found(self):
        # The single server simply omits "scale"; the shared dispatch turns
        # that into the same 404 an unknown verb gets.
        status, body, _ = dispatch_admin("/admin/scale", b'{"workers": 1}', {})
        payload = json.loads(body)
        assert status == 404 and payload["code"] == "not-found"
        assert payload["error"] == "unknown admin path /admin/scale"


# --------------------------------------------------------------------------- #
# Golden test: both live servers answer with the same structured shapes
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def admin_bundle(toy_bundle) -> Path:
    return toy_bundle(7)


@pytest.fixture(scope="module")
def single_server(admin_bundle):
    server = PECANServer(config=ServeConfig.build(
        port=0, mmap=False))
    server.add_bundle(admin_bundle, name="m", preload=True)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def pool_server(admin_bundle):
    pool = PoolServer(config=ServeConfig.build(
        port=0, workers=1,
        **{"heartbeat_interval_s": 0.1}))
    pool.add_bundle(admin_bundle, name="m")
    pool.start()
    assert pool.wait_ready(120.0)
    yield pool
    pool.stop(drain=True)


def _post(url: str, path: str, body: bytes):
    host = url.split("//", 1)[1]
    connection = http.client.HTTPConnection(host, timeout=30.0)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


class TestGoldenAgainstBothServers:
    @pytest.fixture(params=["single", "pool"])
    def server_url(self, request, single_server, pool_server):
        return (single_server if request.param == "single"
                else pool_server).url

    def test_missing_name_is_the_same_structured_400(self, server_url):
        status, payload = _post(server_url, "/admin/promote", b"{}")
        assert status == 400
        assert payload["error"] == "promote needs 'name'"
        assert payload["code"] == "bad-request"
        assert payload["reason"] == "missing-field"
        assert payload["retry_after"] is None

    def test_unknown_verb_is_the_same_structured_404(self, server_url):
        status, payload = _post(server_url, "/admin/frobnicate", b"{}")
        assert status == 404
        assert payload["error"] == "unknown admin path /admin/frobnicate"
        assert payload["code"] == "not-found"

    def test_unknown_model_maps_keyerror_to_not_found(self, server_url):
        status, payload = _post(server_url, "/admin/promote",
                                json.dumps({"name": "ghost"}).encode())
        assert status == 404 and payload["code"] == "not-found"
        assert "ghost" in payload["error"]
        assert payload["reason"] in ("KeyError", "not-found")

    def test_bad_json_body_is_the_same_structured_400(self, server_url):
        status, payload = _post(server_url, "/admin/deploy", b"{nope")
        assert status == 400 and payload["code"] == "bad-request"
        assert payload["reason"] == "bad-json"

    def test_client_surfaces_code_and_reason(self, server_url):
        client = ServeClient(server_url)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.promote("ghost")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

    def test_deploy_promote_rollback_happy_path(self, server_url,
                                                admin_bundle):
        client = ServeClient(server_url, timeout_s=120.0)
        response = client.deploy("m", str(admin_bundle), auto=False,
                                 canary_fraction=0.0)
        assert response["deployed"].startswith("m@")
        promoted = client.promote("m")
        assert promoted["active_version"] >= 2
        rolled = client.rollback("m")
        assert rolled["active_version"] == 1
        x = np.zeros((1, 1, 10, 10))
        assert np.asarray(client.predict(x, model="m")).shape == (1, 6)

    def test_scale_verb_only_exists_on_pools(self, single_server, pool_server):
        status, payload = _post(single_server.url, "/admin/scale",
                                b'{"workers": 1}')
        assert status == 404 and payload["code"] == "not-found"
        status, payload = _post(pool_server.url, "/admin/scale",
                                b'{"workers": 1}')
        assert status == 200 and payload["workers"] == 1
        status, payload = _post(pool_server.url, "/admin/scale",
                                b'{"workers": -2}')
        assert status == 400 and payload["reason"] == "bad-field"
