"""Tests for :mod:`repro.serve.federation` — multi-pool consistent-hash
federation.

Unit level pins the :class:`HashRing` guarantees (deterministic across
processes, minimal remap when a member leaves, full failover order) and
:class:`MemberPool` address parsing.  End-to-end, a :class:`FrontRouter`
over two live servers must shard namespaces, proxy byte-compatibly
(bitwise-identical predictions), fail over when a member dies without
losing retryable requests, merge ``/metrics``/``/models``/``/trace``
causally, and route admin verbs to the member owning the named model.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.io import export_deployment_bundle
from repro.serve import BundleEngine, PECANServer, ServeClient, ServeHTTPError
from repro.serve.cache import consistent_ring_points, stable_route_hash
from repro.serve.config import ServeConfig
from repro.serve.federation import FrontRouter, HashRing, MemberPool
from repro.serve.pool import PoolServer

from tests.test_serve_pool import small_model


# --------------------------------------------------------------------------- #
# HashRing (pure logic)
# --------------------------------------------------------------------------- #
MEMBERS = ("127.0.0.1:8001", "127.0.0.1:8002", "127.0.0.1:8003")
NAMES = [f"model_{i}" for i in range(200)]


class TestHashRing:
    def test_ring_is_deterministic_across_instances(self):
        first = HashRing(MEMBERS, replicas=64)
        second = HashRing(tuple(MEMBERS), replicas=64)
        assert [first.lookup(name) for name in NAMES] \
            == [second.lookup(name) for name in NAMES]

    def test_ring_points_are_stable_hashes(self):
        points = consistent_ring_points("127.0.0.1:8001", 4)
        assert points == [stable_route_hash(f"127.0.0.1:8001#{i}")
                          for i in range(4)]

    def test_namespaces_spread_over_members(self):
        ring = HashRing(MEMBERS, replicas=64)
        owners = {member: 0 for member in MEMBERS}
        for name in NAMES:
            owners[ring.lookup(name)] += 1
        assert all(count > 0 for count in owners.values())

    def test_member_loss_remaps_only_the_lost_arcs(self):
        ring = HashRing(MEMBERS, replicas=64)
        before = {name: ring.lookup(name) for name in NAMES}
        dead = MEMBERS[0]
        moved = 0
        for name in NAMES:
            after = ring.lookup(name, exclude=(dead,))
            if after != before[name]:
                moved += 1
                # Only keys the dead member owned may move — the consistent
                # hashing guarantee the federation's failover leans on.
                assert before[name] == dead
        assert moved == sum(1 for owner in before.values() if owner == dead)

    def test_preference_covers_every_member_once(self):
        ring = HashRing(MEMBERS, replicas=8)
        for name in NAMES[:20]:
            order = ring.preference(name)
            assert sorted(order) == sorted(MEMBERS)
            assert order[0] == ring.lookup(name)

    def test_all_excluded_returns_none(self):
        ring = HashRing(MEMBERS)
        assert ring.lookup("m", exclude=MEMBERS) is None

    def test_rejects_empty_and_duplicate_members(self):
        with pytest.raises(ValueError, match="at least one member"):
            HashRing(())
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(("a:1", "a:1"))


class TestMemberPool:
    def test_parses_bare_and_scheme_urls(self):
        assert MemberPool("http://127.0.0.1:8080").url == "127.0.0.1:8080"
        member = MemberPool("localhost:9000/")
        assert member.host == "localhost" and member.port == 9000
        assert member.up and member.failures == 0

    def test_rejects_paths_and_missing_ports(self):
        with pytest.raises(ValueError, match="host:port"):
            MemberPool("http://127.0.0.1:8080/admin")
        with pytest.raises(ValueError, match="host:port"):
            MemberPool("justahost")


# --------------------------------------------------------------------------- #
# Two-member federation, end to end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fed_bundle(tmp_path_factory) -> Path:
    rng = np.random.default_rng(11)
    return export_deployment_bundle(
        small_model(rng), tmp_path_factory.mktemp("federation") / "toy.npz",
        input_shape=(1, 10, 10))


#: Enough distinct model names that both members own at least one namespace.
MODEL_NAMES = [f"fed_model_{i}" for i in range(8)]


@pytest.fixture(scope="module")
def federation(fed_bundle):
    """Two single-process members (each serving every model, so any member
    can answer any namespace after a failover) behind one FrontRouter."""
    members = []
    for _ in range(2):
        server = PECANServer(config=ServeConfig.build(
            port=0, mmap=False))
        for name in MODEL_NAMES:
            server.add_bundle(fed_bundle, name=name, preload=True)
        server.start()
        members.append(server)
    config = ServeConfig.build(
        port=0,
        **{"federation.members": tuple(f"127.0.0.1:{m.port}"
                                       for m in members),
           "federation.probe_interval_s": 0.2})
    front = FrontRouter(config).start()
    yield front, members
    front.stop()
    for member in members:
        member.stop()


def _member_for(front: FrontRouter, model: str) -> MemberPool:
    return front.route_for(model)[0]


class TestFederationServing:
    def test_predictions_proxy_bitwise_identically(self, federation,
                                                   fed_bundle):
        front, _ = federation
        engine = BundleEngine(fed_bundle)
        client = ServeClient(front.url)
        x = np.random.default_rng(1).standard_normal((3, 1, 10, 10))
        for model in MODEL_NAMES[:4]:
            np.testing.assert_array_equal(client.predict(x, model=model),
                                          engine.predict(x))

    def test_namespaces_shard_across_both_members(self, federation):
        front, _ = federation
        # 8 real models can legitimately all hash to one member; over a
        # large namespace universe both members must own arcs of the ring.
        owners = {_member_for(front, f"shard_probe_{i}").url
                  for i in range(200)}
        assert len(owners) == 2, "200 namespaces all landed on one member"

    def test_requests_land_on_the_ring_owner(self, federation):
        front, _ = federation
        client = ServeClient(front.url)
        model = MODEL_NAMES[0]
        owner = _member_for(front, model)
        before = owner.proxied
        x = np.zeros((1, 1, 10, 10))
        for _ in range(3):
            client.predict(x, model=model)
        assert owner.proxied >= before + 3

    def test_versioned_names_share_the_base_namespace(self, federation):
        front, _ = federation
        model = MODEL_NAMES[1]
        assert _member_for(front, model).url \
            == _member_for(front, f"{model}@v2").url \
            == _member_for(front, f"{model}@v7").url

    def test_health_and_models_merge_members(self, federation):
        front, _ = federation
        client = ServeClient(front.url)
        health = client.healthz()
        assert health["status"] == "ok" and len(health["members"]) == 2
        models = client.models()
        for model in MODEL_NAMES:
            assert model in models["models"]
        assert len(models["members"]) == 2

    def test_metrics_merge_front_and_members(self, federation):
        front, _ = federation
        metrics = ServeClient(front.url).metrics()
        assert "front" in metrics and "federation" in metrics
        assert len(metrics["members"]) == 2
        for payload in metrics["members"].values():
            assert "server" in payload       # the member's own full snapshot

    def test_trace_merges_member_spans_causally(self, federation):
        front, _ = federation
        client = ServeClient(front.url)
        x = np.zeros((1, 1, 10, 10))
        response = client.predict_response(x, model=MODEL_NAMES[2])
        trace_id = response["trace_id"]
        merged = client.trace(trace_id)
        names = [span.get("name") for span in merged["spans"]]
        services = {span.get("service") for span in merged["spans"]}
        assert "front.proxy" in names        # the front's hop span
        assert "server.predict" in names     # the member's serving spans
        assert {"front", "server"} <= services
        # Causal order: the front's proxy span starts before the member
        # spans it caused (Lamport clocks folded at every boundary).
        assert names.index("front.proxy") < names.index("server.predict")

    def test_admin_verbs_route_to_the_owning_member(self, federation,
                                                    fed_bundle):
        front, members = federation
        client = ServeClient(front.url, timeout_s=120.0)
        model = MODEL_NAMES[3]
        owner_url = _member_for(front, model).url
        owner = next(m for m in members if f"127.0.0.1:{m.port}" == owner_url)
        other = next(m for m in members if f"127.0.0.1:{m.port}" != owner_url)

        response = client.deploy(model, str(fed_bundle), auto=False,
                                 canary_fraction=0.0)
        assert response["deployed"] == f"{model}@v2"
        # The verb landed on the ring owner, not the other member.
        assert sorted(owner.registry.versions_of(model)) == [1, 2]
        assert sorted(other.registry.versions_of(model)) == [1]
        client.promote(model)
        assert owner.registry.active_version(model) == 2
        client.rollback(model)
        assert owner.registry.active_version(model) == 1

    def test_admin_posts_ride_one_shot_connections(self, federation,
                                                   fed_bundle):
        # A stale kept-alive socket must never make a deploy ambiguous, so
        # each admin POST opens (and closes) its own connection: exactly
        # one accept on the member per verb.  The front never probes here,
        # so its admin hops are the member's only new connections.
        _, members = federation
        front = FrontRouter(ServeConfig.build(
            port=0, **{"federation.members": tuple(f"127.0.0.1:{m.port}"
                                                   for m in members),
                       "federation.probe_interval_s": 3600.0})).start()
        try:
            client = ServeClient(front.url, timeout_s=120.0)
            model = MODEL_NAMES[6]
            owner_url = _member_for(front, model).url
            owner = next(m for m in members
                         if f"127.0.0.1:{m.port}" == owner_url)
            verbs = (lambda: client.deploy(model, str(fed_bundle), auto=False,
                                           canary_fraction=0.0),
                     lambda: client.promote(model),
                     lambda: client.rollback(model))
            for verb in verbs:
                before = owner.frontend_snapshot()["accepted_total"]
                verb()
                assert owner.frontend_snapshot()["accepted_total"] \
                    == before + 1
            assert front._connections.idle == {}
            client.close()
        finally:
            front.stop()

    def test_admin_errors_pass_through_byte_compatibly(self, federation):
        front, _ = federation
        client = ServeClient(front.url)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.promote("ghost_model")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

    def test_scale_broadcasts_to_every_member(self, federation):
        front, _ = federation
        client = ServeClient(front.url)
        response = client.scale(2)
        assert len(response["members"]) == 2
        # Single-process members do not implement scale: the broadcast
        # reports each member's own structured 404 rather than failing.
        for result in response["members"].values():
            assert result["status"] == 404
            assert result["code"] == "not-found"


class TestFederationFailover:
    @pytest.fixture()
    def failover_setup(self, fed_bundle):
        members = []
        for _ in range(2):
            server = PECANServer(
                config=ServeConfig.build(port=0, mmap=False))
            for name in MODEL_NAMES:
                server.add_bundle(fed_bundle, name=name, preload=True)
            server.start()
            members.append(server)
        config = ServeConfig.build(
            port=0,
            **{"federation.members": tuple(f"127.0.0.1:{m.port}"
                                           for m in members),
               "federation.probe_interval_s": 0.1})
        front = FrontRouter(config).start()
        yield front, members
        front.stop()
        for member in members:
            try:
                member.stop()
            except Exception:       # noqa: BLE001 - one is already dead
                pass

    def test_member_death_fails_over_without_losing_requests(
            self, failover_setup, fed_bundle):
        front, members = failover_setup
        engine = BundleEngine(fed_bundle)
        client = ServeClient(front.url, timeout_s=60.0)
        x = np.random.default_rng(2).standard_normal((2, 1, 10, 10))
        expected = engine.predict(x)

        # Kill whichever member the ring says owns this model's namespace.
        model = MODEL_NAMES[0]
        victim_url = _member_for(front, model).url
        victim = next(m for m in members
                      if f"127.0.0.1:{m.port}" == victim_url)
        np.testing.assert_array_equal(client.predict(x, model=model), expected)

        victim.stop()
        # Every request after the death still succeeds, served by the
        # survivor: connection failures fail over, and nothing is lost.
        for _ in range(5):
            np.testing.assert_array_equal(
                client.predict(x, model=model), expected)
        assert front.failovers_total >= 1
        survivor_server = next(m for m in members if m is not victim)
        survivor = front.members[f"127.0.0.1:{survivor_server.port}"]
        assert survivor.proxied >= 5

        health = front.health_snapshot()
        assert health["status"] == "ok"      # degraded only when ALL are down
        assert health["members"][victim_url] is False

    def test_draining_member_fails_over_to_the_next(self, fed_bundle):
        # A stopping pool refuses /predict with 503 reason=draining before it
        # dispatches anything, so the front retries the next member.  The
        # draining pool binds only its router (no workers); the prober never
        # runs, so the front's first pick is the ring owner.
        draining = PoolServer(config=ServeConfig.build(port=0, workers=1))
        draining._draining = True
        draining._bind()
        survivor = PECANServer(
            config=ServeConfig.build(port=0, mmap=False)).start()
        front = None
        try:
            draining_url = f"127.0.0.1:{draining.port}"
            config = ServeConfig.build(
                port=0,
                **{"federation.members": (draining_url,
                                          f"127.0.0.1:{survivor.port}"),
                   "federation.probe_interval_s": 3600.0})
            front = FrontRouter(config).start()
            model = next(name for name in (f"drain_model_{i}"
                                           for i in range(1000))
                         if _member_for(front, name).url == draining_url)
            survivor.add_bundle(fed_bundle, name=model, preload=True)
            x = np.random.default_rng(4).standard_normal((2, 1, 10, 10))
            client = ServeClient(front.url, timeout_s=30.0, backoff_retries=0)
            np.testing.assert_array_equal(client.predict(x, model=model),
                                          BundleEngine(fed_bundle).predict(x))
            assert front.failovers_total == 1
            assert front.members[draining_url].up is False
        finally:
            if front is not None:
                front.stop()
            survivor.stop()
            draining.stop()

    def test_other_503_replies_reach_the_client(self, failover_setup,
                                                monkeypatch):
        # Only a draining refusal is retried: any other 503 (a brownout
        # shed, say) may follow engine work and passes through untouched.
        front, members = failover_setup
        model = MODEL_NAMES[0]
        owner_url = _member_for(front, model).url
        owner = next(m for m in members
                     if f"127.0.0.1:{m.port}" == owner_url)
        monkeypatch.setattr(owner, "predict_http", lambda headers, body: (
            503, b'{"error": "shed", "reason": "brownout:critical"}', {}))
        client = ServeClient(front.url, timeout_s=30.0, backoff_retries=0)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.predict(np.zeros((1, 1, 10, 10)), model=model)
        assert excinfo.value.status == 503
        assert excinfo.value.reason == "brownout:critical"
        assert front.failovers_total == 0

    def test_all_members_down_is_a_structured_503(self, failover_setup):
        front, members = failover_setup
        for member in members:
            member.stop()
        client = ServeClient(front.url, timeout_s=30.0, backoff_retries=1)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.predict(np.zeros((1, 1, 10, 10)), model=MODEL_NAMES[0])
        assert excinfo.value.status == 503
        assert "no live member" in str(excinfo.value)
