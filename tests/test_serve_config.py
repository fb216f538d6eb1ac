"""Tests for :mod:`repro.serve.config` — the layered serving configuration.

The contract under test: ``ServeConfig`` is the one constructor argument for
every server (flat keyword arguments are a ``TypeError``), every
``repro-pecan serve`` flag is generated from field metadata, argv ⇄ config ⇄
JSON round trips are exact (property-tested), and ``--config`` files compose
with explicit flags at the documented precedence.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.serve.config import (SECTION_ORDER, ServeConfig,
                                add_serve_arguments, config_reference_table,
                                flag_specs,
                                from_json_dict, iter_serve_fields,
                                load_config_file, serve_config_from_args,
                                serve_config_to_args, to_json_dict)

#: Every `repro-pecan serve` flag that existed before the flag table was
#: generated, with the argparse default the hand-written parser used.  The
#: generated parser must keep accepting ALL of them, at the same defaults —
#: this is the backwards-compatibility golden test the PR promises.
PRE_EXISTING_FLAGS = {
    "--bundle": None,                 # append action: absent -> None
    "--host": "127.0.0.1",
    "--port": 8080,
    "--max_batch_size": 32,
    "--max_queue": 256,
    "--timeout_s": 30.0,
    "--batch_chunk": None,
    "--audit_every": 0,
    "--max_total_values": None,
    "--lazy_load": False,
    "--optimize": False,
    "--workers": 1,
    "--policy": "least_outstanding",
    "--heartbeat_interval_s": 0.25,
    "--heartbeat_timeout_s": 3.0,
    "--no_mmap": False,
    "--emulate_hardware_hz": None,
    "--slots_per_worker": 4,
    "--max_waiting": 256,
    "--tenant_rate": None,
    "--tenant_burst": 8.0,
    "--queue_high": 32.0,
    "--p99_slo_ms": None,
    "--batch_class_samples": None,
    "--trace_dir": None,
    "--no_trace": False,
    "--invariant_every": 16,
    "--cache_mb": 64.0,
    "--cache_check_every": 64,
    "--max_connections": 512,
    "--idle_timeout_s": 30.0,
    "--request_read_timeout_s": 10.0,
}


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="serve-test")
    add_serve_arguments(parser)
    return parser


# --------------------------------------------------------------------------- #
# Golden test: the generated parser is a superset of the old hand-written one
# --------------------------------------------------------------------------- #
class TestPreExistingFlagParity:
    def test_every_old_flag_still_parses_with_its_old_default(self):
        args = _serve_parser().parse_args([])
        for flag, default in PRE_EXISTING_FLAGS.items():
            dest = flag.lstrip("-")
            assert hasattr(args, dest), f"{flag} vanished from the parser"
            assert getattr(args, dest) == default, flag

    def test_old_flags_accept_values_through_the_real_cli(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--bundle", "m=toy.npz", "--host", "0.0.0.0",
            "--port", "9000", "--max_batch_size", "8",
            "--max_queue", "64", "--timeout_s", "5", "--workers", "3",
            "--policy", "cache_affinity", "--no_mmap", "--cache_mb", "0",
            "--no_trace", "--lazy_load", "--optimize",
            "--p99_slo_ms", "50", "--tenant_rate", "10"])
        config = serve_config_from_args(args)
        assert config.net.host == "0.0.0.0" and config.net.port == 9000
        assert config.engine.max_batch_size == 8
        assert config.engine.max_queue_depth == 64
        assert config.engine.request_timeout_s == 5.0
        assert config.pool.workers == 3
        assert config.pool.policy == "cache_affinity"
        assert config.engine.mmap is False and config.engine.mmap_mode is None
        assert config.cache.cache_mb == 0.0
        assert config.trace.enabled is False
        assert config.lifecycle.preload is False    # --lazy_load inverts
        assert config.engine.optimize is True
        assert config.qos.p99_slo_ms == 50.0 and config.qos.tenant_rate == 10.0
        assert config.lifecycle.bundles == ("m=toy.npz",)

    def test_every_config_field_declares_serve_metadata(self):
        # flag_specs raises on a bare field; walking every section proves the
        # no-drift guarantee holds for the whole tree.
        names = {f"{section}.{spec.name}"
                 for section, spec in iter_serve_fields()}
        assert len(names) > 50
        assert "autoscale.enabled" in names and "lifecycle.bundles" in names

    def test_reference_table_covers_every_flag(self):
        table = config_reference_table()
        for section, spec in iter_serve_fields():
            if spec.flag:
                assert spec.flag in table, spec.flag
            assert f"`{spec.name}`" in table

    def test_readme_holds_the_generated_reference_table(self):
        # The README's configuration table is this function's output pasted
        # verbatim, from the blank line after its summary to the closing
        # tag; a field added, removed or re-documented must be pasted again.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = "\n\n" + config_reference_table() + "</details>"
        assert block in readme.read_text(encoding="utf-8")


# --------------------------------------------------------------------------- #
# Property tests: argv ⇄ config and JSON ⇄ config round trips
# --------------------------------------------------------------------------- #
def _value_strategy(spec):
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.invert or spec.is_bool:
        return st.booleans()
    token = st.text(alphabet="abcdefghij0123456789_", min_size=1, max_size=8)
    if spec.repeatable:
        return st.lists(token, min_size=1, max_size=3).map(tuple)
    if spec.parse is int:
        return st.integers(min_value=0, max_value=10_000)
    if spec.parse is float:
        return st.floats(min_value=0.001, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
    return token


#: (section, spec) for every field expressible on the command line.
_FLAGGED = [(section, spec) for section, spec in iter_serve_fields()
            if spec.flag is not None]


@st.composite
def config_overrides(draw):
    chosen = draw(st.lists(st.sampled_from(range(len(_FLAGGED))),
                           min_size=0, max_size=8, unique=True))
    overrides = []
    for index in chosen:
        section, spec = _FLAGGED[index]
        overrides.append((section, spec, draw(_value_strategy(spec))))
    return overrides


class TestRoundTrips:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config_overrides())
    def test_argv_round_trip_is_exact(self, overrides):
        config = ServeConfig()
        for section, spec, value in overrides:
            setattr(getattr(config, section), spec.name, value)
        argv = serve_config_to_args(config)
        parsed = _serve_parser().parse_args(argv)
        rebuilt = serve_config_from_args(parsed)
        assert to_json_dict(rebuilt) == to_json_dict(config)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config_overrides())
    def test_json_round_trip_is_exact(self, overrides):
        config = ServeConfig()
        for section, spec, value in overrides:
            setattr(getattr(config, section), spec.name, value)
        # Through real JSON text, not just the dict: what a --config file sees.
        rebuilt = from_json_dict(json.loads(json.dumps(to_json_dict(config))))
        assert to_json_dict(rebuilt) == to_json_dict(config)

    def test_default_config_renders_no_argv(self):
        assert serve_config_to_args(ServeConfig()) == []

    def test_config_file_only_fields_refuse_argv(self):
        config = ServeConfig.build(**{"pool.start_method": "fork"})
        with pytest.raises(ValueError, match="no CLI flag"):
            serve_config_to_args(config)

    def test_unknown_json_section_and_field_raise(self):
        with pytest.raises(ValueError, match="unknown config section"):
            from_json_dict({"warp": {}})
        with pytest.raises(ValueError, match="unknown field net.speed"):
            from_json_dict({"net": {"speed": 11}})


# --------------------------------------------------------------------------- #
# --config files and precedence
# --------------------------------------------------------------------------- #
class TestConfigFile:
    def test_precedence_defaults_then_file_then_flags(self, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps({
            "net": {"port": 9100, "max_connections": 99},
            "engine": {"max_batch_size": 8},
            "autoscale": {"enabled": True, "max_workers": 6},
        }))
        parser = _serve_parser()
        args = parser.parse_args(["--config", str(path),
                                  "--max_batch_size", "16"])
        config = serve_config_from_args(args)
        assert config.net.port == 9100                 # file beats default
        assert config.net.max_connections == 99
        assert config.engine.max_batch_size == 16      # flag beats file
        assert config.autoscale.enabled and config.autoscale.max_workers == 6
        assert config.engine.max_queue_depth == 256    # untouched default

    def test_load_config_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config_file(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config_file(path)


# --------------------------------------------------------------------------- #
# ServeConfig.build / replace
# --------------------------------------------------------------------------- #
class TestBuild:
    def test_flat_and_dotted_names(self):
        config = ServeConfig.build(port=0, workers=4, cache_mb=8.0,
                                   **{"trace.enabled": False})
        assert config.net.port == 0 and config.pool.workers == 4
        assert config.cache.cache_mb == 8.0 and config.trace.enabled is False

    def test_ambiguous_name_requires_dotting(self):
        # "enabled" lives on trace and autoscale.
        with pytest.raises(TypeError, match="ambiguous"):
            ServeConfig.build(enabled=False)
        config = ServeConfig.build(**{"autoscale.enabled": True})
        assert config.autoscale.enabled is True and config.trace.enabled is True

    def test_unknown_name_raises(self):
        with pytest.raises(TypeError, match="unknown config field"):
            ServeConfig.build(warp_speed=11)
        with pytest.raises(TypeError, match="unknown config field"):
            ServeConfig.build(**{"net.warp": 1})

    def test_replace_is_a_deep_copy(self):
        base = ServeConfig.build(port=1234)
        changed = base.replace(**{"trace.enabled": False, "workers": 8})
        assert base.pool.workers == 1 and base.trace.enabled is True
        assert changed.pool.workers == 8 and changed.trace.enabled is False
        assert changed.net.port == 1234


# --------------------------------------------------------------------------- #
# One constructor
# --------------------------------------------------------------------------- #
class TestOneConstructor:
    def test_flat_kwargs_are_a_type_error(self):
        from repro.serve import PECANServer, PoolServer

        with pytest.raises(TypeError):
            PECANServer(port=0)
        with pytest.raises(TypeError):
            PECANServer(None, "127.0.0.1")
        with pytest.raises(TypeError):
            PoolServer(workers=4)

    def test_bare_constructors_use_the_config_defaults(self):
        from repro.serve import PECANServer, PoolServer

        server = PECANServer()
        pool = PoolServer()
        assert server.config == ServeConfig() and pool.config == ServeConfig()
        assert server.cache is not None and pool.cache is not None
        assert server.registry.mmap_mode == "r"        # engine.mmap default
        assert pool.num_workers == 1
        server.stop()


# --------------------------------------------------------------------------- #
# Section sanity
# --------------------------------------------------------------------------- #
class TestSections:
    def test_autoscale_floor_and_ceiling(self):
        from repro.serve.config import AutoscaleConfig

        assert AutoscaleConfig().floor() == 1
        assert AutoscaleConfig(scale_to_zero=True).floor() == 0
        assert AutoscaleConfig(min_workers=2).floor() == 2
        assert AutoscaleConfig(scale_to_zero=True, min_workers=0).floor() == 0
        assert AutoscaleConfig().ceiling(start_workers=4) == 4
        assert AutoscaleConfig(max_workers=8).ceiling(start_workers=2) == 8
        assert AutoscaleConfig(max_workers=0).ceiling(start_workers=0) == 1

    def test_flag_collision_detection_is_active(self):
        # Two sections exposing the same dest must be rejected at parser
        # build time; the real tree has no collisions.
        parser = argparse.ArgumentParser()
        add_serve_arguments(parser)                    # must not raise
        seen = set()
        for _, spec in iter_serve_fields():
            if spec.dest is not None:
                assert spec.dest not in seen
                seen.add(spec.dest)

    def test_section_order_matches_serveconfig_fields(self):
        assert [name for name, _ in SECTION_ORDER] == [
            "net", "engine", "pool", "qos", "cache", "trace", "lifecycle",
            "autoscale"]

    def test_flag_specs_reject_bare_fields(self):
        import dataclasses

        @dataclasses.dataclass
        class Naked:
            depth: int = 3

        with pytest.raises(TypeError, match="no 'serve' field metadata"):
            flag_specs("naked", Naked)
