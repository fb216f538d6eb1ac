"""Tests for the command-line interface (Appendix E compatible)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, config_from_args, main, _resolve_arch


class TestArgumentParsing:
    def test_paper_command_line_parses(self):
        """The exact flag set published in Appendix E must be accepted."""
        parser = build_parser()
        args = parser.parse_args([
            "train",
            "--log_dir", "/tmp/logs",
            "--data_dir", "/data",
            "--dataset", "CIFAR10",
            "--arch", "resnet20_pecan_d",
            "--batch_size", "64",
            "--epochs", "300",
            "--learning_rate", "0.001",
            "--lr_decay_step", "200",
            "--query_metric", "adder",
            "--gpu", "0",
        ])
        assert args.command == "train"
        assert args.epochs == 300
        assert args.query_metric == "adder"

    def test_unknown_arch_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--arch", "alexnet"])

    def test_missing_subcommand_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_evaluate_requires_checkpoint(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["evaluate"])

    @pytest.mark.parametrize("arch,metric,expected", [
        ("resnet20", "adder", "resnet20_pecan_d"),
        ("resnet20", "dot", "resnet20_pecan_a"),
        ("resnet20_pecan_a", "adder", "resnet20_pecan_d"),
        ("resnet20_pecan_d", None, "resnet20_pecan_d"),
        ("lenet5", None, "lenet5"),
    ])
    def test_query_metric_override(self, arch, metric, expected):
        assert _resolve_arch(arch, metric) == expected

    def test_config_from_args_maps_fields(self):
        parser = build_parser()
        args = parser.parse_args([
            "train", "--dataset", "MNIST", "--arch", "lenet5_pecan_d",
            "--batch_size", "16", "--epochs", "3", "--learning_rate", "0.02",
            "--lr_decay_step", "2", "--width_multiplier", "0.5",
            "--num_train", "40", "--num_test", "20", "--prototype_cap", "8",
            "--strategy", "uni", "--pretrain_epochs", "2", "--seed", "9",
        ])
        config = config_from_args(args)
        assert config.dataset == "mnist"
        assert config.arch == "lenet5_pecan_d"
        assert config.batch_size == 16
        assert config.epochs == 3
        assert config.learning_rate == 0.02
        assert config.width_multiplier == 0.5
        assert config.prototype_cap == 8
        assert config.strategy == "uni"
        assert config.pretrain_epochs == 2
        assert config.seed == 9


class TestEndToEndCommands:
    def _train_args(self, tmp_path: Path, extra=()):
        return ["--quiet", "train",
                "--log_dir", str(tmp_path),
                "--dataset", "MNIST",
                "--arch", "lenet5_pecan_d",
                "--batch_size", "16",
                "--epochs", "1",
                "--learning_rate", "0.01",
                "--lr_decay_step", "10",
                "--width_multiplier", "0.5",
                "--image_size", "14",
                "--num_train", "32",
                "--num_test", "16",
                "--prototype_cap", "8",
                *extra]

    def test_train_writes_checkpoint_and_history(self, tmp_path, capsys):
        exit_code = main(self._train_args(tmp_path))
        assert exit_code == 0
        checkpoint = tmp_path / "lenet5_pecan_d.npz"
        history = tmp_path / "lenet5_pecan_d_history.json"
        assert checkpoint.exists()
        assert history.exists()
        payload = json.loads(history.read_text())
        assert payload["summary"]["arch"] == "lenet5_pecan_d"
        out = capsys.readouterr().out
        assert "final test accuracy" in out
        assert "#Mul 0" in out

    def test_evaluate_loads_checkpoint(self, tmp_path, capsys):
        main(self._train_args(tmp_path))
        exit_code = main(["--quiet", "evaluate",
                          "--log_dir", str(tmp_path),
                          "--dataset", "MNIST",
                          "--arch", "lenet5_pecan_d",
                          "--width_multiplier", "0.5",
                          "--image_size", "14",
                          "--num_test", "16",
                          "--prototype_cap", "8",
                          "--checkpoint", str(tmp_path / "lenet5_pecan_d.npz")])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "LUT/CAM accuracy" in out
        assert "traced multiplications:  0" in out

    def test_export_writes_deployment_bundle(self, tmp_path, capsys):
        main(self._train_args(tmp_path))
        exit_code = main(["--quiet", "export",
                          "--log_dir", str(tmp_path),
                          "--dataset", "MNIST",
                          "--arch", "lenet5_pecan_d",
                          "--width_multiplier", "0.5",
                          "--image_size", "14",
                          "--num_test", "16",
                          "--prototype_cap", "8",
                          "--checkpoint", str(tmp_path / "lenet5_pecan_d.npz"),
                          "--output", str(tmp_path / "bundle.npz")])
        assert exit_code == 0
        assert (tmp_path / "bundle.npz").exists()
        out = capsys.readouterr().out
        assert "multiplier-free bundle: True" in out

    def test_export_input_shape_override(self, tmp_path, capsys):
        main(self._train_args(tmp_path))
        exit_code = main(["--quiet", "export",
                          "--log_dir", str(tmp_path),
                          "--dataset", "MNIST",
                          "--arch", "lenet5_pecan_d",
                          "--width_multiplier", "0.5",
                          "--image_size", "14",
                          "--num_test", "16",
                          "--prototype_cap", "8",
                          "--checkpoint", str(tmp_path / "lenet5_pecan_d.npz"),
                          "--input-shape", "1,14,14",
                          "--output", str(tmp_path / "shaped.npz")])
        assert exit_code == 0
        from repro.io import load_deployment_bundle
        bundle = load_deployment_bundle(tmp_path / "shaped.npz")
        assert bundle.input_shape == (1, 14, 14)
        assert bundle.has_program

    def test_export_input_shape_validation(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "--checkpoint", "x.npz",
                                       "--input-shape", "fourteen"])
        args = build_parser().parse_args(["export", "--checkpoint", "x.npz",
                                          "--input_shape", "3x32x32"])
        assert args.input_shape == (3, 32, 32)

    def test_export_failure_names_offending_modules(self, tmp_path, capsys):
        # An untraceable forward falls back to a LUT-only bundle, and the
        # printed diagnostic names the offending module and the supported ops.
        import numpy as np
        from repro.io import export_deployment_bundle, load_deployment_bundle
        from repro.nn import Conv2d, Module, Sequential
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan
        from repro.ir.trace import GraphTraceError

        class Unhooked(Module):
            def forward(self, x):
                return x.exp()

        rng = np.random.default_rng(0)
        cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
        model = convert_to_pecan(
            Sequential(Conv2d(1, 2, 3, rng=rng), Unhooked()), cfg, rng=rng)
        with pytest.raises(GraphTraceError) as excinfo:
            export_deployment_bundle(model, tmp_path / "bad.npz",
                                     input_shape=(1, 6, 6))
        assert "1" in str(excinfo.value)                 # offending module name
        assert "Supported leaf modules" in str(excinfo.value)
        # LUT-only export (no input_shape) still succeeds.
        path = export_deployment_bundle(model, tmp_path / "lut_only.npz")
        assert not load_deployment_bundle(path).has_program

    def test_train_baseline_arch(self, tmp_path):
        exit_code = main(["--quiet", "train",
                          "--log_dir", str(tmp_path),
                          "--dataset", "MNIST",
                          "--arch", "lenet5",
                          "--batch_size", "16", "--epochs", "1",
                          "--width_multiplier", "0.5", "--image_size", "14",
                          "--num_train", "32", "--num_test", "16"])
        assert exit_code == 0
        assert (tmp_path / "lenet5.npz").exists()


class TestLifecycleCommands:
    """`repro-pecan deploy/promote/rollback` against a live admin API."""

    @pytest.fixture
    def serving(self, tmp_path):
        from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan
        from repro.io import export_deployment_bundle
        from repro.serve import PECANServer, ServeConfig

        def bundle(seed, path):
            rng = np.random.default_rng(seed)
            cfg = PQLayerConfig(num_prototypes=4, mode="distance",
                                temperature=0.5)
            model = Sequential(Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2),
                               Flatten(), Linear(4 * 4 * 4, 6, rng=rng))
            return export_deployment_bundle(convert_to_pecan(model, cfg, rng=rng),
                                            path, input_shape=(1, 10, 10))

        v1 = bundle(0, tmp_path / "v1.npz")
        v2 = bundle(1, tmp_path / "v2.npz")
        server = PECANServer(config=ServeConfig.build(
            port=0, cache_mb=0.0, mmap=False))
        server.add_bundle(v1, name="m", preload=True)
        server.start()
        yield server, v2
        server.stop()

    def test_deploy_promote_rollback_round_trip(self, serving, capsys):
        server, v2 = serving
        url = server.url
        assert main(["deploy", "--url", url, "--model", "m",
                     "--bundle", str(v2), "--canary", "0.5"]) == 0
        assert "deployed m@v2" in capsys.readouterr().out
        assert main(["promote", "--url", url, "--model", "m",
                     "--version", "2"]) == 0
        assert "promoted m to v2" in capsys.readouterr().out
        assert server.registry.active_version("m") == 2
        assert main(["rollback", "--url", url, "--model", "m"]) == 0
        assert "back to v1" in capsys.readouterr().out
        assert server.registry.active_version("m") == 1

    def test_admin_failures_exit_nonzero(self, serving, capsys):
        server, _ = serving
        assert main(["promote", "--url", server.url, "--model", "ghost"]) == 1
        assert "promote failed" in capsys.readouterr().out
        assert main(["rollback", "--url", server.url, "--model", "m"]) == 1
        assert "rollback failed" in capsys.readouterr().out

    def test_deploy_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["deploy", "--model", "m", "--bundle", "b.npz"])
        assert args.canary == 0.25 and args.min_samples == 20
        assert args.max_parity_violations == 0 and not args.no_auto

    def test_scale_against_single_server_fails_cleanly(self, serving, capsys):
        # The scale verb only exists on pools; the single server's 404 must
        # come back as a clean non-zero exit, not a traceback.
        server, _ = serving
        assert main(["scale", "--url", server.url, "--workers", "2"]) == 1
        assert "scale failed" in capsys.readouterr().out

    def test_scale_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["scale", "--workers", "3"])
        assert args.workers == 3 and args.reason == "operator"
        assert args.url == "http://127.0.0.1:8080"


class TestScoreCommand:
    """`repro-pecan score` — bulk offline scoring at batch priority."""

    @pytest.fixture
    def serving(self, tmp_path):
        from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan
        from repro.io import export_deployment_bundle
        from repro.serve import PECANServer, QoSConfig, ServeConfig

        rng = np.random.default_rng(3)
        cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
        model = Sequential(Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2),
                           Flatten(), Linear(4 * 4 * 4, 6, rng=rng))
        bundle = export_deployment_bundle(convert_to_pecan(model, cfg, rng=rng),
                                          tmp_path / "toy.npz",
                                          input_shape=(1, 10, 10))
        config = ServeConfig.build(port=0, cache_mb=0.0,
                                   mmap=False)
        config.qos = QoSConfig(batch_class_samples=4)
        server = PECANServer(config=config)
        server.add_bundle(bundle, name="toy", preload=True)
        server.start()
        yield server
        server.stop()

    def test_scores_random_inputs_and_writes_npz(self, serving, tmp_path,
                                                 capsys):
        output = tmp_path / "scores.npz"
        assert main(["score", "--url", serving.url, "--model", "toy",
                     "--dataset", "random", "--input-shape", "1,10,10",
                     "--num_samples", "12", "--chunk", "4",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "scored 12 samples" in out
        with np.load(output) as archive:
            assert archive["logits"].shape == (12, 6)
            assert archive["classes"].shape == (12,)
        # The whole run went through the batch class under the bulk tenant.
        qos = serving.metrics_snapshot()["server"]["qos"]
        assert qos["latency_by_class"]["batch"]["count"] >= 3
        assert "bulk" in qos["latency_by_tenant"]

    def test_scores_dataset_file(self, serving, tmp_path, capsys):
        dataset = tmp_path / "inputs.npz"
        np.savez(dataset, images=np.zeros((6, 1, 10, 10)))
        assert main(["score", "--url", serving.url, "--dataset", str(dataset),
                     "--chunk", "3"]) == 0
        out = capsys.readouterr().out
        assert "scored 6 samples" in out
        assert "predicted-class histogram" in out

    def test_bad_inputs_exit_nonzero(self, serving, tmp_path, capsys):
        assert main(["score", "--url", serving.url, "--dataset", "random"]) == 2
        assert "--input-shape is required" in capsys.readouterr().out
        assert main(["score", "--url", serving.url,
                     "--dataset", str(tmp_path / "missing.npy")]) == 2
        assert "not found" in capsys.readouterr().out

    def test_serve_parser_exposes_qos_knobs(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--bundle", "toy.npz",
                                  "--p99_slo_ms", "50", "--tenant_rate", "10",
                                  "--batch_class_samples", "4"])
        assert args.p99_slo_ms == 50.0 and args.tenant_rate == 10.0
        assert args.batch_class_samples == 4
        assert args.queue_high == 32.0 and args.slots_per_worker == 4
