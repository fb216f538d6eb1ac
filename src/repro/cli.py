"""Command-line interface mirroring the paper's released training commands.

Appendix E of the paper documents the original repository's interface::

    python train.py --log_dir ... --data_dir ... --dataset CIFAR10 \
        --arch resnet20_pecan_d --batch_size 64 --epochs 300 \
        --learning_rate 0.001 --lr_decay_step 200 --query_metric adder --gpu 0

This module reproduces that interface (``repro-pecan train`` /
``python -m repro.cli train``) on top of the experiment runner, and adds two
subcommands the deployment story needs:

* ``evaluate`` — reload a checkpoint and report training-graph and LUT/CAM
  accuracies plus the op counts;
* ``export`` — write the CAM deployment bundle (prototypes + lookup tables +
  the recorded inference program);
* ``serve`` — stand up the :mod:`repro.serve` HTTP endpoint from exported
  bundles alone (no checkpoint, no model construction); with ``--workers N``
  it becomes the data-parallel router + worker-process pool of
  :mod:`repro.serve.pool` over memory-mapped bundles;
* ``deploy`` / ``promote`` / ``rollback`` — the model-lifecycle verbs
  (:mod:`repro.serve.lifecycle`): hot-load a new bundle version into a
  *running* serve/pool process, watch a parity-gated canary rollout, flip or
  restore the active version — all without restarting the serving process;
* ``score`` — offline bulk scoring against a running endpoint at ``batch``
  priority (:class:`repro.serve.client.BulkScorer`): chunked submission that
  soaks idle capacity but yields to online traffic and rides out brownouts.

Flags that only make sense on the authors' setup (``--data_dir``, ``--gpu``)
are accepted and ignored so published command lines run unchanged; extra
``--width_multiplier`` / ``--num_train`` / ``--prototype_cap`` flags expose the
reduced-scale knobs of this reproduction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

# Heavy subsystems (training substrate, experiment runner, model zoo) are
# imported inside the command handlers that need them: the ``serve`` command
# must start from the lean deployment import graph (`repro.serve` only), and
# parser construction / --help must stay instant.


def _arch_type(value: str) -> str:
    """Validate ``--arch`` against the model zoo, importing it lazily.

    Used as an argparse ``type`` so the zoo only loads when a train/evaluate/
    export command is actually parsed — never for ``serve`` or ``--help``.
    """
    from repro.models import available_models

    if value not in available_models():
        raise argparse.ArgumentTypeError(
            f"unknown arch {value!r}; available: {', '.join(available_models())}")
    return value


def _add_paper_flags(parser: argparse.ArgumentParser) -> None:
    """The flag set published in Appendix E (plus reproduction extras)."""
    parser.add_argument("--log_dir", default="runs", help="directory for logs and checkpoints")
    parser.add_argument("--data_dir", default="", help="accepted for compatibility; unused "
                                                       "(datasets are synthetic)")
    parser.add_argument("--dataset", default="CIFAR10",
                        help="MNIST / CIFAR10 / CIFAR100 / TINY_IMAGENET")
    parser.add_argument("--arch", default="resnet20_pecan_d", type=_arch_type,
                        help="architecture name (baseline or _pecan_a / _pecan_d "
                             "variant); see repro.models.available_models()")
    parser.add_argument("--batch_size", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--learning_rate", type=float, default=0.01)
    parser.add_argument("--lr_decay_step", type=int, default=50)
    parser.add_argument("--query_metric", choices=["dot", "adder"], default=None,
                        help="dot = PECAN-A, adder = PECAN-D; overrides the arch suffix")
    parser.add_argument("--gpu", default=None, help="accepted for compatibility; unused "
                                                    "(this reproduction is CPU-only)")
    parser.add_argument("--seed", type=int, default=0)
    # Reproduction-scale knobs (not in the original interface).
    parser.add_argument("--width_multiplier", type=float, default=1.0)
    parser.add_argument("--num_train", type=int, default=512)
    parser.add_argument("--num_test", type=int, default=256)
    parser.add_argument("--image_size", type=int, default=None)
    parser.add_argument("--prototype_cap", type=int, default=None)
    parser.add_argument("--strategy", choices=["co", "uni"], default="co")
    parser.add_argument("--pretrain_epochs", type=int, default=0)


def _resolve_arch(arch: str, query_metric: Optional[str]) -> str:
    """Apply the ``--query_metric`` override the original interface uses."""
    if query_metric is None:
        return arch
    base = arch
    for suffix in ("_pecan_a", "_pecan_d"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return base + ("_pecan_a" if query_metric == "dot" else "_pecan_d")


def config_from_args(args: argparse.Namespace):
    """Translate parsed CLI flags into an :class:`ExperimentConfig`."""
    from repro.experiments import ExperimentConfig

    return ExperimentConfig(
        dataset=args.dataset.lower().replace("-", "_"),
        arch=_resolve_arch(args.arch, args.query_metric),
        width_multiplier=args.width_multiplier,
        num_train=args.num_train,
        num_test=args.num_test,
        image_size=args.image_size,
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        lr_decay_step=args.lr_decay_step,
        strategy=args.strategy,
        pretrain_epochs=args.pretrain_epochs,
        prototype_cap=args.prototype_cap,
        seed=args.seed,
    )


def _command_train(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment
    from repro.hardware.opcount import format_count
    from repro.io import save_checkpoint

    config = config_from_args(args)
    print(f"training {config.arch} on synthetic {config.dataset} "
          f"({config.num_train} train / {config.num_test} test images, "
          f"{config.epochs} epochs, lr {config.learning_rate})")
    result = run_experiment(config, verbose=not args.quiet)

    log_dir = Path(args.log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = save_checkpoint(result.model, log_dir / f"{config.arch}.npz",
                                      metadata={"accuracy": result.accuracy,
                                                "arch": config.arch,
                                                "dataset": config.dataset,
                                                "epochs": config.epochs})
    history_path = log_dir / f"{config.arch}_history.json"
    history_path.write_text(json.dumps({"history": result.history,
                                        "summary": result.summary()}, indent=2))
    print(f"final test accuracy: {result.accuracy:.4f}")
    print(f"per-image ops: #Add {format_count(result.additions)}, "
          f"#Mul {format_count(result.multiplications)}")
    print(f"checkpoint: {checkpoint_path}")
    print(f"history:    {history_path}")
    return 0


def _rebuild_model(args: argparse.Namespace):
    import numpy as np

    from repro.data import make_dataset
    from repro.models import build_model

    config = config_from_args(args)
    dataset_kwargs = {"num_train": 8, "num_test": args.num_test, "seed": args.seed}
    if args.image_size is not None:
        dataset_kwargs["image_size"] = args.image_size
    _, test = make_dataset(config.dataset, **dataset_kwargs)
    in_channels, image_size, _ = test.image_shape
    model = build_model(config.arch, num_classes=config.dataset_num_classes(),
                        width_multiplier=config.width_multiplier,
                        prototype_cap=config.prototype_cap,
                        rng=np.random.default_rng(config.seed),
                        in_channels=in_channels, image_size=image_size)
    return config, model, test


def _command_evaluate(args: argparse.Namespace) -> int:
    from repro.cam import CAMInferenceEngine
    from repro.hardware.opcount import count_model_ops, format_count
    from repro.io import load_checkpoint

    config, model, test = _rebuild_model(args)
    load_checkpoint(args.checkpoint, model=model)
    from repro.autograd import Tensor, no_grad
    from repro.autograd.functional import accuracy as accuracy_fn

    model.eval()
    with no_grad():
        logits = model(Tensor(test.images))
    graph_accuracy = accuracy_fn(logits, test.labels)
    print(f"training-graph accuracy: {graph_accuracy:.4f}")

    from repro.pecan.convert import pecan_layers
    if pecan_layers(model):
        engine = CAMInferenceEngine(model)
        lut_accuracy = engine.accuracy(test.images, test.labels)
        print(f"LUT/CAM accuracy:        {lut_accuracy:.4f}")
        print(f"traced multiplications:  {engine.op_counter.multiplications}")
    report = count_model_ops(model, test.image_shape, model_name=config.arch)
    print(f"analytic per-image ops: #Add {format_count(report.additions)}, "
          f"#Mul {format_count(report.multiplications)}")
    return 0


def _parse_input_shape(spec: str):
    """``"1,28,28"`` (or ``1x28x28``) -> ``(1, 28, 28)``."""
    parts = [p for p in spec.replace("x", ",").split(",") if p.strip()]
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --input-shape {spec!r}; expected comma-separated "
            f"integers like 3,32,32") from None
    if not shape or any(s <= 0 for s in shape):
        raise argparse.ArgumentTypeError(
            f"invalid --input-shape {spec!r}; dimensions must be positive")
    return shape


def _command_export(args: argparse.Namespace) -> int:
    from repro.io import export_deployment_bundle, load_checkpoint

    config, model, test = _rebuild_model(args)
    load_checkpoint(args.checkpoint, model=model)
    output = Path(args.output or (Path(args.log_dir) / f"{config.arch}_deployment.npz"))
    if args.no_program:
        input_shape = None
    elif args.input_shape is not None:
        input_shape = args.input_shape       # explicit override
    else:
        input_shape = test.image_shape       # derived from the dataset
    try:
        path = export_deployment_bundle(model, output, metadata={"arch": config.arch},
                                        input_shape=input_shape)
    except ValueError as exc:
        if input_shape is None:
            raise
        # An untraceable forward (GraphTraceError names every offending
        # module) cannot be recorded; fall back to a LUT-only bundle.
        print(f"note: {exc}")
        print("falling back to a LUT-only bundle (not directly servable)")
        path = export_deployment_bundle(model, output, metadata={"arch": config.arch})
    from repro.io import load_deployment_bundle

    bundle = load_deployment_bundle(path)
    print(f"exported {len(bundle.layer_names)} PECAN layers "
          f"({bundle.total_values()} stored values) to {path}")
    print(f"multiplier-free bundle: {bundle.is_multiplier_free()}")
    print(f"inference program embedded: {bundle.has_program} "
          f"(servable with `repro-pecan serve --bundle {path}`)"
          if bundle.has_program else "inference program embedded: False")
    return 0


def _parse_bundle_spec(spec: str):
    """``name=path`` or bare ``path`` (name defaults to the file stem)."""
    if "=" in spec:
        name, _, path = spec.partition("=")
        return name or None, path
    return None, spec


# --------------------------------------------------------------------------- #
# Lifecycle admin commands (talk to a *running* serve/pool over HTTP)
# --------------------------------------------------------------------------- #
def _admin_client(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    return ServeClient(args.url, timeout_s=args.timeout_s)


def _command_deploy(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeHTTPError

    client = _admin_client(args)
    options = {"canary_fraction": args.canary,
               "min_samples": args.min_samples,
               "max_parity_violations": args.max_parity_violations,
               "auto": not args.no_auto}
    if args.max_latency_ratio is not None:
        options["max_latency_ratio"] = (None if args.max_latency_ratio <= 0
                                        else args.max_latency_ratio)
    try:
        response = client.deploy(args.model, str(Path(args.bundle).resolve()),
                                 version=args.version, **options)
    except ServeHTTPError as exc:
        print(f"deploy failed: {exc}")
        return 1
    print(f"deployed {response.get('deployed', args.model)} "
          f"(canary fraction {args.canary}, "
          f"gate: {args.min_samples} samples / "
          f"{args.max_parity_violations} violations budget)")
    print(json.dumps(response.get("rollout", response), indent=2))
    return 0


def _command_promote(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeHTTPError

    try:
        response = _admin_client(args).promote(args.model, version=args.version)
    except ServeHTTPError as exc:
        print(f"promote failed: {exc}")
        return 1
    print(f"promoted {response.get('model', args.model)} to "
          f"v{response.get('active_version')} "
          f"(was v{response.get('previous_version')})")
    return 0


def _command_rollback(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeHTTPError

    try:
        response = _admin_client(args).rollback(args.model)
    except ServeHTTPError as exc:
        print(f"rollback failed: {exc}")
        return 1
    if "aborted_canary" in response:
        print(f"aborted canary {response['aborted_canary']}; "
              f"{response.get('model', args.model)} stays at "
              f"v{response.get('active_version')}")
    else:
        print(f"rolled {response.get('model', args.model)} back to "
              f"v{response.get('active_version')}")
    return 0


def _command_scale(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeHTTPError

    try:
        response = _admin_client(args).scale(args.workers,
                                             reason=args.reason)
    except ServeHTTPError as exc:
        print(f"scale failed: {exc}")
        return 1
    if "members" in response:       # federation front: per-member results
        print(json.dumps(response, indent=2))
    else:
        print(f"pool pinned to {response.get('workers', args.workers)} "
              f"worker(s) (spawned {response.get('spawned', 0)}, "
              f"retired {response.get('retired', 0)})")
    return 0


def _add_admin_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default="http://127.0.0.1:8080",
                        help="base URL of the running serve/pool process")
    parser.add_argument("--model", required=True,
                        help="base model name (as registered with serve)")
    parser.add_argument("--timeout_s", type=float, default=180.0,
                        help="HTTP timeout (bundle loads happen in-band)")


def _command_score(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.serve.client import BulkScorer, ServeClient, ServeHTTPError

    if args.dataset == "random":
        if args.input_shape is None:
            print("score: --input-shape is required with --dataset random")
            return 2
        rng = np.random.default_rng(args.seed)
        inputs = rng.standard_normal((args.num_samples, *args.input_shape))
    else:
        path = Path(args.dataset)
        if not path.exists():
            print(f"score: dataset not found: {path}")
            return 2
        if path.suffix == ".npz":
            with np.load(path) as archive:
                key = "images" if "images" in archive.files else archive.files[0]
                inputs = np.asarray(archive[key])
        else:
            inputs = np.load(path)
        if args.num_samples is not None:
            inputs = inputs[: args.num_samples]
    # backoff_retries=0: the scorer's own backoff is the only retry loop, so
    # --max_chunk_retries bounds the requests and the totals count them all.
    client = ServeClient(args.url, timeout_s=args.timeout_s, backoff_retries=0)
    scorer = BulkScorer(client, model=args.model, tenant=args.tenant,
                        chunk_size=args.chunk,
                        max_chunk_retries=args.max_chunk_retries)
    print(f"scoring {inputs.shape[0]} samples against {args.url} "
          f"(chunks of {args.chunk}, priority batch, tenant {args.tenant!r})")
    started = time.monotonic()
    try:
        logits = scorer.score(inputs)
    except ServeHTTPError as exc:
        print(f"score failed: {exc}")
        return 1
    elapsed = max(time.monotonic() - started, 1e-9)
    print(f"scored {logits.shape[0]} samples in {elapsed:.2f}s "
          f"({logits.shape[0] / elapsed:.1f} samples/s) over "
          f"{scorer.chunks_total} chunks; {scorer.retries_total} chunk "
          f"retries, {scorer.backoff_s_total:.2f}s spent backing off")
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        np.savez(output, logits=logits, classes=np.argmax(logits, axis=1))
        print(f"logits: {output}")
    else:
        classes, counts = np.unique(np.argmax(logits, axis=1),
                                    return_counts=True)
        histogram = {int(cls): int(count) for cls, count
                     in zip(classes, counts)}
        print(f"predicted-class histogram: {histogram}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import serve_config_from_args

    config = serve_config_from_args(args)
    if config.federation.members:
        return _serve_federation(config)
    if not config.lifecycle.bundles:
        print("error: serve needs at least one --bundle "
              "(or --federate to start the federation front router)")
        return 2
    if config.pool.workers > 1 or config.autoscale.enabled:
        return _serve_pool(config)
    return _serve_single(config)


def _serve_single(config) -> int:
    from repro.serve import PECANServer

    server = PECANServer(config=config)
    for spec in config.lifecycle.bundles:
        name, path = _parse_bundle_spec(spec)
        registered = server.add_bundle(path, name=name,
                                       preload=config.lifecycle.preload)
        print(f"registered model {registered!r} from {path}")
    server.start()
    print(f"serving on {server.url}  "
          f"(POST /predict, GET /models /metrics /healthz)")
    audit_every = config.engine.audit_every
    print(f"batching: up to {config.engine.max_batch_size} samples; "
          f"queue depth {config.engine.max_queue_depth}; parity audit "
          + (f"of 1 batch in {audit_every}" if audit_every else "off")
          + " (runtime_verification in /metrics)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _serve_pool(config) -> int:
    import signal

    from repro.serve import PoolServer

    pool = PoolServer(config=config)
    # Installed before start: a SIGTERM that lands while workers are still
    # spawning (or during the readiness wait below) must still drain cleanly.
    signal.signal(signal.SIGTERM, lambda signum, frame: pool.request_stop())
    for spec in config.lifecycle.bundles:
        name, path = _parse_bundle_spec(spec)
        registered = pool.add_bundle(path, name=name)
        print(f"registered model {registered!r} from {path}")
    pool.start()
    print(f"routing on {pool.url} over {pool.num_workers} worker processes "
          f"(policy: {pool.policy.name}, "
          f"bundle arrays "
          f"{'memory-mapped/shared' if config.engine.mmap else 'copied per worker'})")
    if config.autoscale.enabled:
        scaler = pool.autoscaler
        print(f"autoscale: workers {scaler.floor}..{scaler.ceiling} from "
              f"queue depth / p99; POST /admin/scale pins a target")
    if pool.wait_ready(timeout_s=120.0):
        print("all workers ready  (POST /predict, GET /models /metrics /healthz)")
    else:
        print("warning: pool started degraded "
              f"({len(pool.ready_workers())}/{pool.num_workers} workers ready); "
              "see /healthz for per-worker errors")
    print("SIGTERM or Ctrl-C drains in-flight requests before shutdown")
    pool.serve_forever(install_signal_handler=False)
    return 0


def _serve_federation(config) -> int:
    import signal

    from repro.serve.federation import FrontRouter

    front = FrontRouter(config)
    signal.signal(signal.SIGTERM, lambda signum, frame: front.stop())
    front.start()
    members = ", ".join(config.federation.members)
    print(f"federating on {front.url} over members: {members}")
    print("model@version namespaces shard by consistent hashing; "
          "failover to surviving members on connection failure or drain "
          "(POST /predict /admin/*, GET /models /metrics /healthz /trace)")
    try:
        front.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        front.stop()
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """Offline analysis of a ``--trace_dir`` JSONL export."""
    from repro.serve.trace import (causal_sort, group_by_trace, read_trace_dir,
                                   slowest_traces, summarize_spans)

    spans = read_trace_dir(args.dir)
    if not spans:
        print(f"no spans found under {args.dir}")
        return 1
    traces = group_by_trace(spans)
    print(f"{len(spans)} spans across {len(traces)} traces from {args.dir}")

    if args.id:
        selected = traces.get(args.id)
        if not selected:
            print(f"no spans for trace {args.id!r}")
            return 1
        print(f"\ntrace {args.id}:")
        for span in causal_sort(selected):
            lamport = (span.get("lamport") or {}).get("start")
            duration = span.get("duration_ms")
            duration_txt = "" if duration is None else f"{duration:9.2f} ms"
            print(f"  [{lamport:>4}] {span.get('service', '?'):>7} "
                  f"{span.get('name', '?'):<22} {duration_txt:>12} "
                  f"{span.get('status', '')}")
        return 0

    print("\nper-stage latency (ms):")
    summary = summarize_spans(spans)
    for name in sorted(summary):
        stats = summary[name]
        print(f"  {name:<22} count={stats['count']:<6} "
              f"p50={stats['p50_ms']:.2f} p95={stats['p95_ms']:.2f} "
              f"p99={stats['p99_ms']:.2f} max={stats['max_ms']:.2f}")

    violations = [span for span in spans
                  if span.get("name") == "invariant.violation"]
    print(f"\ninvariant violations: {len(violations)}")
    for span in violations[:10]:
        attrs = span.get("attrs") or {}
        print(f"  {attrs.get('invariant', '?')}: {attrs.get('detail', '')} "
              f"(trace {span.get('trace_id')})")

    print(f"\nslowest {args.slowest} traces (by root span):")
    for entry in slowest_traces(spans, limit=args.slowest):
        print(f"  {entry['trace_id']}  {entry['duration_ms']:9.2f} ms  "
              f"{entry['root']}  spans={entry['spans']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-pecan",
                                     description="PECAN reproduction command line")
    parser.add_argument("--quiet", action="store_true", help="suppress per-epoch output")
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="train a model (Appendix E interface)")
    _add_paper_flags(train)
    train.set_defaults(handler=_command_train)

    evaluate = subparsers.add_parser("evaluate", help="evaluate a saved checkpoint")
    _add_paper_flags(evaluate)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.set_defaults(handler=_command_evaluate)

    export = subparsers.add_parser("export", help="export the CAM deployment bundle")
    _add_paper_flags(export)
    export.add_argument("--checkpoint", required=True)
    export.add_argument("--output", default=None)
    export.add_argument("--no_program", action="store_true",
                        help="write a LUT-only bundle without the traced "
                             "inference graph (not servable)")
    export.add_argument("--input-shape", "--input_shape", dest="input_shape",
                        type=_parse_input_shape, default=None,
                        metavar="C,H,W",
                        help="per-sample input shape to trace the inference "
                             "graph with, overriding the dataset-derived "
                             "shape (e.g. 3,32,32)")
    export.set_defaults(handler=_command_export)

    serve = subparsers.add_parser(
        "serve", help="serve exported deployment bundles over HTTP")
    # Every serve flag is generated from the ServeConfig field metadata
    # (repro.serve.config) — one source of truth for flags, constructor
    # fields, --help text and the README reference table.
    from repro.serve.config import add_serve_arguments
    add_serve_arguments(serve)
    serve.set_defaults(handler=_command_serve)

    trace = subparsers.add_parser(
        "trace", help="analyse exported trace JSONL: per-stage latency "
                      "percentiles, slowest traces, invariant violations")
    trace.add_argument("--dir", required=True,
                       help="trace directory written by serve --trace_dir")
    trace.add_argument("--id", default=None,
                       help="print one trace's causally-ordered span "
                            "timeline instead of the summary")
    trace.add_argument("--slowest", type=int, default=5,
                       help="how many slowest traces to list")
    trace.set_defaults(handler=_command_trace)

    score = subparsers.add_parser(
        "score", help="bulk offline scoring against a running serve/pool "
                      "at batch priority (yields to online traffic)")
    score.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the running serve/pool process")
    score.add_argument("--model", default=None,
                       help="model name (default: the server's only model)")
    score.add_argument("--dataset", default="random",
                       help="samples to score: a .npz/.npy path, or "
                            "'random' with --input-shape")
    score.add_argument("--input-shape", "--input_shape", dest="input_shape",
                       type=_parse_input_shape, default=None,
                       metavar="C,H,W",
                       help="per-sample shape for --dataset random")
    score.add_argument("--num_samples", type=int, default=64,
                       help="samples to generate (random) or cap the "
                            "dataset at")
    score.add_argument("--chunk", type=int, default=8,
                       help="samples per request; keep at or below the "
                            "server's batch-class budget")
    score.add_argument("--tenant", default="bulk",
                       help="tenant id the scoring traffic runs under")
    score.add_argument("--max_chunk_retries", type=int, default=12,
                       help="backoff retries per chunk before giving up")
    score.add_argument("--timeout_s", type=float, default=60.0,
                       help="HTTP timeout per chunk")
    score.add_argument("--output", default=None,
                       help="write logits + argmax classes to this .npz "
                            "(default: print a class histogram)")
    score.add_argument("--seed", type=int, default=0)
    score.set_defaults(handler=_command_score)

    deploy = subparsers.add_parser(
        "deploy", help="hot-load a new bundle version into a running "
                       "serve/pool process (canary rollout on pools)")
    _add_admin_flags(deploy)
    deploy.add_argument("--bundle", required=True,
                        help="deployment bundle .npz readable by the serving "
                             "host (the path is shipped, not the bytes)")
    deploy.add_argument("--version", type=int, default=None,
                        help="explicit version number (default: next free)")
    deploy.add_argument("--canary", type=float, default=0.25,
                        help="fraction of the model's traffic mirrored "
                             "through the candidate while the gate judges it "
                             "(pool mode; 0 disables canary traffic)")
    deploy.add_argument("--min_samples", type=int, default=20,
                        help="clean output comparisons required before "
                             "auto-promote")
    deploy.add_argument("--max_parity_violations", type=int, default=0,
                        help="output mismatches tolerated before "
                             "auto-rollback (PECAN-D is bitwise deterministic"
                             " — keep 0)")
    deploy.add_argument("--max_latency_ratio", type=float, default=None,
                        help="rollback when canary p95 exceeds this multiple "
                             "of active p95 (<=0 disables; default 3.0)")
    deploy.add_argument("--no_auto", action="store_true",
                        help="report the gate's verdict but leave "
                             "promote/rollback to the operator")
    deploy.set_defaults(handler=_command_deploy)

    promote = subparsers.add_parser(
        "promote", help="activate a deployed version on a running serve/pool")
    _add_admin_flags(promote)
    promote.add_argument("--version", type=int, default=None,
                         help="version to activate (default: the in-flight "
                              "rollout's candidate, else the newest)")
    promote.set_defaults(handler=_command_promote)

    rollback = subparsers.add_parser(
        "rollback", help="abort an in-flight canary or restore the "
                         "previously active version")
    _add_admin_flags(rollback)
    rollback.set_defaults(handler=_command_rollback)

    scale = subparsers.add_parser(
        "scale", help="pin a running pool's worker target (or broadcast to "
                      "every member of a federation front)")
    scale.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the running pool/front process")
    scale.add_argument("--timeout_s", type=float, default=30.0,
                       help="admin request timeout")
    scale.add_argument("--workers", type=int, required=True,
                       help="worker target (clamped into the autoscale "
                            "envelope; 0 needs --scale_to_zero on the pool)")
    scale.add_argument("--reason", default="operator",
                       help="reason recorded in the autoscale event log")
    scale.set_defaults(handler=_command_scale)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
