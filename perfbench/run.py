"""The serving benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload pool_zipf --seed 1 \\
        --seconds 40 --trace 0

Runs from the root of a source checkout.  It builds the workload's bundle,
starts ``repro-pecan serve`` in its own process from the default
``ServeConfig`` (only the port set, plus ``workers=2`` for ``pool_zipf``),
drives it from a single-threaded closed-loop generator over two keep-alive
connections with one request in flight on each, checks every reply bitwise
against a direct ``BundleEngine.predict``, and prints one JSON object as its
last line.

``--trace 0`` reports the end-to-end metrics: the window is split evenly
across ``PASSES`` server launches, each replaying the same inputs against a
fresh server, and their replies are pooled.  Latency and throughput are
taken over the quarter of the window's slices in which the host stole the
least CPU time (:func:`quiet_slices`).  ``--trace 1`` runs the whole
window twice with the same seed, untraced and then with the ledger spans of
``hooks.py`` installed in the server process, and reports the per-layer
metrics.  See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Seed for day-to-day runs, and the seed held out for confirming a claim
#: (never used while the change under test was being written).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Server launches per ``--trace 0`` run, each measuring an equal share of
#: the window; ``setup_s`` is the median of their set-up times.
PASSES = 3
#: Latency and throughput are measured over the ``QUIET_SHARE`` of the
#: window's ``SLICE_S`` slices in which the host stole the least CPU time.
SLICE_S = 0.5
QUIET_SHARE = 0.25
HOST = "127.0.0.1"
TRACE_HEADER = "X-Trace-Id"
URL_LINE = re.compile(r"(?:serving|routing) on http://([\d.]+):(\d+)")

END_TO_END = ("p50_ms", "p99_ms", "throughput_sps", "setup_s", "rss_mb")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                  # "toy" or "resnet"
    workers: int                # 1: PECANServer; >1: PoolServer
    samples: int                # samples per request
    warmup_s: float
    zipf_items: int = 0         # >0: Zipf(ZIPF_ALPHA) over these inputs
    fields: Tuple[Tuple[str, str], ...] = ()   # extra /predict body fields
    prewarm: int = 0            # Zipf: hottest items sent once before load


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("bulk_resnet", model="resnet", workers=1, samples=8,
                 warmup_s=2.0,
                 fields=(("priority", "batch"), ("tenant", "bulk"))),
        Workload("pool_zipf", model="toy", workers=2, samples=1,
                 warmup_s=1.5, zipf_items=4096, prewarm=512),
    )
}
SHAPES = {"toy": (3, 12, 12), "resnet": (3, 16, 16)}
CONNECTIONS = 2
ZIPF_ALPHA = 1.1
#: Zipf draws per second of a pass; a faster server wraps round the stream.
ZIPF_DRAWS_PER_S = 4000


# --------------------------------------------------------------------------- #
# Models
# --------------------------------------------------------------------------- #
def build_bundle(model: str, directory: Path) -> Path:
    """Export the workload's PECAN-D network (fixed weights, seed 0)."""
    import numpy as np

    from repro.io import export_deployment_bundle

    rng = np.random.default_rng(0)
    if model == "toy":
        from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, \
            Sequential
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan

        net = Sequential(Conv2d(3, 16, 3, rng=rng), ReLU(), MaxPool2d(2),
                         Flatten(), Linear(16 * 5 * 5, 32, rng=rng), ReLU(),
                         Linear(32, 10, rng=rng))
        net = convert_to_pecan(net, PQLayerConfig(
            num_prototypes=8, mode="distance", temperature=0.5), rng=rng)
    else:
        from repro.models import build_model

        net = build_model("resnet20_pecan_d", width_multiplier=0.125,
                          prototype_cap=4, rng=rng)
    return export_deployment_bundle(net, directory / f"{model}.npz",
                                    input_shape=SHAPES[model])


# --------------------------------------------------------------------------- #
# Traffic
# --------------------------------------------------------------------------- #
def request_bytes(body: bytes, trace_id: str) -> bytes:
    head = (f"POST /predict HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{TRACE_HEADER}: {trace_id}\r\n\r\n")
    return head.encode("latin-1") + body


class Plan:
    """Every input the workload sends, derived from the seed alone."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        import numpy as np

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.total_s = workload.warmup_s + seconds
        self.shape = SHAPES[workload.model]
        tag = list(WORKLOADS).index(workload.name)
        self.trace_prefix = f"{seed & 0xffffffff:08x}{tag:02x}"
        self.items = None              # Zipf: the unique inputs
        self.index = None              # Zipf: item index per request
        self._bodies: Dict[int, bytes] = {}
        if workload.zipf_items:
            from repro.serve import ZipfWorkload

            self.items = np.random.default_rng([seed, 2]).standard_normal(
                (workload.zipf_items, workload.samples, *self.shape))
            self.index = ZipfWorkload(self.items, alpha=ZIPF_ALPHA,
                                      seed=seed).indices(
                int(ZIPF_DRAWS_PER_S * self.total_s))
        # Zipf ranks are item indices: item 0 is the hottest.
        self.prewarm = [request_bytes(self.body_for(item),
                                      f"{self.trace_prefix}ff{item:020x}")
                        for item in range(workload.prewarm)]

    def trace_id(self, index: int) -> str:
        return f"{self.trace_prefix}{index:022x}"

    def key_of(self, index: int) -> int:
        """Request ``index``'s input identity (its Zipf item, if any)."""
        if self.index is None:
            return index
        return int(self.index[index % len(self.index)])

    def inputs_for(self, key: int):
        """The ``(samples, C, H, W)`` inputs of one key."""
        import numpy as np

        if self.items is not None:
            return self.items[key]
        return np.random.default_rng([self.seed, 3, key]).standard_normal(
            (self.workload.samples, *self.shape))

    def body_for(self, key: int) -> bytes:
        body = self._bodies.get(key)
        if body is None:
            inputs = self.inputs_for(key)
            payload = {"inputs": (inputs[0] if len(inputs) == 1
                                  else inputs).tolist(),
                       **dict(self.workload.fields)}
            body = json.dumps(payload).encode("utf-8")
            if self.items is not None:     # Zipf keys repeat; others do not
                self._bodies[key] = body
        return body

    def render(self, index: int) -> bytes:
        """Request ``index`` on the wire."""
        return request_bytes(self.body_for(self.key_of(index)),
                             self.trace_id(index))


# --------------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------------- #
def _get(port: int, path: str, timeout: float = 15.0) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


class Server:
    """``repro-pecan serve`` from the default ``ServeConfig``, in a child."""

    def __init__(self, workload: Workload, bundle: Path, workdir: Path,
                 tag: str, ledger: Optional[Path] = None):
        from repro.serve import ServeConfig, serve_config_to_args

        config = ServeConfig()
        config.net.port = 0
        config.lifecycle.bundles = (f"{workload.model}={bundle}",)
        if workload.workers > 1:
            config.pool.workers = workload.workers
        self.workload = workload
        self.log_path = workdir / f"server-{tag}.log"
        self.argv = [sys.executable, "-u", str(HERE / "serve_entry.py")]
        if ledger is not None:
            self.argv += ["--ledger", str(ledger)]
        self.argv += ["serve", *serve_config_to_args(config)]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.worker_pids: List[int] = []

    def start(self, timeout_s: float = 120.0) -> float:
        """Launch and wait until ready; returns the set-up seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = open(self.log_path, "wb")
        started = time.monotonic()
        try:
            self.proc = subprocess.Popen(self.argv, stdout=log,
                                         stderr=subprocess.STDOUT, cwd=ROOT,
                                         env=env)
        finally:
            log.close()
        deadline = started + timeout_s
        while not self.port:
            self._check_alive(deadline)
            match = URL_LINE.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                status, health = _get(self.port, "/healthz", timeout=5.0)
            except OSError:
                status, health = 0, {}
            if status == 200 and self._ready(health):
                elapsed = time.monotonic() - started
                self.worker_pids = [int(w["pid"]) for w in
                                    health.get("pool", {}).get("workers", [])]
                return elapsed
            time.sleep(0.002)

    def _ready(self, health: dict) -> bool:
        if health.get("status") != "ok":
            return False
        if self.workload.workers > 1:
            return True
        return self.workload.model in health.get("serving", [])

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}: "
                               f"{self.log_path.read_text(errors='replace')}")
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become ready in time")

    def metrics(self) -> dict:
        status, payload = _get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    def settled_metrics(self, timeout_s: float = 10.0) -> dict:
        """``/metrics`` once the engines' work has stopped changing.

        The pool router re-runs a sampled cache hit on a worker off the
        request path, so an inference can still be running after the last
        reply; a read in the middle of it would count the engine's work
        before the batch that did it.
        """
        deadline = time.monotonic() + timeout_s
        previous = None
        while True:
            payload = self.metrics()
            current = engine_work(self.workload, payload)
            if current == previous or time.monotonic() > deadline:
                return payload
            previous = current
            time.sleep(0.1)

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, plus every pool worker."""
        total_kb = 0
        for pid in [self.proc.pid, *self.worker_pids]:
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s*(\d+)", status).group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # A draining pool stops its workers before exiting; never leave one.
        deadline = time.monotonic() + 15.0
        for pid in self.worker_pids:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None


# --------------------------------------------------------------------------- #
# One measured pass
# --------------------------------------------------------------------------- #
class StealMeter:
    """The host's stolen CPU time, sampled every ``SLICE_S`` of a pass.

    On a virtual machine the hypervisor takes the guest's cores away from
    time to time; ``/proc/stat`` counts that time as ``steal``.  Without
    the file (or off a VM) every slice reads 0.
    """

    def __init__(self):
        self.samples: List[Tuple[float, int, int]] = []  # (t, steal, total)
        self._next = 0.0

    def tick(self, now: float, force: bool = False) -> None:
        if now < self._next and not force:
            return
        self._next = now + SLICE_S
        try:
            with open("/proc/stat") as stat:
                fields = [int(v) for v in stat.readline().split()[1:9]]
        except (OSError, ValueError):
            return
        self.samples.append((now, fields[7] if len(fields) > 7 else 0,
                             sum(fields)))

    def slices(self) -> List[Tuple[float, float, float]]:
        """``(start, end, stolen share of the CPU time)`` per interval."""
        return [(t0, t1, (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0)
                for (t0, s0, c0), (t1, s1, c1)
                in zip(self.samples, self.samples[1:])]


@dataclass
class Pass:
    """One server lifetime under load, with its raw exchanges."""

    exchanges: list
    window: Tuple[float, float]       # monotonic bounds of the window
    metrics: dict
    rss_mb: float
    prewarm: list                     # exchanges that warmed the cache
    slices: List[Tuple[float, float, float]]   # StealMeter.slices()
    spans: Optional[list] = None


def drive(server: Server, plan: Plan) -> Pass:
    import traffic

    prewarm = traffic.run_closed_loop(
        HOST, server.port, plan.prewarm.__getitem__, count=len(plan.prewarm),
        connections=CONNECTIONS) if plan.prewarm else []
    meter = StealMeter()
    exchanges = traffic.run_closed_loop(
        HOST, server.port, plan.render, duration_s=plan.total_s,
        connections=CONNECTIONS, tick=meter.tick)
    meter.tick(time.monotonic(), force=True)
    start = exchanges[0].due
    window = (start + plan.workload.warmup_s, start + plan.total_s)
    metrics = server.settled_metrics()
    return Pass(exchanges, window, metrics, server.peak_rss_mb(), prewarm,
                meter.slices())


def run_pass(plan: Plan, bundle: Path, workdir: Path, tag: str,
             ledger: bool = False) -> Tuple[Pass, float]:
    """One server lifetime: ``(the pass, its set-up seconds)``."""
    ledger_path = workdir / f"ledger-{tag}.json" if ledger else None
    server = Server(plan.workload, bundle, workdir, tag, ledger=ledger_path)
    try:
        setup_s = server.start()
        result = drive(server, plan)
    finally:
        server.stop()
    if ledger_path is not None:
        result.spans = json.loads(ledger_path.read_text())["rows"]
    return result, setup_s


# --------------------------------------------------------------------------- #
# Checking
# --------------------------------------------------------------------------- #
class Checker:
    """Bitwise comparison of served logits with a direct engine pass."""

    def __init__(self, plan: Plan, bundle: Path):
        from repro.serve import BundleEngine

        self.plan = plan
        # Also extracts the memory-mapped arrays and builds the compiled
        # kernels, so no server launch pays for that.
        self.engine = BundleEngine(bundle, mmap_mode="r")
        self._expected: Dict[int, object] = {}

    def _fill(self, keys) -> None:
        import numpy as np

        todo = sorted(set(keys) - set(self._expected))
        per = self.plan.workload.samples
        step = max(1, 64 // per)
        for offset in range(0, len(todo), step):
            chunk = todo[offset:offset + step]
            outputs = self.engine.predict(np.concatenate(
                [self.plan.inputs_for(key) for key in chunk]))
            for n, key in enumerate(chunk):
                self._expected[key] = outputs[n * per:(n + 1) * per]

    def verdicts(self, exchanges, key_of=None) -> Dict[int, str]:
        """``index -> "ok" | "failed" | "refused" | "mismatch"``.

        ``key_of`` maps an exchange index to its input key (default: the
        plan's request numbering).
        """
        import numpy as np

        key_of = key_of or self.plan.key_of
        self._fill(key_of(x.index) for x in exchanges if x.status == 200)
        verdicts = {}
        for x in exchanges:
            if x.error is not None or x.status not in (200, 429, 503):
                verdicts[x.index] = "failed"
                continue
            if x.status != 200:
                verdicts[x.index] = "refused"
                continue
            want = np.ascontiguousarray(self._expected[key_of(x.index)])
            try:
                got = np.asarray(json.loads(x.body)["outputs"],
                                 dtype=np.float64)
            except (ValueError, KeyError, TypeError):
                verdicts[x.index] = "mismatch"
                continue
            same = got.shape == want.shape and np.array_equal(
                got.view(np.int64), want.view(np.int64))
            verdicts[x.index] = "ok" if same else "mismatch"
        return verdicts

    def counts_per_sample(self) -> Dict[str, float]:
        stats = self.engine.stats_snapshot()
        samples = sum(len(v) for v in self._expected.values())
        return _per_sample(stats["ops"], stats["cam"], samples)


EXACT_COUNTS = ("cam.searches_per_sample", "cam.matchline_evals_per_sample",
                "cam.energy_per_sample", "ops.additions_per_sample",
                "ops.lookups_per_sample", "ops.multiplications_per_sample")


def _per_sample(ops: dict, cam: dict, samples: int) -> Dict[str, float]:
    totals = (cam["searches"], cam["matchline_evaluations"], cam["energy"],
              ops["additions"], ops["lookups"], ops["multiplications"])
    return {name: total / samples if samples else 0.0
            for name, total in zip(EXACT_COUNTS, totals)}


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


@dataclass
class Summary:
    """The end-to-end view of the measured windows of one or more passes."""

    attempted: int
    failed: int
    measured_s: float                     # seconds of the quiet slices
    ok_samples: int                       # answered correctly in them
    latency_ms: List[Tuple[str, float]]   # (trace id, ms) per such reply
    p50_ms: float
    p99_ms: float
    error_rate: float
    late_p99_ms: float
    steal: Tuple[float, float]            # mean steal: window, quiet slices


def quiet_slices(checked: Sequence[Tuple[Pass, Dict[int, str]]]
                 ) -> Tuple[List[Tuple[int, float, float]], float, float]:
    """The measured part of the passes' windows.

    Returns ``(slices, mean steal of the window, of the slices)``, a slice
    being ``(pass number, start, end)``: the ``QUIET_SHARE`` of the window's
    slices with the least stolen time, ties included.
    """
    clipped = []
    for number, (run, _) in enumerate(checked):
        lo, hi = run.window
        parts = [(max(a, lo), min(b, hi), steal)
                 for a, b, steal in run.slices if a < hi and b > lo]
        clipped += [(number, a, b, steal)
                    for a, b, steal in parts or [(lo, hi, 0.0)]]
    ranked = sorted(steal for *_, steal in clipped)
    limit = ranked[max(0, math.ceil(len(ranked) * QUIET_SHARE) - 1)]
    quiet = [entry for entry in clipped if entry[3] <= limit]

    def mean_steal(entries) -> float:
        seconds = sum(b - a for _, a, b, _ in entries)
        return sum((b - a) * s for _, a, b, s in entries) / seconds

    return ([(n, a, b) for n, a, b, _ in quiet], mean_steal(clipped),
            mean_steal(quiet))


def summarize(plan: Plan, checked: Sequence[Tuple[Pass, Dict[int, str]]]
              ) -> Summary:
    """Pool the replies of every pass's window (a pass with its verdicts).

    Failures count over the whole window; latency and throughput over its
    quiet slices (:func:`quiet_slices`).
    """
    import numpy as np

    window, failed, ok = [], 0, []
    by_pass = []                          # (window exchanges, their dues)
    for run, verdicts in checked:
        lo, hi = run.window
        inside = [x for x in run.exchanges if lo <= x.due < hi]
        window += inside
        failed += sum(verdicts[x.index] != "ok" for x in inside)
        inside.sort(key=lambda x: x.due)
        by_pass.append((inside, [x.due for x in inside]))
    slices, steal_all, steal_quiet = quiet_slices(checked)
    for number, a, b in slices:
        inside, times = by_pass[number]
        verdicts = checked[number][1]
        ok += [x for x in inside[bisect.bisect_left(times, a):
                                 bisect.bisect_left(times, b)]
               if verdicts[x.index] == "ok"]
    latency = [(plan.trace_id(x.index), (x.done - x.sent) * 1e3) for x in ok]
    p50, p99 = np.percentile([ms for _, ms in latency], [50, 99]).tolist() \
        if latency else (0.0, 0.0)
    late = [(x.sent - x.due) * 1e3 for x in window]
    return Summary(
        attempted=len(window), failed=failed,
        measured_s=sum(b - a for _, a, b in slices),
        ok_samples=len(ok) * plan.workload.samples, latency_ms=latency,
        p50_ms=p50, p99_ms=p99,
        error_rate=failed / len(window) if window else 1.0,
        late_p99_ms=float(np.percentile(late, 99)) if late else 0.0,
        steal=(steal_all, steal_quiet))


def _serving_payloads(workload: Workload, metrics: dict):
    """(front payload, single-server payloads that own engines)."""
    if workload.workers > 1:
        return metrics, [w for w in metrics["workers"].values()
                         if "error" not in w]
    return metrics, [metrics]


def _histogram_samples(server: dict) -> int:
    return sum(int(size) * count for size, count
               in server["batching"]["histogram"].items())


def engine_work(workload: Workload, metrics: dict) -> Tuple[int, int]:
    """(samples batched, CAM searches) summed over the serving engines."""
    _, servers = _serving_payloads(workload, metrics)
    return (sum(_histogram_samples(s["server"]) for s in servers),
            sum(model["engine"]["cam"]["searches"] for s in servers
                for model in s["models"].values()))


def server_counts(workload: Workload, metrics: dict) -> Dict[str, float]:
    """Per-sample CAM and op counts of every engine that served."""
    _, servers = _serving_payloads(workload, metrics)
    ops: Dict[str, float] = {}
    cam: Dict[str, float] = {}
    samples = 0
    for payload in servers:
        samples += _histogram_samples(payload["server"])
        for model in payload["models"].values():
            for total, part in ((ops, model["engine"]["ops"]),
                                (cam, model["engine"]["cam"])):
                for name, value in part.items():
                    total[name] = total.get(name, 0) + value
    return _per_sample(ops, cam, samples)


def server_kernels(workload: Workload, metrics: dict) -> Dict[str, str]:
    _, servers = _serving_payloads(workload, metrics)
    return next(iter(servers[0]["models"].values()))["engine"]["kernels"]


def metric_rows(workload: Workload, plan: Plan, metrics: dict,
                requests_sent: int) -> Dict[str, float]:
    """Per-layer rows read from the server's own ``/metrics``.

    Counts cover the whole pass, warm-up included.
    """
    front, servers = _serving_payloads(workload, metrics)
    every = [front] + (servers if workload.workers > 1 else [])
    ledgers = [front["router" if workload.workers > 1 else "server"]] + \
        [s["server"] for s in servers if workload.workers > 1]
    cache = front["cache"]
    lookups = cache["hits"] + cache["misses"]
    batches = sum(s["server"]["batching"]["batches"] for s in servers)
    samples = sum(_histogram_samples(s["server"]) for s in servers)
    rows = {
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.fills": cache["insertions"],
        "cache.evictions": cache["evictions"],
        "cache.coalesced": cache["coalesce"]["followers_served"],
        "qos.shed": sum(count for m in ledgers
                        for reasons in m["qos"]["shed_by_class"].values()
                        for count in reasons.values()),
        "scheduler.batches": batches,
        "scheduler.mean_batch": samples / batches if batches else 0.0,
        "engine.calls": batches,
        "trace.spans_per_request": sum(
            p["trace"]["spans_started"] for p in every) / requests_sent,
        "invariants.checks": sum(p["runtime_verification"]["checks"]
                                 for p in every),
    }
    if workload.workers > 1:
        # Workers cannot be wrapped: their rows come from their /metrics.
        stages = [s["server"]["qos"]["stages_by_class"].get("standard", {})
                  for s in servers]
        infer = [s["server"]["inference"] for s in servers]
        mean_batch = [s["server"]["batching"]["mean_batch"] or 1.0
                      for s in servers]
        rows["scheduler.batch_wait_ms"] = statistics.fmean(
            st.get("batch_wait", {}).get("p50_ms", 0.0) for st in stages)
        rows["engine.us_per_sample"] = statistics.fmean(
            i["p50_ms"] * 1e3 / b for i, b in zip(infer, mean_batch))
        rows["engine.busy_share"] = sum(
            s["server"]["batching"]["batches"] * i["p50_ms"] / 1e3
            for s, i in zip(servers, infer)) / plan.total_s
        rows["pool.proxy_retries"] = sum(
            w["proxy_failures"] for w in front["pool"]["workers"])
    return rows


def worker_latency_p50_ms(metrics: dict) -> float:
    """The pool workers' own p50 server latency (their ``/metrics``)."""
    return statistics.fmean(w["server"]["latency"]["p50_ms"]
                            for w in metrics["workers"].values()
                            if "error" not in w)


def span_rows(workload: Workload, spans: list, summary: Summary,
              window: Tuple[float, float], seconds: float):
    """Per-layer rows and the p50 ledger from the traced pass's spans."""
    lo, hi = window
    answered = {key for key, _ in summary.latency_ms}
    keyed: Dict[str, Dict[str, list]] = {}
    unkeyed: Dict[str, List[float]] = {}
    for name, key, start, duration, self_time, samples, extra in spans:
        if key is not None:
            if key in answered:
                entry = keyed.setdefault(key, {}).setdefault(
                    name, [0.0, 0.0, None])
                entry[0] += duration
                entry[1] += self_time
                entry[2] = extra
        elif lo <= start < hi:
            total = unkeyed.setdefault(name, [0.0, 0.0, 0])
            total[0] += duration
            total[1] += self_time
            total[2] += samples

    def column(name: str, part: int = 0, when=None) -> List[float]:
        return [rows[name][part] for rows in keyed.values()
                if name in rows and (when is None or when(rows[name]))]

    samples = unkeyed.get("engine.predict", [0.0, 0.0, 0])[2] or 1
    engine = unkeyed.get("engine.predict", [0.0, 0.0, 0])[0]
    rows = {
        "netfront.parse_us": _median(column("netfront.parse")) * 1e6,
        "netfront.render_us": _median(column("netfront.render")) * 1e6,
        "cache.hash_us": _median(column("cache.hash")) * 1e6,
    }
    if workload.workers == 1:
        rows.update({
            "server.http_us": _median(column("server.http", 1)) * 1e6,
            "server.predict_ms": _median(column("server.predict")) * 1e3,
            "scheduler.batch_wait_ms": _median(
                e[0] for e in column("scheduler.result", 2)) * 1e3,
            "engine.us_per_sample": engine / samples * 1e6,
            "engine.busy_share": engine / seconds,
            "ir.pecan_us_per_sample":
                unkeyed.get("ir.pecan", [0.0])[0] / samples * 1e6,
            "ir.batchnorm_us_per_sample":
                unkeyed.get("ir.batchnorm", [0.0])[0] / samples * 1e6,
            "ir.pool_us_per_sample":
                unkeyed.get("ir.pool", [0.0])[0] / samples * 1e6,
            "ir.other_us_per_sample":
                unkeyed.get("ir.run", [0.0, 0.0])[1] / samples * 1e6,
        })
    else:
        rows.update({
            "cache.hit_ms": _median(column(
                "pool.predict", when=lambda e: e[2] == "hit")) * 1e3,
            "pool.router_ms": _median(column(
                "pool.predict", when=lambda e: e[2] == "miss")) * 1e3,
            "qos.admission_wait_ms": _median(
                column("qos.admission", 2)) * 1e3,
        })
    return rows, ledger(workload, keyed, summary)


def _part(rows: dict, name: str, part: int = 0) -> float:
    entry = rows.get(name)
    return entry[part] if entry else 0.0


def _result_part(rows: dict, part: int) -> float:
    entry = rows.get("scheduler.result")
    return entry[2][part] if entry else 0.0


#: Ledger rows: (label, one request's seconds in that layer).  Each set
#: tiles the request's time from its parsed head to its rendered reply.
LEDGER_SINGLE = (
    ("netfront.parse", lambda r: _part(r, "netfront.parse")),
    ("server.http (decode, validate, encode)",
     lambda r: _part(r, "server.http", 1)),
    ("cache.hash", lambda r: _part(r, "cache.hash")),
    ("server.predict (cache fill, submit, spans)",
     lambda r: _part(r, "server.predict", 1)),
    ("scheduler.batch_wait", lambda r: _result_part(r, 0)),
    ("engine.infer", lambda r: _result_part(r, 1)),
    ("scheduler.handoff", lambda r: _part(r, "scheduler.result")
     - _result_part(r, 0) - _result_part(r, 1)),
    ("netfront.render", lambda r: _part(r, "netfront.render")),
)
LEDGER_POOL = (
    ("netfront.parse", lambda r: _part(r, "netfront.parse")),
    ("pool.http (dispatch)", lambda r: _part(r, "pool.http", 1)),
    ("cache.hash", lambda r: _part(r, "cache.hash")),
    ("qos.admission", lambda r: _part(r, "qos.admission")),
    ("pool.predict (decode, cache, hop, splice)",
     lambda r: _part(r, "pool.predict", 1)),
    ("netfront.render", lambda r: _part(r, "netfront.render")),
)


def ledger(workload: Workload, keyed: dict, summary: Summary) -> dict:
    """Mean layer times of the requests around p50 (45th-55th percentile).

    ``unattributed_ms`` is p50 minus the layer rows.
    """
    import numpy as np

    latency = summary.latency_ms
    low, high = np.percentile([ms for _, ms in latency], [45, 55]) \
        if latency else (0.0, 0.0)
    band = [key for key, ms in latency if low <= ms <= high and key in keyed]
    spec = LEDGER_POOL if workload.workers > 1 else LEDGER_SINGLE

    def mean_ms(read) -> float:
        return statistics.fmean(read(key) for key in band) * 1e3 \
            if band else 0.0

    rows = {label: mean_ms(lambda key: read(keyed[key]))
            for label, read in spec}
    attributed = sum(rows.values())
    return {"rows_ms": rows, "band_requests": len(band),
            "p50_ms": summary.p50_ms,
            "unattributed_ms": summary.p50_ms - attributed,
            "coverage": attributed / summary.p50_ms if summary.p50_ms else 0.0}


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
UNITS = {"p50_ms": "ms", "p99_ms": "ms", "throughput_sps": "samples/s",
         "setup_s": "s", "rss_mb": "MiB"}

#: Every per-layer metric of a ``--trace 1`` run.  A layer that does not run
#: on a workload (or runs in a pool worker, which cannot be wrapped) reads 0.
PER_LAYER = {
    "netfront.parse_us": "us", "netfront.render_us": "us",
    "server.http_us": "us", "server.predict_ms": "ms",
    "cache.hash_us": "us", "cache.hit_ratio": "fraction",
    "cache.fills": "count", "cache.evictions": "count",
    "cache.coalesced": "count", "cache.hit_ms": "ms",
    "qos.admission_wait_ms": "ms", "qos.shed": "count",
    "scheduler.batch_wait_ms": "ms", "scheduler.mean_batch": "samples",
    "scheduler.batches": "count",
    "engine.us_per_sample": "us", "engine.calls": "count",
    "engine.busy_share": "fraction",
    "ir.pecan_us_per_sample": "us", "ir.batchnorm_us_per_sample": "us",
    "ir.pool_us_per_sample": "us", "ir.other_us_per_sample": "us",
    "cam.searches_per_sample": "count",
    "cam.matchline_evals_per_sample": "count",
    "cam.energy_per_sample": "energy",
    "ops.additions_per_sample": "count", "ops.lookups_per_sample": "count",
    "ops.multiplications_per_sample": "count",
    "pool.router_ms": "ms", "pool.hop_ms": "ms", "pool.proxy_retries": "count",
    "trace.spans_per_request": "count", "invariants.checks": "count",
    "loadgen.late_p99_ms": "ms",
    "ledger.unattributed_ms": "ms", "ledger.coverage": "fraction",
    "trace_overhead": "ratio", "error_rate": "fraction",
}


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def check_pass(workload: Workload, checker: Checker, run: Pass,
               problems: List[str]):
    """Bitwise and exact-count checks of one pass.

    Returns ``(verdicts, per-sample counts)``.  Every request counts, the
    warm-up and cache pre-warm included.
    """
    verdicts = checker.verdicts(run.exchanges)
    warm = checker.verdicts(run.prewarm, key_of=int)
    every = [*verdicts.values(), *warm.values()]
    bad = sum(v != "ok" for v in every)
    if bad:
        problems.append(f"{bad} of {len(every)} requests failed, were "
                        f"refused or mismatched ({every.count('mismatch')} "
                        f"bitwise mismatches)")
    counts = server_counts(workload, run.metrics)
    direct = checker.counts_per_sample()
    if counts != direct:
        problems.append(f"served per-sample counts {counts} differ from a "
                        f"direct engine pass {direct}")
    if workload.model == "toy" and counts["ops.multiplications_per_sample"]:
        problems.append("PECAN-D toy network performed multiplications")
    fills = run.metrics["cache"]["insertions"]
    if not workload.zipf_items and fills != len(run.exchanges):
        # Every input is unique, so every request must fill the cache.
        problems.append(f"cache.fills {fills} != {len(run.exchanges)} "
                        f"requests sent")
    return verdicts, counts


def check_repeatable(key: str, counts: dict, problems: List[str]) -> None:
    """Exact counts must repeat across runs of the same code and seed."""
    path = WORK / "exact_counts.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    previous = store.get(key)
    if previous is not None and previous != counts:
        problems.append(f"exact counts changed across runs of {key}: "
                        f"{previous} -> {counts}")
        return
    store[key] = counts
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    import numpy

    bundle = build_bundle(workload.model, workdir)
    # Traced: the whole window on one server, untraced and then traced.
    # Untraced: an equal share of it on each of PASSES servers.
    plan = Plan(workload, seed, seconds if trace else seconds / PASSES)
    checker = Checker(plan, bundle)
    problems: List[str] = []
    setups: List[float] = []
    passes: List[Pass] = []
    for tag in (("untraced", "traced") if trace
                else [f"pass{n}" for n in range(PASSES)]):
        run, setup_s = run_pass(plan, bundle, workdir, tag,
                                ledger=tag == "traced")
        passes.append(run)
        setups.append(setup_s)
    checked = []
    for run in passes:
        verdicts, counts = check_pass(workload, checker, run, problems)
        checked.append((run, verdicts))
    measured = passes[-1]
    summary = summarize(plan, checked[-1:] if trace else checked)
    code = code_fingerprint()
    check_repeatable(f"{workload.name}|seed={seed}|seconds={seconds:g}|"
                     f"code={code}", counts, problems)

    if trace:
        untraced_p50_ms = summarize(plan, checked[:1]).p50_ms
        rows = dict.fromkeys(PER_LAYER, 0.0)
        rows.update(counts)
        rows.update(metric_rows(workload, plan, measured.metrics,
                                len(measured.exchanges)))
        layer_rows, book = span_rows(workload, measured.spans, summary,
                                     measured.window, seconds)
        rows.update(layer_rows)
        if workload.workers > 1:
            rows["pool.hop_ms"] = (rows["pool.router_ms"]
                                   - worker_latency_p50_ms(measured.metrics))
        rows.update({
            "loadgen.late_p99_ms": summary.late_p99_ms,
            "ledger.unattributed_ms": book["unattributed_ms"],
            "ledger.coverage": book["coverage"],
            "trace_overhead": summary.p50_ms / untraced_p50_ms
            if untraced_p50_ms else 0.0,
            "error_rate": summary.error_rate,
        })
        metrics = {name: {"value": float(rows[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        book = None
        values = {"p50_ms": summary.p50_ms, "p99_ms": summary.p99_ms,
                  "throughput_sps": summary.ok_samples / summary.measured_s,
                  "setup_s": statistics.median(setups),
                  "rss_mb": max(run.rss_mb for run in passes)}
        metrics = {name: {"value": float(values[name]), "unit": UNITS[name]}
                   for name in END_TO_END}
    fingerprint = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "code": code, "platform": platform.machine(),
        "REPRO_DISABLE_CKERNELS": os.environ.get("REPRO_DISABLE_CKERNELS"),
        "kernels": server_kernels(workload, measured.metrics),
        "loadgen.late_p99_ms": summary.late_p99_ms,
    }
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "fingerprint": fingerprint,
        "setup_launches_s": setups,
        "window": {"attempted": summary.attempted, "failed": summary.failed,
                   "error_rate": summary.error_rate,
                   "measured_s": summary.measured_s,
                   "ok_requests": len(summary.latency_ms),
                   "steal_window": summary.steal[0],
                   "steal_measured": summary.steal[1]},
        "ledger": book, "problems": problems,
        "result": {"correct": not problems, "attempted": summary.attempted,
                   "failed": summary.failed, "metrics": metrics},
    }


def report(record: dict) -> None:
    """Human-readable lines; the JSON result is printed after them."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"window {record['seconds']:g} s  trace {record['trace']}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    window = record["window"]
    print(f"  requests in window: {window['attempted']} attempted, "
          f"error_rate {window['error_rate']:.6g}")
    print(f"  measured: the quietest {window['measured_s']:.1f} s of it "
          f"(host steal {window['steal_measured']:.3f} vs "
          f"{window['steal_window']:.3f} over the window), "
          f"{window['ok_requests']} bitwise-correct replies (the p50 and "
          f"p99 sample)")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    book = record["ledger"]
    if book:
        print(f"  ledger of the {book['band_requests']} requests around p50 "
              f"({book['p50_ms']:.3f} ms):")
        for label, ms in sorted(book["rows_ms"].items(),
                                key=lambda item: -item[1]):
            print(f"    {label:44s} {ms:9.3f} ms")
        print(f"    {'unattributed':44s} {book['unattributed_ms']:9.3f} ms")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)      # unwinds, stopping every server


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    except BaseException:
        print(f"run failed; server logs kept in {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir)
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-"
     f"{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
