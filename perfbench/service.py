"""The service workload, ``service-mix``.

The service runs as a child process (``python -m repro serve --port 0``)
and is driven through ``ServiceClient`` from this process, with at most
``nproc`` threads and connections.  Per run:

1. :data:`SETUP_BOOTS` times: boot the service and force its worker pool
   up with one compiling warm-up job (the pool starts lazily), which is
   the timed set-up; then one cold sweep of a fixed manifest and warm
   relabelled resubmissions of it (compile, quality and sweep metrics,
   each the median over the boots and sweeps);
2. on the last boot, an open loop at :data:`OPEN_RATE`, each request timed
   from its due time (latency percentiles);
3. a closed loop of ``nproc`` clients over the same mix (saturation).

As in the batch workload, set-up and sweep timings are corrected for the
host's speed (``harness.HostClock``), sampled before and after each set-up
and between the sweeps of a boot; the uncorrected figures go to the report.
Open-loop latency and closed-loop throughput are not: they did not follow
the reference task.  Over five seeds on a 2-core host the corrected p50
spread 0.34 of its median and the uncorrected one 0.09.

The traced run then boots ``repro serve --fleet 2`` and sends it the first
:data:`FLEET_PROBE_REQUESTS` open-loop requests, then fetches finished
jobs through the router and straight from their shard: the router hop and
the shared cache tier, which the single service does not have.

The request plan is a pure function of (workload, seed).  It mixes new
submissions (distinct labels; twelve small circuits, each compiled the
first time it is drawn), idempotent resubmits and result re-fetches of
earlier jobs.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Any

from harness import (
    ROOT,
    HostClock,
    child_env,
    digest,
    log,
    make_tmpdir,
    median,
    nearest_rank,
    remove_tmpdir,
)
from metrics import zero_layers

FAMILIES = ("qft", "bv", "qaoa", "alt")
#: Twelve circuits of 1-5 ms compiles: the few compiles of a run add
#: pool dispatch without setting the p99 on their own.
LOOP_SIZES = (4, 5, 6)
LOOP_TARGET = ("G-2x2", 4)
#: 36 compiles, ~0.56 s of compile time on one core.
SWEEP_SIZES = tuple(range(4, 13))
SWEEP_TARGET = ("G-2x3", 3)
#: Offered rate of the open loop, well below the 240-330 req/s the closed
#: loop reaches on 2 cores; 2000 requests leave 20 samples beyond p99.
OPEN_RATE = 100.0
OPEN_REQUESTS = 2000
CLOSED_PLAN = 12000
MIX = (("new", 0.4), ("resubmit", 0.3), ("refetch", 0.3))
#: A re-fetch or resubmit targets a job due at least this much earlier.
REPEAT_MIN_AGE_S = 1.0
WARM_SWEEPS = 3
SETUP_BOOTS = 5
IDENTITY_SAMPLE = 5
#: The fleet probe: 5 s of the open loop, enough for every loop circuit to
#: be drawn on both shards, then this many router/direct fetch pairs.
FLEET_PROBE_REQUESTS = 500
HOP_PROBES = 100
WARMUP_CIRCUITS = ("bv_3", "qft_3", "qaoa_3", "alt_3")
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def _manifest(jobs: list[tuple[str, str, int]], label: str) -> bytes:
    document = {
        "jobs": [
            {"circuit": circuit, "device": device, "capacity": capacity, "label": label}
            for circuit, device, capacity in jobs
        ]
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def sweep_manifest(label: str) -> bytes:
    device, capacity = SWEEP_TARGET
    return _manifest([(f"{f}_{n}", device, capacity) for f in FAMILIES for n in SWEEP_SIZES], label)


@dataclass(frozen=True)
class Op:
    index: int
    kind: str  #: new | resubmit | refetch
    due_s: float  #: offset from the phase start (open loop only)
    body: bytes  #: the manifest of a new or resubmitted job
    target: int  #: index of the open-loop new op a repeat refers to, else -1


def _draw_ops(
    rng: random.Random, count: int, spacing: float, prefix: str, targets: list[Op]
) -> list[Op]:
    """``count`` ops; repeats refer to ``targets`` or to new ops drawn here."""
    own_new: list[Op] = []
    ops: list[Op] = []
    kinds, weights = zip(*MIX)
    for index in range(count):
        due = index * spacing
        eligible = targets or [op for op in own_new if op.due_s <= due - REPEAT_MIN_AGE_S]
        kind = rng.choices(kinds, weights)[0] if eligible else "new"
        if kind == "new":
            circuit = f"{rng.choice(FAMILIES)}_{rng.choice(LOOP_SIZES)}"
            device, capacity = LOOP_TARGET
            op = Op(index, kind, due, _manifest([(circuit, device, capacity)], f"{prefix}{index}"), -1)
            own_new.append(op)
        else:
            target = rng.choice(eligible)
            op = Op(index, kind, due, target.body if kind == "resubmit" else b"", target.index)
        ops.append(op)
    return ops


def make_plan(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """(open-loop ops, closed-loop ops): a pure function of (workload, seed).

    Closed-loop repeats refer only to open-loop jobs, which have all
    finished by then.
    """
    rng = random.Random(f"{workload}:{seed}")
    open_ops = _draw_ops(rng, OPEN_REQUESTS, 1.0 / OPEN_RATE, "o", [])
    finished = [op for op in open_ops if op.kind == "new"]
    closed_ops = _draw_ops(rng, CLOSED_PLAN, 0.0, "c", finished)
    return open_ops, closed_ops


def plan_digest(open_ops: list[Op], closed_ops: list[Op]) -> str:
    return digest(
        [[op.kind, op.due_s, op.body.decode("utf-8"), op.target] for op in open_ops + closed_ops]
    )


# ----------------------------------------------------------------------
# the service child process
# ----------------------------------------------------------------------
class Service:
    """One ``repro serve`` child in its own session, with its stores in a temp dir.

    ``fleet`` boots a router over two single-worker shards instead.
    """

    def __init__(self, fleet: bool) -> None:
        self.fleet = fleet
        self.dir = make_tmpdir("service-")
        workers = 1 if fleet else min(2, os.cpu_count() or 1)
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(workers), "--slots", "2",
            "--cache-dir", str(self.dir / "store"),
        ]
        if fleet:
            command += ["--fleet", "2"]
        self.log_path = self.dir / "serve.log"
        with open(self.log_path, "wb") as log_file:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log_file,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.url = self._wait_ready()

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        pattern = re.compile(rb"listening on (http://\S+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode("ascii")
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"service did not start: {self.log_path.read_text()[-2000:]}")

    def warm_up(self) -> list[bytes]:
        """Compile one job on every shard so each worker pool is running."""
        from repro.runtime.manifest import jobs_from_manifest_text
        from repro.service.client import ServiceClient
        from repro.service.jobs import job_batch_id

        shards = 2 if self.fleet else 1
        bodies: dict[int, bytes] = {}
        for circuit in WARMUP_CIRCUITS:
            body = _manifest([(circuit, "G-2x2", 4)], "warm-up")
            shard = int(job_batch_id(jobs_from_manifest_text(body)), 16) % shards
            bodies.setdefault(shard, body)
            if len(bodies) == shards:
                break
        with ServiceClient(self.url) as client:
            for body in bodies.values():
                outcomes = client.results(client.submit(body)["job_id"])
                if len(outcomes) != 1 or outcomes[0]["from_cache"]:
                    raise RuntimeError("warm-up job did not compile")
        return list(bodies.values())

    def stop(self) -> None:
        """Interrupt (graceful drain), then kill whatever is left of the session."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        remove_tmpdir(self.dir)


# ----------------------------------------------------------------------
# metrics scrapes
# ----------------------------------------------------------------------
def scrape(client: Any) -> list[Any]:
    from repro.obs import parse_exposition

    return [s for family in parse_exposition(client.metrics()).values() for s in family.samples]


def total(samples: list[Any], name: str, **labels: str) -> float:
    return sum(
        s.value for s in samples
        if s.name == name and all(s.labels_dict().get(k) == v for k, v in labels.items())
    )


def delta(before: list[Any], after: list[Any], name: str, **labels: str) -> float:
    return total(after, name, **labels) - total(before, name, **labels)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
@dataclass
class Result:
    op: Op
    due: float
    start: float
    submitted: float
    end: float
    ok: bool
    resubmitted: bool = False
    record: dict | None = None
    error: str | None = None


class Generator:
    """Executes ops against one service; remembers the job id of every new op."""

    def __init__(self, client: Any) -> None:
        self.client = client
        self.job_ids: dict[int, str] = {}
        self.done: dict[int, threading.Event] = {}

    def execute(self, op: Op, due: float) -> Result:
        start = time.perf_counter()
        submitted = start
        resubmitted = False
        event = self.done.setdefault(op.index, threading.Event()) if op.kind == "new" else None
        try:
            if op.kind == "refetch":
                self.done.setdefault(op.target, threading.Event()).wait(60.0)
                job_id = self.job_ids[op.target]
            else:
                receipt = self.client.submit(op.body)
                job_id = receipt["job_id"]
                resubmitted = bool(receipt.get("resubmitted"))
                if event is not None:
                    self.job_ids[op.index] = job_id
                submitted = time.perf_counter()
            lines = list(self.client.stream_results(job_id))
            end = time.perf_counter()
            outcomes = [line for line in lines if line.get("type") == "outcome"]
            ok = bool(lines) and lines[-1].get("status") == "done" and len(outcomes) == 1
            record = outcomes[0]["record"] if outcomes else None
            return Result(op, due, start, submitted, end, ok, resubmitted, record,
                          None if ok else f"stream ended {lines[-1] if lines else 'empty'}")
        except Exception as exc:  # noqa: BLE001 - a failed request is a data point
            end = time.perf_counter()
            return Result(op, due, start, submitted, end, False, error=f"{type(exc).__name__}: {exc}")
        finally:
            if event is not None:
                event.set()

    def open_loop(self, ops: list[Op], threads: int) -> tuple[list[Result], float]:
        """Send each op at its due time; a late op is still timed from it."""
        results: list[Result | None] = [None] * len(ops)
        counter = itertools.count()
        origin = time.perf_counter() + 0.05

        def worker() -> None:
            while True:
                index = next(counter)
                if index >= len(ops):
                    return
                due = origin + ops[index].due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                results[index] = self.execute(ops[index], due)

        wall = _run_threads(worker, threads)
        return [r for r in results if r is not None], wall

    def closed_loop(self, ops: list[Op], threads: int, seconds: float) -> tuple[list[Result], float]:
        results: list[Result] = []
        counter = itertools.count()
        stop_at = time.perf_counter() + seconds

        def worker() -> None:
            while time.perf_counter() < stop_at:
                index = next(counter)
                if index >= len(ops):
                    return
                now = time.perf_counter()
                results.append(self.execute(ops[index], now))

        wall = _run_threads(worker, threads)
        return results, wall


def _run_threads(target: Any, count: int) -> float:
    # The generator's own collector pauses would show up as send lag, so
    # it is held off while the loop runs; the service is not affected.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started
    finally:
        gc.enable()


@dataclass
class Sweep:
    wall_s: float
    lines: list[dict]

    @property
    def compile_s(self) -> float:
        return sum(line["compile_time_s"] for line in self.lines if not line["from_cache"])


@dataclass
class Sweeps:
    cold: Sweep
    warm: list[Sweep]
    problems: list[str]
    factor: float  #: reference-host seconds per second over the boot's sweeps


def run_sweeps(client: Any) -> Sweeps:
    """One cold sweep, then :data:`WARM_SWEEPS` relabelled warm ones."""
    clock = HostClock()
    cold = sweep(client, sweep_manifest("sweep-cold"), clock)
    warm = [sweep(client, sweep_manifest(f"sweep-warm-{i}"), clock) for i in range(WARM_SWEEPS)]
    problems = []
    if any(unlabelled(w.lines) != unlabelled(cold.lines) for w in warm):
        problems.append("warm sweep records differ from the cold sweep")
    if any(not line["from_cache"] for w in warm for line in w.lines):
        problems.append("a warm sweep compiled")
    return Sweeps(cold, warm, problems, clock.factor())


def sweep(client: Any, body: bytes, clock: HostClock) -> Sweep:
    """Submit one manifest and drain its stream, then sample the host."""
    started = clock.elapsed()
    receipt = client.submit(body)
    lines = list(client.stream_results(receipt["job_id"]))
    wall = clock.tick() - started
    if not lines or lines[-1].get("status") != "done":
        raise RuntimeError(f"sweep did not finish: {lines[-1] if lines else 'no lines'}")
    return Sweep(wall, [line for line in lines if line.get("type") == "outcome"])


def hop_probe(client: Any, url: str, job_ids: list[str]) -> dict[str, Any]:
    """Fetch finished jobs via the router and straight from their shard."""
    from repro.service.client import ServiceClient

    with urllib.request.urlopen(url + "/v1/fleet", timeout=30) as response:
        workers = json.load(response)["workers"]
    direct_clients = [ServiceClient(w["url"]) for w in workers]
    via_router: list[float] = []
    direct: list[float] = []
    try:
        for i, job_id in enumerate(job_ids):
            owner = direct_clients[int(job_id, 16) % len(direct_clients)]
            pair = [(client, via_router), (owner, direct)]
            for fetch_client, samples in pair if i % 2 == 0 else reversed(pair):
                started = time.perf_counter()
                list(fetch_client.stream_results(job_id))
                samples.append(time.perf_counter() - started)
    finally:
        for direct_client in direct_clients:
            direct_client.close()
    router_p50, _ = nearest_rank(via_router, 50)
    direct_p50, _ = nearest_rank(direct, 50)
    return {"router_p50_ms": router_p50 * 1000, "direct_p50_ms": direct_p50 * 1000, "samples": len(job_ids)}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def unlabelled(lines: list[dict]) -> list[dict]:
    """Outcome records without their label, which warm resubmissions change."""
    return [{k: v for k, v in line["record"].items() if k != "label"} for line in lines]


def canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8")


def identity_problems(samples: list[tuple[bytes, list[dict]]]) -> list[str]:
    """Service records must be byte-identical to ``run_batch`` on the same manifest."""
    from repro.runtime import run_batch
    from repro.runtime.manifest import jobs_from_manifest_text

    problems = []
    for body, records in samples:
        expected = [o.encoded_record() for o in run_batch(jobs_from_manifest_text(body))]
        if [canonical(r) for r in records] != expected:
            problems.append(f"records differ from run_batch for {body[:80]!r}")
    return problems


def distinct_compiles(bodies: list[bytes]) -> int:
    from repro.runtime.manifest import jobs_from_manifest_text

    fingerprints = set()
    for body in set(bodies):
        fingerprints.update(job.compile_fingerprint() for job in jobs_from_manifest_text(body))
    return len(fingerprints)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    from repro.service.client import ServiceClient

    threads = min(2, os.cpu_count() or 1)
    open_ops, closed_ops = make_plan(workload, seed)

    setup_times: list[float] = []
    setup_factors: list[float] = []
    sweeps: list[Sweeps] = []
    service: Service | None = None
    problems: list[str] = []
    try:
        for boot in range(SETUP_BOOTS):
            clock = HostClock()
            service = Service(fleet=False)
            service.warm_up()
            setup_times.append(clock.stop())
            setup_factors.append(clock.factor())
            with ServiceClient(service.url, timeout=60.0) as client:
                sweeps.append(run_sweeps(client))
            if boot < SETUP_BOOTS - 1:
                service.stop()
        log(f"{workload}: set-up {setup_times}")
        client = ServiceClient(service.url, timeout=60.0)
        generator = Generator(client)
        before_open = scrape(client)
        open_results, open_wall = generator.open_loop(open_ops, threads)
        after_open = scrape(client)
        closed_seconds = max(2.0, seconds - OPEN_REQUESTS / OPEN_RATE)
        closed_results, closed_wall = generator.closed_loop(closed_ops, threads, closed_seconds)
        log(f"{workload}: open {len(open_results)} in {open_wall:.2f}s, closed {len(closed_results)} in {closed_wall:.2f}s")
        client.close()
    finally:
        if service is not None:
            service.stop()
    fleet = fleet_probe(open_ops[:FLEET_PROBE_REQUESTS], threads) if traced else None

    # -------- checks, outside the timed region --------
    fleet_results = fleet["results"] if fleet else []
    results = open_results + closed_results + fleet_results
    failed = [r for r in results if not r.ok]
    if len(open_results) != len(open_ops):
        problems.append(f"open loop ran {len(open_results)} of {len(open_ops)} requests")
    cold_lines = sweeps[0].cold.lines
    for other in sweeps:
        problems += other.problems
        if unlabelled(other.cold.lines) != unlabelled(cold_lines):
            problems.append("cold sweep records differ between boots")
    sample = [(sweep_manifest("sweep-cold"), [line["record"] for line in cold_lines])]
    for loop_results in (open_results, fleet_results):
        sample += [
            (r.op.body, [r.record]) for r in loop_results if r.op.kind == "new" and r.ok
        ][:IDENTITY_SAMPLE]
    problems += identity_problems(sample)
    attempted = len(results) + len(sweeps) * (1 + WARM_SWEEPS) + len(sample)
    report_failures = [f"op {r.op.index} ({r.op.kind}): {r.error}" for r in failed[:10]]

    # -------- end-to-end metrics --------
    latencies = [r.end - r.due for r in open_results]
    p50, _ = nearest_rank(latencies, 50)
    p99, beyond_p99 = nearest_rank(latencies, 99)
    tail = sorted(open_results, key=lambda r: r.due - r.end)[: beyond_p99 + 1]
    cold_records = [line["record"] for line in cold_lines]
    uncorrected = {
        "setup_s": median(setup_times),
        "compile_s": median(boot.cold.compile_s for boot in sweeps),
        "sweep_cold_s": median(boot.cold.wall_s for boot in sweeps),
        "sweep_warm_s": median(w.wall_s for boot in sweeps for w in boot.warm),
    }
    end_to_end = {
        "setup_s": median(t * f for t, f in zip(setup_times, setup_factors)),
        "compile_s": median(boot.cold.compile_s * boot.factor for boot in sweeps),
        "ssync_shuttles": float(sum(r["shuttles"] for r in cold_records)),
        "ssync_swaps": float(sum(r["swaps"] for r in cold_records)),
        "sweep_cold_s": median(boot.cold.wall_s * boot.factor for boot in sweeps),
        "sweep_warm_s": median(w.wall_s * boot.factor for boot in sweeps for w in boot.warm),
        "latency_p50_ms": p50 * 1000.0,
        "latency_p99_ms": p99 * 1000.0,
        "saturation_rps": sum(1 for r in closed_results if r.ok) / closed_wall,
    }
    report: dict[str, Any] = {
        "open_loop": {
            "rate_rps": OPEN_RATE, "requests": len(open_results), "wall_s": open_wall,
            "latency_samples": len(latencies), "samples_beyond_p99": beyond_p99,
            "tail": [
                {"kind": r.op.kind, "index": r.op.index, "latency_ms": 1000 * (r.end - r.due),
                 "send_lag_ms": 1000 * (r.start - r.due)}
                for r in tail
            ],
        },
        "closed_loop": {"clients": threads, "requests": len(closed_results), "wall_s": closed_wall},
        "setup_s": setup_times,
        "uncorrected": uncorrected,
        "host_factor": {"setup": setup_factors, "sweeps": [boot.factor for boot in sweeps]},
        "sweep_jobs": len(cold_lines),
        "problems": problems,
        "failed_requests": report_failures,
    }
    layers = None
    if traced:
        layers = service_layers(open_results, open_wall, before_open, after_open)
        layers.update(fleet["layers"])
        report["tracing_overhead_s"] = "0 by construction: the traced run only adds /v1/metrics scrapes between phases"
        report["open_loop_per_route_ms"] = {
            route: 1000 * delta(before_open, after_open, "repro_http_request_seconds_sum", route=route)
            / max(1.0, delta(before_open, after_open, "repro_http_request_seconds_count", route=route))
            for route in ROUTES
        }
        report["open_loop_attribution_s"] = attribution(open_results, before_open, after_open)
        report["fleet_probe"] = fleet["report"]
    return {
        "attempted": attempted,
        "failed": min(attempted, len(failed) + len(problems)),
        "end_to_end": end_to_end,
        "layers": layers,
        "plan_digest": plan_digest(open_ops, closed_ops),
        "report": report,
    }


ROUTES = ("/v1/jobs", "/v1/jobs/{id}/results")


def attribution(open_results: list[Result], before: list[Any], after: list[Any]) -> dict[str, float]:
    """Client latency of the open loop and the part the server accounts for.

    The server's HTTP time (both routes, time to last byte) contains the
    queue wait and the compile time, which are its breakdown; client time
    beyond it is send lag and transport.
    """
    return {
        "client_latency_s": sum(r.end - r.due for r in open_results),
        "http_server_s": sum(delta(before, after, "repro_http_request_seconds_sum", route=r) for r in ROUTES),
        "queue_wait_s": delta(before, after, "repro_scheduler_queue_latency_seconds_sum"),
        "compile_s": delta(before, after, "repro_engine_compile_seconds_total"),
    }


def service_layers(
    open_results: list[Result], open_wall: float, before: list[Any], after: list[Any]
) -> dict[str, float]:
    values = zero_layers()
    submits = [r.submitted - r.start for r in open_results if r.op.kind != "refetch"]
    streams = [r.end - r.submitted for r in open_results]
    lags = [r.start - r.due for r in open_results]
    receipts = [r for r in open_results if r.op.kind != "refetch"]
    spent = attribution(open_results, before, after)
    http_count = sum(delta(before, after, "repro_http_request_seconds_count", route=r) for r in ROUTES)
    queue_count = delta(before, after, "repro_scheduler_queue_latency_seconds_count")
    slots = total(after, "repro_scheduler_slots")
    hits = delta(before, after, "repro_cache_hits_total")
    misses = delta(before, after, "repro_cache_misses_total", tier="local")
    values.update({
        "service.submit_ms": nearest_rank(submits, 50)[0] * 1000.0,
        "service.stream_ms": nearest_rank(streams, 50)[0] * 1000.0,
        "service.http_server_ms": 1000.0 * spent["http_server_s"] / max(http_count, 1.0),
        "service.queue_wait_ms": 1000.0 * spent["queue_wait_s"] / max(queue_count, 1.0),
        "service.slot_busy_share": delta(before, after, "repro_scheduler_slot_busy_seconds_total") / (open_wall * max(slots, 1.0)),
        "service.journal_bytes": delta(before, after, "repro_journal_bytes_written_total"),
        "service.result_store_bytes": delta(before, after, "repro_result_store_bytes_written_total"),
        "service.resubmit_ratio": sum(1 for r in receipts if r.resubmitted) / max(len(receipts), 1),
        "loadgen.send_lag_p99_ms": nearest_rank(lags, 99)[0] * 1000.0,
        "pool.worker_compile_s": spent["compile_s"],
        "pool.compilations": delta(before, after, "repro_engine_compilations_total"),
        "cache.hit_ratio": hits / max(hits + misses, 1.0),
        "cache.disk_hits": delta(before, after, "repro_cache_hits_total", tier="disk"),
        "trace.attributed_share": spent["http_server_s"] / spent["client_latency_s"],
    })
    return values


def fleet_probe(ops: list[Op], threads: int) -> dict[str, Any]:
    """Open-loop ``ops`` against a 2-shard fleet, then the router-hop probe."""
    from repro.service.client import ServiceClient

    fleet = Service(fleet=True)
    try:
        warmup_bodies = fleet.warm_up()
        with ServiceClient(fleet.url, timeout=60.0) as client:
            before = scrape(client)
            generator = Generator(client)
            results, wall = generator.open_loop(ops, threads)
            at_end = scrape(client)
            finished = [generator.job_ids[op.index] for op in ops if op.kind == "new"][:HOP_PROBES]
            hop = hop_probe(client, fleet.url, finished)
    finally:
        fleet.stop()
    distinct = distinct_compiles(warmup_bodies + [op.body for op in ops if op.body])
    layers = {
        "fleet.router_hop_ms": hop["router_p50_ms"] - hop["direct_p50_ms"],
        "fleet.recompilations": total(at_end, "repro_engine_compilations_total") - distinct,
        "cache_tier.network_hits": delta(before, at_end, "repro_cache_hits_total", tier="network"),
        "cache_tier.errors": delta(before, at_end, "repro_cache_network_errors_total"),
    }
    report = {"requests": len(results), "wall_s": wall, "distinct_compiles": distinct, "hop": hop}
    return {"results": results, "layers": layers, "report": report}
