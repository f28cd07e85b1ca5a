"""The batch workload, ``paper-sweep``, through ``run_batch``.

The job set is the scaled Figs. 8-10 table crossed with three compilers and
four gate implementations.  One repetition runs it on an empty disk cache
(cold), then again through a fresh :class:`ScheduleCache` on the same
directory (warm).  Jobs compile serially in this process (one worker), so
the host-speed samples taken between outcomes never compete with compiling
workers for the host's cores; compiles are <10% of a pass anyway.

A run makes a fixed number of repetitions for its ``--seconds``.  Each
pass's timings are corrected for the host's speed while it ran, sampled by
the benchmark's own reference task every few outcomes
(``harness.HostClock``), and each metric is the median over repetitions.
On a shared 2-core host the uncorrected pass times of one run moved by a
third within a minute; they stay in the report beside the corrected ones.
Outputs are checked after the timed region: every distinct schedule is
replayed through ``verify_schedule`` against its circuit, the cold and warm
records must be identical, and success rates must lie in [0, 1].
"""

from __future__ import annotations

import gc
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness import (
    BENCH_DIR,
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
from spans import Span, Tracer, summarize

COMPILERS = ("s-sync", "murali", "dai")
GATE_IMPLEMENTATIONS = ("fm", "am1", "am2", "pm")
SETUP_REPEATS = 3
#: Wall time of one repetition (a cold and a warm pass) on a 2-core host;
#: a run makes ``round(seconds / REP_SECONDS)`` repetitions, at least two.
REP_SECONDS = 12.0
#: Outcomes between two samples of the host's speed in a pass (~0.25 s).
HOST_SAMPLE_EVERY = 10


def make_plan() -> list[dict[str, Any]]:
    """The job set as plain data.

    It is fixed by its definition, so a run's seed is recorded but changes
    nothing: the seed could only reorder the jobs.
    """
    from bench_common import SCALED_WORKLOADS

    return [
        {"circuit": circuit, "device": device, "compiler": compiler, "gate_implementation": gate}
        for circuit, devices in SCALED_WORKLOADS.items()
        for device in devices
        for compiler in COMPILERS
        for gate in GATE_IMPLEMENTATIONS
    ]


def build_inputs(plan: list[dict[str, Any]]) -> None:
    """Build the jobs and every distinct circuit and device they name."""
    from repro.runtime import CompileJob

    seen = set()
    for job in (CompileJob(**row) for row in plan):
        key = (job.circuit, job.device, job.capacity)
        if key not in seen:
            seen.add(key)
            job.resolve_circuit()
            job.resolve_device()


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import and build the
    inputs, each corrected for the host's speed around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        clock = HostClock()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe"],
            cwd=ROOT,
            env=child_env(),
            check=True,
        )
        times.append(clock.stop() * clock.factor())
    return median(times)


@dataclass
class Pass:
    """One ``run_batch`` call, timed."""

    wall_s: float
    finish_times: list[float]  #: seconds from the call to each outcome, in job order
    result: Any
    factor: float  #: reference-host seconds per second during the call (``HostClock``)
    sampling_s: float  #: time the clock spent sampling, left out of ``wall_s``


@dataclass
class Rep:
    cold: Pass
    warm: Pass
    cache_dir: Path
    spans: list[Span] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.cold.wall_s + self.warm.wall_s


def run_rep(plan: list[dict[str, Any]], tracer: Tracer | None = None) -> Rep:
    """A cold and a warm pass, each sampling the host's speed as it runs."""
    from repro.runtime import CompileJob, ScheduleCache, run_batch

    cache_dir = make_tmpdir("batch-cache-")
    passes = []
    if tracer is not None:
        install(tracer)
    try:
        for _ in range(2):
            jobs = [CompileJob(**row) for row in plan]
            finished: list[float] = []
            clock = HostClock(every=HOST_SAMPLE_EVERY)
            result = run_batch(
                jobs,
                workers=1,
                cache=ScheduleCache(directory=cache_dir),
                on_outcome=lambda outcome: finished.append(clock.tick()),
            )
            wall = clock.stop()
            passes.append(Pass(wall, finished, result, clock.factor(), clock.paused))
    finally:
        if tracer is not None:
            tracer.restore()
    spans = list(tracer.spans) if tracer else []
    return Rep(*passes, cache_dir, spans)


def fresh_compiles(result: Any) -> dict[str, Any]:
    """One outcome per distinct compile fingerprint that was compiled, not cached."""
    out: dict[str, Any] = {}
    for outcome in result.outcomes:
        if not outcome.from_cache:
            out.setdefault(outcome.compile_fingerprint, outcome)
    return out


def ssync_rows(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [r for r in records if r["compiler"] == "s-sync" and r["gate_implementation"] == "fm"]


def rep_metrics(rep: Rep, jobs: int, correct: bool = True) -> dict[str, float]:
    """One repetition's timings, corrected for host speed unless ``correct`` is false."""
    cold, warm = rep.cold, rep.warm
    scale_cold = cold.factor if correct else 1.0
    scale_warm = warm.factor if correct else 1.0
    compiled = sum(o.compile_time_s for o in fresh_compiles(cold.result).values())
    return {
        "compile_s": compiled * scale_cold,
        "sweep_cold_s": cold.wall_s * scale_cold,
        "sweep_warm_s": warm.wall_s * scale_warm,
        "latency_p50_ms": nearest_rank(cold.finish_times, 50)[0] * 1000.0 * scale_cold,
        "latency_p99_ms": nearest_rank(cold.finish_times, 99)[0] * 1000.0 * scale_cold,
        "saturation_rps": jobs / (warm.wall_s * scale_warm),
    }


# ----------------------------------------------------------------------
# output checks (outside the timed region)
# ----------------------------------------------------------------------
def initial_state(job: Any, circuit: Any, device: Any) -> Any:
    """Re-run the job's mapping pass: the occupancy its schedule starts from."""
    from repro.pipeline import PassContext
    from repro.registry import make_pipeline

    pipeline = make_pipeline(job.resolved_compiler(), device, config=job.config)
    context = PassContext(
        circuit=circuit,
        device=device,
        compiler_name=pipeline.name,
        requested_mapping=job.initial_mapping,
    )
    pipeline.passes[0].run(context)
    return context.initial_state


def check_rep(rep: Rep, plan: list[dict[str, Any]], verify: bool) -> list[str]:
    """Problems found in one repetition's outputs; empty when all hold."""
    from repro.runtime import CompileJob, ScheduleCache
    from repro.schedule.verify import ScheduleVerificationError, verify_schedule

    problems: list[str] = []
    cold = rep.cold.result.records()
    if len(cold) != len(plan):
        problems.append(f"expected {len(plan)} outcomes, got {len(cold)}")
    if rep.warm.result.records() != cold:
        problems.append("cold and warm records differ")
    for record in cold:
        if not 0.0 <= record["success_rate"] <= 1.0:
            problems.append(f"success rate {record['success_rate']} outside [0, 1]")
    if not verify:
        return problems
    cache = ScheduleCache(directory=rep.cache_dir)
    jobs = [CompileJob(**row) for row in plan]
    checked: set[str] = set()
    for job, record in zip(jobs, cold):
        fingerprint = job.compile_fingerprint()
        if fingerprint in checked:
            continue
        checked.add(fingerprint)
        entry = cache.peek(fingerprint)
        if entry is None:
            problems.append(f"{fingerprint[:12]}: schedule missing from the cache")
            continue
        circuit, device = job.resolve_circuit(), job.resolve_device()
        try:
            report = verify_schedule(
                entry.schedule(), initial_state(job, circuit, device), circuit=circuit
            )
        except ScheduleVerificationError as exc:
            problems.append(f"{job.describe()}: {exc}")
            continue
        if (report.shuttles, report.swaps) != (record["shuttles"], record["swaps"]):
            problems.append(f"{job.describe()}: replayed counts differ from the record")
    return problems


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (class level, aliases included)."""
    from repro.circuit.library import suite
    from repro.noise.evaluator import ScheduleEvaluator
    from repro.runtime.cache import CachedCompilation, ScheduleCache
    from repro.runtime.jobs import CompileJob, compile_job
    from repro.runtime.pool import BatchCompiler

    def circuit_key(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["key"] = "_".join(str(a) for a in args)

    def evaluated(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["ops"] = len(args[1])

    def encoded(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["bytes"] = len(result)

    def looked_up(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["tier"] = result[1]

    tracer.patch_method(CompileJob, "compile_fingerprint", "jobs.fingerprint")
    tracer.patch_method(CompileJob, "fingerprint", "jobs.fingerprint")
    tracer.patch_function(suite.build_benchmark, "circuit.build", circuit_key)
    tracer.patch_function(suite.build_family, "circuit.build", circuit_key)
    tracer.patch_method(ScheduleEvaluator, "evaluate", "noise.evaluate", evaluated)
    tracer.patch_method(CachedCompilation, "to_bytes", "schedule.encode", encoded)
    tracer.patch_method(CachedCompilation, "from_bytes", "schedule.decode")
    tracer.patch_method(CachedCompilation, "schedule", "schedule.decode")
    tracer.patch_method(ScheduleCache, "lookup", "cache.lookup", looked_up)
    tracer.patch_method(ScheduleCache, "put", "cache.put")
    tracer.patch_method(BatchCompiler, "run", "pool.run")
    tracer.patch_function(compile_job, "pipeline.compile")


def layer_metrics(rep: Rep) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer numbers of one traced repetition, plus the span summary."""
    spans = rep.spans
    summary = summarize(spans)
    values = zero_layers()

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    fresh = {}
    compilations = 0
    for result in (rep.cold.result, rep.warm.result):
        fresh.update(fresh_compiles(result))
        compilations += result.compilations
    for outcome in fresh.values():
        compiler = outcome.record["compiler"]
        for timing in outcome.pass_timings:
            seconds = timing["wall_time_s"]
            if compiler == "s-sync" and timing["name"] == "routing":
                values["pipeline.routing_s"] += seconds
                values["pipeline.routing_candidates"] += timing["statistics"].get("candidate_evaluations", 0)
                values["pipeline.routing_iterations"] += timing["statistics"].get("generic_swap_iterations", 0)
            elif compiler == "s-sync" and timing["name"] == "initial-mapping":
                values["pipeline.mapping_s"] += seconds
            elif timing["name"] == "routing":
                values["pipeline.baseline_routing_s"] += seconds

    builds = [
        s for s in spans
        if s.name == "circuit.build" and (s.parent is None or spans[s.parent].name != "circuit.build")
    ]
    lookups = [s for s in spans if s.name == "cache.lookup"]
    values.update({
        "circuit.build_s": self_s("circuit.build"),
        "circuit.builds": float(len(builds)),
        "circuit.distinct_per_build": len({s.attrs["key"] for s in builds}) / len(builds) if builds else 0.0,
        "jobs.fingerprint_s": self_s("jobs.fingerprint"),
        "schedule.encode_s": self_s("schedule.encode"),
        "schedule.encode_bytes": float(sum(s.attrs.get("bytes", 0) for s in spans if s.name == "schedule.encode")),
        "schedule.decode_s": self_s("schedule.decode"),
        "noise.evaluate_s": self_s("noise.evaluate"),
        "noise.evaluated_ops": float(sum(s.attrs.get("ops", 0) for s in spans if s.name == "noise.evaluate")),
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.put_s": self_s("cache.put"),
        "cache.hit_ratio": (
            sum(1 for s in lookups if s.attrs.get("tier")) / len(lookups) if lookups else 0.0
        ),
        "cache.disk_hits": float(sum(1 for s in lookups if s.attrs.get("tier") == "disk")),
        "pool.worker_compile_s": sum(o.compile_time_s for o in fresh.values()),
        "pool.compilations": float(compilations),
    })
    # The engine's self time includes waiting on pooled compiles: the
    # parent evaluates finished jobs while workers compile, so the workers'
    # compile time overlaps child spans and cannot be subtracted from it.
    # It is the unexplained remainder of every run_batch call, so it is left
    # out of the attributed share, which counts only the named layers.
    # The host-speed samples run in the outcome callback, inside pool.run.
    values["pool.self_s"] = self_s("pool.run") - rep.cold.sampling_s - rep.warm.sampling_s
    named_s = sum(row["self_s"] for name, row in summary.items() if name != "pool.run")
    values["trace.attributed_share"] = named_s / rep.wall_s
    return values, summary


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    plan = make_plan()
    reps = 2 if traced else max(2, round(seconds / REP_SECONDS))
    setup_s = measure_setup()

    problems: list[str] = []
    per_rep: list[dict[str, float]] = []
    raw_per_rep: list[dict[str, float]] = []
    factors: list[tuple[float, float]] = []
    first_records = None
    layers = summary = None
    for index in range(reps):
        # The traced run's second repetition is traced; the first is its
        # untraced twin, the only one its end-to-end numbers come from.
        tracer = Tracer() if traced and index == 1 else None
        # Each repetition is checked and dropped before the next starts, so
        # the next one begins on the same heap, not on every earlier one's
        # results (which its collector would otherwise have to scan).
        gc.collect()
        rep = run_rep(plan, tracer)
        log(f"{workload}: rep {index + 1}/{reps} cold {rep.cold.wall_s:.3f}s "
            f"warm {rep.warm.wall_s:.3f}s")
        records = rep.cold.result.records()
        problems += check_rep(rep, plan, verify=first_records is None)
        if first_records is None:
            first_records = records
        elif records != first_records:
            problems.append("records differ between repetitions")
        per_rep.append(rep_metrics(rep, len(plan)))
        raw_per_rep.append(rep_metrics(rep, len(plan), correct=False))
        factors.append((rep.cold.factor, rep.warm.factor))
        if tracer is not None:
            layers, summary = layer_metrics(rep)
        remove_tmpdir(rep.cache_dir)
        del rep, records

    untraced_reps = per_rep[:1] if traced else per_rep
    end_to_end = {name: median(m[name] for m in untraced_reps) for name in per_rep[0]}
    shuttled = ssync_rows(first_records)
    end_to_end["ssync_shuttles"] = float(sum(r["shuttles"] for r in shuttled))
    end_to_end["ssync_swaps"] = float(sum(r["swaps"] for r in shuttled))
    end_to_end["setup_s"] = setup_s
    report: dict[str, Any] = {
        "plan_digest": digest(plan),
        "jobs": len(plan),
        "workers": 1,
        "repetitions": len(per_rep),
        "estimator": "median over the untraced repetitions of host-corrected timings",
        "latency_samples": len(plan),
        "per_rep": per_rep,
        "per_rep_uncorrected": raw_per_rep,
        "host_factor_per_rep": factors,
        "problems": problems,
    }
    if traced:
        # Compared at the reference host's speed, so host drift between the
        # two repetitions does not read as tracing overhead.
        untraced, traced_rep = per_rep
        sweeps_s = [m["sweep_cold_s"] + m["sweep_warm_s"] for m in per_rep]
        layers["trace.overhead_share"] = sweeps_s[1] / sweeps_s[0] - 1.0
        report["spans"] = summary
        report["tracing_overhead_s"] = {
            name: traced_rep[name] - untraced[name]
            for name in ("compile_s", "sweep_cold_s", "sweep_warm_s")
        }
    attempted = 2 * len(plan) * len(per_rep)
    return {
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "end_to_end": end_to_end,
        "layers": layers,
        "plan_digest": report["plan_digest"],
        "report": report,
    }
