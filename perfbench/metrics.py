"""Names, units and intent of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
harness tests check that the two agree.

Every workload reports every end-to-end metric.  The batch workload
(``paper-sweep``) treats each compile job as a request submitted at batch
start; ``service-mix`` runs one cold and several warm sweeps of a fixed
manifest through each service it boots, so the compile, quality and sweep
metrics exist there too.  Timings a run repeats are medians over the
repetitions; set-up is the median of several set-ups.

Set-up, compile and sweep times, and the batch latency and throughput, are
in seconds at the speed of a quiet reference host: the benchmark samples
the host's speed with a fixed reference task of its own
(``harness.HostClock``) all through each timed stretch and scales the
stretch by the task's quiet time over its measured one.  On a shared 2-core
host the uncorrected times of one run moved by a third within a minute,
and over five seeds the correction cut their spread from 0.13-0.43 of the
median to 0.02-0.14.  The service's open-loop latency and closed-loop
throughput are left uncorrected, because they did not follow the reference
task.  Each run's report keeps the uncorrected figures and the factors.

The open-loop p99 (``latency_p99_ms``, with its count of samples beyond
it) is written to the run report but is not a metric: over ten seeds on a
2-core shared host its spread was 0.47 of its median, above the largest
bound a metric may have.

Two workloads are dropped, so that each kept one can run long enough to
be steady on a shared host within the benchmark's total time budget.
``route-heavy`` (S-SYNC on four 64/96-qubit circuits): its few multi-second
compiles could not be timed steadily, and its layers (the routing kernel)
run in every S-SYNC compile of ``paper-sweep``, where ``compile_s`` sums
75 short compiles.  ``fleet-mix``: the fleet's layers (router hop, shared
cache tier) are measured by a probe in the traced ``service-mix`` run, so
they move no end-to-end metric.
"""

from __future__ import annotations

#: name -> (unit, better, definition)
END_TO_END: dict[str, tuple[str, str, str]] = {
    "setup_s": ("s", "lower", "median of several set-ups: boot, imports, inputs, pool/service warm-up"),
    "peak_rss_mb": ("MB", "lower", "peak resident set of the benchmark process or any child"),
    "compile_s": ("s", "lower", "sum of fresh compile times of the cold batch or sweep"),
    "ssync_shuttles": ("count", "lower", "shuttles summed over the S-SYNC fm schedules"),
    "ssync_swaps": ("count", "lower", "swaps summed over the S-SYNC fm schedules"),
    "sweep_cold_s": ("s", "lower", "wall time of the job set on an empty cache"),
    "sweep_warm_s": ("s", "lower", "wall time of the job set again through a fresh cache on the same store"),
    "latency_p50_ms": ("ms", "lower", "p50 request latency: open loop from due time (service), batch start to outcome (batch)"),
    "saturation_rps": ("1/s", "higher", "completed requests per second: closed loop (service), warm batch (batch)"),
}

#: name -> (unit, better, moves, predicted no change)
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "pipeline.routing_s": ("s", "lower", "compile_s on paper-sweep and service-mix", "sweep_warm_s"),
    "pipeline.routing_candidates": ("count", "lower", "compile_s on paper-sweep and service-mix", "sweep_warm_s"),
    "pipeline.routing_iterations": ("count", "lower", "compile_s on paper-sweep and service-mix", "sweep_warm_s"),
    "pipeline.mapping_s": ("s", "lower", "sweep_cold_s on paper-sweep", "sweep_warm_s"),
    "pipeline.baseline_routing_s": ("s", "lower", "sweep_cold_s on paper-sweep", "service-mix"),
    "circuit.build_s": ("s", "lower", "sweep_warm_s, sweep_cold_s on paper-sweep", "compile_s"),
    "circuit.builds": ("count", "lower", "sweep_warm_s, sweep_cold_s on paper-sweep", "compile_s"),
    "circuit.distinct_per_build": ("ratio", "higher", "sweep_warm_s, sweep_cold_s on paper-sweep", "compile_s"),
    "jobs.fingerprint_s": ("s", "lower", "sweep_*_s on paper-sweep; latency_p50_ms on service-mix", "compile_s"),
    "schedule.encode_s": ("s", "lower", "sweep_cold_s", "sweep_warm_s"),
    "schedule.encode_bytes": ("bytes", "lower", "sweep_cold_s", "sweep_warm_s"),
    "schedule.decode_s": ("s", "lower", "sweep_warm_s", "compile_s"),
    "noise.evaluate_s": ("s", "lower", "sweep_*_s on paper-sweep", "compile_s share"),
    "noise.evaluated_ops": ("count", "lower", "sweep_*_s on paper-sweep", "compile_s share"),
    "cache.lookup_s": ("s", "lower", "sweep_warm_s (reads)", "compile_s"),
    "cache.put_s": ("s", "lower", "sweep_cold_s (writes)", "sweep_warm_s"),
    "cache.hit_ratio": ("ratio", "higher", "sweep_warm_s", "compile_s"),
    "cache.disk_hits": ("count", "higher", "sweep_warm_s", "compile_s"),
    "pool.self_s": ("s", "lower", "sweep_cold_s; latency_p50_ms on service-mix", "compile_s"),
    "pool.worker_compile_s": ("s", "lower", "sweep_cold_s; compile_s", "sweep_warm_s"),
    "pool.compilations": ("count", "lower", "sweep_cold_s", "sweep_warm_s"),
    "service.submit_ms": ("ms", "lower", "latency_p50_ms on service-mix", "paper-sweep"),
    "service.stream_ms": ("ms", "lower", "latency_p50_ms on service-mix", "paper-sweep"),
    "service.http_server_ms": ("ms", "lower", "latency_p50_ms", "-"),
    "service.queue_wait_ms": ("ms", "lower", "latency_p99_ms, saturation_rps", "-"),
    "service.slot_busy_share": ("ratio", "lower", "latency_p99_ms, saturation_rps", "-"),
    "service.journal_bytes": ("bytes", "lower", "latency_p50_ms on the write share of service-mix", "re-fetch share"),
    "service.result_store_bytes": ("bytes", "lower", "latency_p50_ms on the write share of service-mix", "re-fetch share"),
    "service.resubmit_ratio": ("ratio", "higher", "latency_p50_ms on the write share of service-mix", "re-fetch share"),
    "loadgen.send_lag_p99_ms": ("ms", "lower", "the validity of every open-loop number", "-"),
    "fleet.router_hop_ms": ("ms", "lower", "fleet request latency (probe in the traced service-mix run)", "latency_p50_ms on service-mix"),
    "fleet.recompilations": ("count", "lower", "fleet throughput (probe in the traced service-mix run)", "saturation_rps on service-mix"),
    "cache_tier.network_hits": ("count", "higher", "fleet throughput (probe in the traced service-mix run)", "saturation_rps on service-mix"),
    "cache_tier.errors": ("count", "lower", "fleet throughput (probe in the traced service-mix run)", "saturation_rps on service-mix"),
    "trace.attributed_share": ("ratio", "higher", "coverage; baseline for in-program tracing", "-"),
    "trace.overhead_share": ("ratio", "lower", "validity of the traced numbers", "-"),
}

WORKLOADS = ("paper-sweep", "service-mix")


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: the value of a layer a workload does not run."""
    return {name: 0.0 for name in PER_LAYER}
