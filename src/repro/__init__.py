"""repro — reproduction of S-SYNC: shuttle and swap co-optimization for QCCD devices.

The package mirrors the paper's structure:

* :mod:`repro.circuit` — circuit IR, dependency DAG and the Table-2
  benchmark generators;
* :mod:`repro.hardware` — the QCCD device model (traps, junctions,
  L/G/S topologies, the static weighted slot graph);
* :mod:`repro.core` — the S-SYNC compiler itself (generic swaps,
  heuristic scheduler, initial mappings) with two bit-identical
  scheduler cores: :mod:`repro.core.flatstate` (the default ``"flat"``
  backend — batched candidate scoring on flat integer arrays, ≥6x the
  naive reference on routing-bound devices) and the naive reference
  scorer (:meth:`HeuristicCost.swap_score` on a state copy per
  candidate);
* :mod:`repro.baselines` — reimplementations of the Murali et al. and
  Dai et al. compilers the paper compares against;
* :mod:`repro.noise` — gate-time, heating and fidelity models plus the
  schedule evaluator;
* :mod:`repro.analysis` — comparisons, parameter sweeps, optimality
  bounds and text/JSON/CSV reporting for every figure in the evaluation;
* :mod:`repro.schedule` — the compiled operation log, its legality
  verifier and JSON serialisation;
* :mod:`repro.pipeline` — the pass-pipeline compilation architecture:
  every compiler is a :class:`CompilerPipeline` of ordered
  :class:`Pass` stages (mapping, routing, optional verification,
  metrics) with per-pass wall-time profiling;
* :mod:`repro.registry` — the single compiler registry mapping
  canonical names and aliases to pipeline factories;
  :func:`register_compiler` plugs third-party backends into every
  entry point (jobs, manifests, sweeps, CLI);
* :mod:`repro.runtime` — the parallel batch-compilation engine:
  declarative :class:`CompileJob` specs, content-addressed schedule
  caching (in-memory LRU + on-disk), multiprocessing fan-out — warm
  persistent pools and streamed per-job outcomes included — and the
  :func:`run_batch`/:func:`run_sweep` entry points behind
  ``python -m repro batch``;
* :mod:`repro.service` — the async HTTP compilation service over the
  batch runtime (``python -m repro serve``): manifest submission with
  fingerprint-derived job ids, a multi-slot scheduler running several
  batches concurrently over one warm worker pool (priorities, FIFO
  within priority, cooperative cancellation), a durable JSON-lines job
  journal replayed on restart, chunked JSON-lines result streaming,
  cached-schedule and registry endpoints, the stdlib
  :class:`ServiceClient`, and the ``repro submit``/``results``/``jobs``
  CLI client commands;
* :mod:`repro.obs` — the stdlib-only observability core: thread-safe
  counters/gauges/histograms with labels, Prometheus text-format
  exposition (served at ``GET /v1/metrics``) and its parser, wired
  through the cache, engine, scheduler, journal and HTTP layers;
* :mod:`repro.fuzz` — differential scenario fuzzing behind
  ``python -m repro fuzz``: a seeded generator cross-producting random
  circuits with random devices, an oracle asserting flat-versus-naive
  scheduler parity plus legality, codec and noise invariants, a delta-debugging
  minimizer producing 1-minimal reproducers, and the replayable
  regression corpus under ``tests/fuzz/corpus/``.

Quickstart::

    from repro import SSyncCompiler, paper_device, qft_circuit, evaluate_schedule

    device = paper_device("G-2x3")
    result = SSyncCompiler(device).compile(qft_circuit(16))
    report = evaluate_schedule(result.schedule)
    print(result.shuttle_count, result.swap_count, report.success_rate)

Batch quickstart::

    from repro import CompileJob, run_batch

    jobs = [CompileJob(circuit="qft_24", device="G-2x3"),
            CompileJob(circuit="bv_64", device="L-6", compiler="murali")]
    batch = run_batch(jobs, workers=4, cache_dir=".repro-cache")
    for outcome in batch:
        print(outcome.record["circuit"], outcome.record["success_rate"])

Service quickstart (or ``python -m repro serve`` from a shell)::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8000")
    receipt = client.submit({"jobs": [{"circuit": "qft_24", "device": "G-2x3"}]})
    for line in client.stream_results(receipt["job_id"]):
        print(line)
"""

from repro.baselines import DaiCompiler, MuraliCompiler
from repro.circuit import DependencyDAG, Gate, QuantumCircuit
from repro.circuit.library import (
    alternating_layered_ansatz,
    bernstein_vazirani_circuit,
    build_benchmark,
    cuccaro_adder_circuit,
    ghz_circuit,
    heisenberg_circuit,
    paper_benchmark_suite,
    qaoa_circuit,
    qft_circuit,
    random_circuit,
    random_clifford,
    random_qaoa,
)
from repro.core import (
    CompilationResult,
    DeviceState,
    SSyncCompiler,
    SSyncConfig,
    SchedulerConfig,
    compile_circuit,
)
from repro.exceptions import (
    CircuitError,
    DeviceError,
    ManifestError,
    MappingError,
    NoiseModelError,
    ReproError,
    SchedulingError,
    ServiceError,
    StateError,
)
from repro.hardware import (
    GraphWeights,
    QCCDDevice,
    Trap,
    grid_device,
    hex_device,
    linear_device,
    paper_device,
    ring_device,
    star_device,
)
from repro.noise import (
    EvaluationResult,
    GateImplementation,
    HeatingParameters,
    OperationTimes,
    evaluate_schedule,
)
from repro.pipeline import (
    CompilerPipeline,
    InitialMappingPass,
    MetricsPass,
    Pass,
    PassContext,
    SchedulingPass,
    VerifySchedulePass,
)
from repro.core.result import PassTiming
from repro.registry import (
    CompilerSpec,
    available_compilers,
    compiler_spec,
    make_pipeline,
    normalize_compiler_name,
    register_compiler,
    registered_names,
    unregister_compiler,
)
from repro.runtime import (
    BatchCompiler,
    BatchResult,
    CompileJob,
    ScheduleCache,
    run_batch,
    run_sweep,
)
from repro.obs import MetricsRegistry, parse_exposition
from repro.schedule import Schedule, verify_schedule
from repro.service import CompilationService, ServiceClient

__version__ = "1.9.0"

__all__ = [
    "BatchCompiler",
    "BatchResult",
    "CircuitError",
    "CompilationResult",
    "CompilationService",
    "CompileJob",
    "CompilerPipeline",
    "CompilerSpec",
    "DaiCompiler",
    "DependencyDAG",
    "DeviceError",
    "DeviceState",
    "EvaluationResult",
    "Gate",
    "GateImplementation",
    "GraphWeights",
    "HeatingParameters",
    "InitialMappingPass",
    "ManifestError",
    "MappingError",
    "MetricsPass",
    "MetricsRegistry",
    "MuraliCompiler",
    "NoiseModelError",
    "OperationTimes",
    "Pass",
    "PassContext",
    "PassTiming",
    "QCCDDevice",
    "QuantumCircuit",
    "ReproError",
    "SSyncCompiler",
    "SSyncConfig",
    "Schedule",
    "ScheduleCache",
    "SchedulerConfig",
    "SchedulingError",
    "SchedulingPass",
    "ServiceClient",
    "ServiceError",
    "StateError",
    "Trap",
    "VerifySchedulePass",
    "__version__",
    "alternating_layered_ansatz",
    "available_compilers",
    "bernstein_vazirani_circuit",
    "build_benchmark",
    "compile_circuit",
    "compiler_spec",
    "cuccaro_adder_circuit",
    "evaluate_schedule",
    "make_pipeline",
    "normalize_compiler_name",
    "register_compiler",
    "registered_names",
    "unregister_compiler",
    "ghz_circuit",
    "grid_device",
    "heisenberg_circuit",
    "hex_device",
    "linear_device",
    "paper_benchmark_suite",
    "paper_device",
    "parse_exposition",
    "qaoa_circuit",
    "qft_circuit",
    "random_circuit",
    "random_clifford",
    "random_qaoa",
    "ring_device",
    "run_batch",
    "run_sweep",
    "star_device",
    "verify_schedule",
]
