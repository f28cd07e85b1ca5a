"""The differential oracle: one scenario, every backend, every invariant.

For a scenario the oracle

1. compiles the circuit through **both scheduler backends**
   (``naive`` is the reference; ``flat`` must match it bit-for-bit in
   schedule bytes, scheduler statistics and initial / final occupancy);
2. compiles through the **baseline compilers** (Murali, Dai) — their
   schedules differ from S-SYNC's by design, but must still be legal;
3. replays every emitted schedule through the legality verifier
   (:func:`~repro.schedule.verify.verify_schedule`, with the gate-order
   cross-check against the program circuit);
4. round-trips the S-SYNC schedule through the binary codec of PR 8 and
   the JSON codec (decode(encode(s)) must re-encode to identical bytes
   and to an identical plain-data document);
5. evaluates every schedule under the noise model and checks the
   invariants the analysis layer trusts: success rate in ``[0, 1]``,
   positive makespan on a non-empty schedule, an executed two-qubit
   gate count equal to the circuit's, and an evaluation identical to the
   evaluator's per-record reference walk;
6. checks, on every schedule it sees (each backend, each baseline and
   the decoded copy), that a gate's kind code is ``GATE_2Q`` exactly
   when ``gate.is_two_qubit`` holds — the evaluator branches on the
   code, while its reference walk reads the gate.

Any violation raises :class:`OracleFailure` naming the failed check; a
clean pass returns an :class:`OracleReport` listing every check run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler import SSyncCompiler, SSyncConfig
from repro.core.result import CompilationResult
from repro.core.scheduler import SCHEDULER_BACKENDS, SchedulerConfig
from repro.exceptions import ReproError
from repro.fuzz.scenario import Scenario
from repro.noise.evaluator import EvaluatorConfig, ScheduleEvaluator
from repro.registry import make_pipeline
from repro.schedule.operations import KIND_CODE_GATE_2Q
from repro.schedule.schedule import Schedule
from repro.schedule.serialize import (
    schedule_from_bytes,
    schedule_from_json,
    schedule_to_bytes,
    schedule_to_dict,
    schedule_to_json,
)
from repro.schedule.verify import verify_schedule

#: Backend order the oracle compiles in: the naive reference scorer
#: first, so the flat core is judged against it.
#: (:data:`SCHEDULER_BACKENDS` lists the cores fastest-first instead.)
DEFAULT_BACKENDS = ("naive", "flat")

#: Baseline compilers the oracle drives beside the two S-SYNC backends.
DEFAULT_BASELINES = ("murali", "dai")

#: Gate implementations the noise invariants are checked under.
DEFAULT_GATE_IMPLEMENTATIONS = ("fm", "am2")


class OracleFailure(ReproError):
    """A scenario violated one of the oracle's checks.

    Attributes
    ----------
    scenario:
        The offending scenario (pass it to the minimizer).
    check:
        Stable name of the failed check, e.g. ``"parity:flat"`` or
        ``"verify:murali"``.
    detail:
        Human-readable description of the violation.
    """

    def __init__(self, scenario: Scenario, check: str, detail: str) -> None:
        super().__init__(f"[{check}] {detail} (scenario: {scenario.describe()})")
        self.scenario = scenario
        self.check = check
        self.detail = detail


@dataclass(frozen=True)
class OracleReport:
    """Summary of a scenario that passed every check."""

    scenario_fingerprint: str
    backends: tuple[str, ...]
    baselines: tuple[str, ...]
    operations: int
    two_qubit_gates: int
    checks: tuple[str, ...]


def run_oracle(
    scenario: Scenario,
    backends: "tuple[str, ...]" = DEFAULT_BACKENDS,
    baselines: "tuple[str, ...]" = DEFAULT_BASELINES,
    gate_implementations: "tuple[str, ...]" = DEFAULT_GATE_IMPLEMENTATIONS,
) -> OracleReport:
    """Run the full differential oracle on ``scenario``.

    Raises :class:`OracleFailure` on the first violated check; returns
    an :class:`OracleReport` when every check passes.  ``backends`` must
    contain at least one entry; the first is the parity reference (keep
    ``naive`` first so the flat core is judged against the reference
    scorer).
    """
    if not backends:
        raise ReproError("the oracle needs at least one scheduler backend")
    checks: list[str] = []
    circuit = _guarded(scenario, "build:circuit", scenario.build_circuit)
    device = _guarded(scenario, "build:device", scenario.build_device)

    # -- 1. all scheduler backends ------------------------------------
    results: dict[str, CompilationResult] = {}
    for backend in backends:
        config = SSyncConfig(scheduler=SchedulerConfig(backend=backend))
        results[backend] = _guarded(
            scenario,
            f"compile:{backend}",
            lambda config=config: SSyncCompiler(device, config).compile(circuit),
        )
        checks.append(f"compile:{backend}")
        _check_kind_codes(scenario, backend, results[backend].schedule, checks)

    reference = results[backends[0]]
    reference_bytes = _guarded(
        scenario, "encode:binary", lambda: schedule_to_bytes(reference.schedule)
    )

    # -- 2. backend parity -------------------------------------------
    for backend in backends[1:]:
        result = results[backend]
        if schedule_to_bytes(result.schedule) != reference_bytes:
            raise OracleFailure(
                scenario,
                f"parity:{backend}",
                f"schedule bytes differ from the {backends[0]!r} reference",
            )
        if result.statistics != reference.statistics:
            raise OracleFailure(
                scenario,
                f"parity:{backend}",
                f"scheduler statistics differ: {result.statistics_dict()} "
                f"vs {reference.statistics_dict()}",
            )
        if (
            result.initial_state.occupancy() != reference.initial_state.occupancy()
            or result.final_state.occupancy() != reference.final_state.occupancy()
        ):
            raise OracleFailure(
                scenario, f"parity:{backend}", "initial/final occupancy differs"
            )
        checks.append(f"parity:{backend}")

    # -- 3. legality replay (S-SYNC) ----------------------------------
    report = _guarded(
        scenario,
        "verify:s-sync",
        lambda: verify_schedule(reference.schedule, reference.initial_state, circuit=circuit),
    )
    if report.two_qubit_gates != circuit.num_two_qubit_gates:
        raise OracleFailure(
            scenario,
            "verify:s-sync",
            f"schedule executes {report.two_qubit_gates} two-qubit gates, "
            f"circuit has {circuit.num_two_qubit_gates}",
        )
    checks.append("verify:s-sync")

    # -- 4. codec round-trips -----------------------------------------
    decoded = _guarded(
        scenario, "codec:binary", lambda: schedule_from_bytes(reference_bytes)
    )
    if schedule_to_bytes(decoded) != reference_bytes:
        raise OracleFailure(
            scenario, "codec:binary", "decode(encode(schedule)) re-encodes differently"
        )
    if schedule_to_dict(decoded) != schedule_to_dict(reference.schedule):
        raise OracleFailure(
            scenario, "codec:binary", "binary round-trip changed the operation log"
        )
    checks.append("codec:binary")
    _check_kind_codes(scenario, "decoded", decoded, checks)

    json_trip = _guarded(
        scenario,
        "codec:json",
        lambda: schedule_from_json(schedule_to_json(reference.schedule)),
    )
    if schedule_to_dict(json_trip) != schedule_to_dict(reference.schedule):
        raise OracleFailure(
            scenario, "codec:json", "JSON round-trip changed the operation log"
        )
    checks.append("codec:json")

    # -- 5. noise invariants (S-SYNC) ---------------------------------
    _check_noise(scenario, "s-sync", reference, circuit, gate_implementations, checks)

    # -- 6. baselines: legal schedules, sane evaluations --------------
    for baseline in baselines:
        result = _guarded(
            scenario,
            f"compile:{baseline}",
            lambda baseline=baseline: make_pipeline(baseline, device).compile(circuit),
        )
        checks.append(f"compile:{baseline}")
        _check_kind_codes(scenario, baseline, result.schedule, checks)
        _guarded(
            scenario,
            f"verify:{baseline}",
            lambda result=result: verify_schedule(
                result.schedule, result.initial_state, circuit=circuit
            ),
        )
        checks.append(f"verify:{baseline}")
        _check_noise(scenario, baseline, result, circuit, gate_implementations[:1], checks)

    return OracleReport(
        scenario_fingerprint=scenario.fingerprint(),
        backends=tuple(backends),
        baselines=tuple(baselines),
        operations=len(reference.schedule),
        two_qubit_gates=circuit.num_two_qubit_gates,
        checks=tuple(checks),
    )


def oracle_failing(scenario: Scenario) -> bool:
    """Predicate form of the oracle, as the minimizer wants it.

    ``True`` when the scenario reproduces a failure: any exception out
    of the oracle — an :class:`OracleFailure`, but also an unexpected
    crash inside a compiler (an ``IndexError`` deep in a scheduler core
    is exactly the kind of bug the fuzzer exists to catch).  Ill-formed
    scenarios are *not* failures; the minimizer must never shrink into
    legitimately uncompilable territory.
    """
    if not scenario.is_well_formed():
        return False
    try:
        run_oracle(scenario)
    except Exception:
        return True
    return False


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _guarded(scenario: Scenario, check: str, thunk):
    """Run ``thunk``, converting any crash into an :class:`OracleFailure`.

    A compiler that *raises* on a well-formed scenario is as much a bug
    as one that emits a wrong schedule, so crashes are folded into the
    same failure type the campaign driver and minimizer understand.
    """
    try:
        return thunk()
    except OracleFailure:
        raise
    except Exception as exc:
        raise OracleFailure(scenario, check, f"{type(exc).__name__}: {exc}") from exc


def _check_kind_codes(
    scenario: Scenario, label: str, schedule: Schedule, checks: list[str]
) -> None:
    """Each gate's kind code is ``GATE_2Q`` exactly when it is a 2q gate."""
    slab = schedule.slab
    codes = [code for code in slab.kinds if code <= KIND_CODE_GATE_2Q]
    if len(codes) != len(slab.gates):
        raise OracleFailure(
            scenario,
            f"kinds:{label}",
            f"{len(codes)} gate kind codes for {len(slab.gates)} gates",
        )
    for index, (code, gate) in enumerate(zip(codes, slab.gates)):
        if (code == KIND_CODE_GATE_2Q) != gate.is_two_qubit:
            raise OracleFailure(
                scenario,
                f"kinds:{label}",
                f"gate {index} ({gate}) carries kind code {code}",
            )
    checks.append(f"kinds:{label}")


def _check_noise(
    scenario: Scenario,
    compiler: str,
    result: CompilationResult,
    circuit,
    gate_implementations: "tuple[str, ...]",
    checks: list[str],
) -> None:
    for implementation in gate_implementations:
        evaluator = ScheduleEvaluator(EvaluatorConfig(gate_implementation=implementation))
        evaluation = _guarded(
            scenario,
            f"noise:{compiler}:{implementation}",
            lambda: evaluator.evaluate(result.schedule),
        )
        reference = _guarded(
            scenario,
            f"noise:{compiler}:{implementation}",
            lambda: evaluator._evaluate_records(result.schedule),
        )
        # repr compares every field bit for bit (floats repr exactly),
        # details and value types included.
        if repr(evaluation) != repr(reference):
            raise OracleFailure(
                scenario,
                f"noise:{compiler}:{implementation}",
                f"evaluation {evaluation} differs from the per-record reference {reference}",
            )
        if not 0.0 <= evaluation.success_rate <= 1.0:
            raise OracleFailure(
                scenario,
                f"noise:{compiler}:{implementation}",
                f"success rate {evaluation.success_rate} outside [0, 1]",
            )
        if len(result.schedule) > 0 and evaluation.execution_time_us <= 0.0:
            raise OracleFailure(
                scenario,
                f"noise:{compiler}:{implementation}",
                f"non-empty schedule with makespan {evaluation.execution_time_us} us",
            )
        if evaluation.gate_count_2q != circuit.num_two_qubit_gates:
            raise OracleFailure(
                scenario,
                f"noise:{compiler}:{implementation}",
                f"evaluator saw {evaluation.gate_count_2q} two-qubit gates, "
                f"circuit has {circuit.num_two_qubit_gates}",
            )
        checks.append(f"noise:{compiler}:{implementation}")
