"""repro.fuzz — differential scenario fuzzing for the compilation pipeline.

The subsystem turns scenario diversity into a correctness weapon:

* :mod:`repro.fuzz.scenario` — a declarative, JSON-round-trippable
  :class:`Scenario` (circuit spec x device description) plus the seeded
  :class:`ScenarioGenerator` that cross-products random circuits
  (random / QAOA-on-random-graph / random-Clifford / GHZ / QFT) with
  random devices (linear / ring / grid / star / hex at arbitrary scale,
  heterogeneous per-trap capacities);
* :mod:`repro.fuzz.oracle` — the differential oracle: every scenario is
  compiled through both scheduler backends (bit-identical schedule
  bytes and statistics required) and the baseline compilers, every
  emitted schedule is replayed through the legality verifier and
  round-tripped through the binary codec, and the noise evaluation must
  satisfy its invariants (success rate in [0, 1], positive makespan);
* :mod:`repro.fuzz.minimize` — a delta-debugging minimizer that shrinks
  a failing scenario (drop gates, drop traps, lower capacities, compact
  qubits) to a 1-minimal reproducer;
* :mod:`repro.fuzz.runner` — the campaign driver behind
  ``python -m repro fuzz``: corpus replay, seeded case generation, time
  budgets, and minimized-reproducer JSON files.

The replayable regression corpus lives in ``tests/fuzz/corpus/`` and is
re-run by pytest on every CI run; see ``docs/fuzzing.md``.
"""

from repro.fuzz.minimize import minimize_scenario
from repro.fuzz.oracle import OracleFailure, OracleReport, oracle_failing, run_oracle
from repro.fuzz.runner import FuzzFailure, FuzzResult, run_fuzz
from repro.fuzz.scenario import (
    SCENARIO_FORMAT,
    GeneratorLimits,
    Scenario,
    ScenarioError,
    ScenarioGenerator,
    load_corpus,
    load_scenario,
    write_scenario,
)

__all__ = [
    "SCENARIO_FORMAT",
    "FuzzFailure",
    "FuzzResult",
    "GeneratorLimits",
    "OracleFailure",
    "OracleReport",
    "Scenario",
    "ScenarioError",
    "ScenarioGenerator",
    "load_corpus",
    "load_scenario",
    "minimize_scenario",
    "oracle_failing",
    "run_fuzz",
    "run_oracle",
    "write_scenario",
]
