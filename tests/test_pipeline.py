"""Unit tests for the pass-pipeline architecture (repro.pipeline)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.reporting import records_to_csv, records_to_json
from repro.baselines import MuraliCompiler
from repro.circuit.library import qft_circuit
from repro.circuit.library.adder import adder_two_qubit_gate_count, cuccaro_adder_circuit
from repro.circuit.qasm import qasm_to_circuit
from repro.core.compiler import SSyncCompiler
from repro.exceptions import CircuitError, SchedulingError
from repro.pipeline import (
    CompilerPipeline,
    MetricsPass,
    Pass,
    VerifySchedulePass,
)
from repro.registry import make_pipeline
from repro.runtime.cache import CachedCompilation
from repro.runtime.jobs import CompileJob


def _tight_device():
    """A device small enough that qft_12 needs real shuttling."""
    from repro.hardware.presets import paper_device

    return paper_device("G-2x3", 4)


class TestPipelineShape:
    def test_ssync_pipeline_passes(self):
        pipeline = SSyncCompiler(_tight_device()).pipeline()
        assert pipeline.pass_names() == ("initial-mapping", "routing", "metrics")

    def test_baseline_pipeline_passes(self):
        pipeline = MuraliCompiler(_tight_device()).pipeline()
        assert pipeline.pass_names() == ("initial-mapping", "routing", "metrics")

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SchedulingError):
            CompilerPipeline("empty", _tight_device(), ())

    def test_with_pass_inserts_before_named_stage(self):
        class NoopPass(Pass):
            name = "noop"

            def run(self, context):
                context.metadata["noop"] = True

        pipeline = SSyncCompiler(_tight_device()).pipeline().with_pass(NoopPass(), before="routing")
        assert pipeline.pass_names() == ("initial-mapping", "noop", "routing", "metrics")
        result = pipeline.compile(qft_circuit(8))
        assert [t.name for t in result.pass_timings] == list(pipeline.pass_names())

    def test_with_pass_unknown_anchor_rejected(self):
        pipeline = SSyncCompiler(_tight_device()).pipeline()
        with pytest.raises(SchedulingError, match="no pass named"):
            pipeline.with_pass(MetricsPass(), before="nope")

    def test_with_verification_inserts_before_metrics_and_is_idempotent(self):
        pipeline = SSyncCompiler(_tight_device()).pipeline().with_verification()
        assert pipeline.pass_names() == ("initial-mapping", "routing", "verify", "metrics")
        assert pipeline.with_verification() is pipeline

    def test_mapping_only_pipeline_produces_no_schedule(self):
        compiler = SSyncCompiler(_tight_device())
        mapping_only = CompilerPipeline("broken", compiler.device, compiler.pipeline().passes[:1])
        with pytest.raises(SchedulingError, match="no schedule"):
            mapping_only.compile(qft_circuit(8))


class TestPassTimings:
    @pytest.fixture(scope="class", params=["s-sync", "murali", "dai"])
    def result(self, request):
        from repro.registry import make_pipeline

        pipeline = make_pipeline(request.param, _tight_device(), verify=True)
        return pipeline.compile(qft_circuit(12))

    def test_every_pass_recorded(self, result):
        assert [t.name for t in result.pass_timings] == [
            "initial-mapping",
            "routing",
            "verify",
            "metrics",
        ]
        assert all(t.wall_time_s >= 0 for t in result.pass_timings)

    def test_timings_sum_to_total_compile_time(self, result):
        total = sum(t.wall_time_s for t in result.pass_timings)
        assert total <= result.compile_time_s
        # The pipeline's own overhead (context setup, result assembly)
        # is the only unaccounted time.
        assert result.compile_time_s - total < 0.05 + 0.1 * result.compile_time_s

    def test_routing_statistics_recorded(self, result):
        routing = next(t for t in result.pass_timings if t.name == "routing")
        assert routing.statistics["executed_two_qubit_gates"] == result.two_qubit_gate_count

    def test_verification_statistics_recorded(self, result):
        verify = next(t for t in result.pass_timings if t.name == "verify")
        assert verify.statistics["two_qubit_gates"] == result.two_qubit_gate_count
        assert verify.statistics["shuttles"] == result.shuttle_count


class TestBaselineArgumentPolicy:
    def test_baseline_rejects_initial_mapping(self):
        pipeline = MuraliCompiler(_tight_device()).pipeline()
        with pytest.raises(SchedulingError, match="initial mapping"):
            pipeline.compile(qft_circuit(8), initial_mapping="gathering")

    def test_compile_job_rejects_mapping_for_baselines(self):
        from repro.exceptions import ReproError
        from repro.runtime.jobs import compile_job

        job = CompileJob(circuit="qft_10", device="G-2x2", compiler="dai", initial_mapping="sta")
        with pytest.raises(ReproError, match="initial mapping"):
            compile_job(job)

    def test_manifest_defaults_mapping_skipped_for_baselines(self):
        from repro.runtime.manifest import job_from_dict

        job = job_from_dict(
            {"circuit": "qft_10", "compiler": "murali"},
            defaults={"device": "G-2x2", "mapping": "sta"},
        )
        assert job.initial_mapping is None  # defaults-level mapping is for s-sync jobs

    def test_manifest_job_level_mapping_rejected_for_baselines(self):
        from repro.exceptions import ReproError
        from repro.runtime.manifest import job_from_dict

        with pytest.raises(ReproError, match="initial mapping"):
            job_from_dict(
                {"circuit": "qft_10", "compiler": "murali", "mapping": "sta"},
                defaults={"device": "G-2x2"},
            )

    def test_baseline_accepts_prebuilt_state(self):
        compiler = MuraliCompiler(_tight_device())
        circuit = qft_circuit(8)
        state = compiler.build_initial_state(circuit)
        snapshot = state.occupancy()
        result = compiler.compile(circuit, initial_state=state)
        assert result.mapping_name == "custom"
        assert state.occupancy() == snapshot  # never mutated


class TestResultSerialization:
    """Satellite: statistics + pass timings surface in exports."""

    @pytest.fixture(scope="class")
    def result(self):
        return SSyncCompiler(_tight_device()).compile(qft_circuit(12))

    def test_as_dict_carries_statistics_and_timings(self, result):
        row = result.as_dict()
        assert row["generic_swap_iterations"] == result.statistics.generic_swap_iterations
        assert row["forced_routes"] == result.statistics.forced_routes
        assert row["candidate_evaluations"] == result.statistics.candidate_evaluations
        assert [t["name"] for t in row["pass_timings"]] == [
            "initial-mapping",
            "routing",
            "metrics",
        ]

    def test_json_and_csv_export_helpers_accept_results(self, result):
        data = json.loads(records_to_json([result]))
        assert data[0]["candidate_evaluations"] > 0
        assert data[0]["pass_timings"][1]["name"] == "routing"
        csv_text = records_to_csv([result])
        assert "generic_swap_iterations" in csv_text.splitlines()[0]

    def test_cache_entry_round_trips_statistics(self, result):
        entry = CachedCompilation.from_result(result)
        rebuilt = CachedCompilation.from_bytes(entry.to_bytes())
        assert rebuilt.statistics == result.statistics_dict()
        assert [t["name"] for t in rebuilt.pass_timings] == [
            "initial-mapping",
            "routing",
            "metrics",
        ]

    def test_stale_cache_format_is_a_miss_not_an_error(self, tmp_path):
        from repro.runtime.api import run_batch
        from repro.runtime.cache import CACHE_FORMAT_VERSION, ScheduleCache

        jobs = [CompileJob(circuit="qft_10", device="G-2x2")]
        run_batch(jobs, cache=ScheduleCache(directory=tmp_path))
        # Bump the on-disk entry to an unknown future format version.
        entry_path = next(tmp_path.glob("*.sched"))
        raw = bytearray(entry_path.read_bytes())
        raw[4] = CACHE_FORMAT_VERSION + 1  # version byte follows the magic
        entry_path.write_bytes(bytes(raw))

        rerun = run_batch(jobs, cache=ScheduleCache(directory=tmp_path))
        assert rerun.compilations == 1  # recompiled, no crash
        assert entry_path.read_bytes()[4] == CACHE_FORMAT_VERSION

    def test_batch_records_carry_statistics_on_every_tier(self, tmp_path):
        from repro.runtime.api import run_batch
        from repro.runtime.cache import ScheduleCache

        jobs = [CompileJob(circuit="qft_12", device="G-2x3", capacity=4)]
        cache = ScheduleCache(directory=tmp_path)
        cold = run_batch(jobs, cache=cache)
        warm = run_batch(jobs, cache=ScheduleCache(directory=tmp_path))
        cold_record = cold.records()[0]
        assert cold_record["generic_swap_iterations"] > 0
        assert cold.records() == warm.records()
        assert warm.outcomes[0].from_cache
        assert [t["name"] for t in warm.outcomes[0].as_dict()["pass_timings"]] == [
            "initial-mapping",
            "routing",
            "metrics",
        ]


class TestSchedulesUnchangedByRefactor:
    """The pipeline refactor must not change what gets compiled."""

    def test_all_compilers_still_verify(self):
        from repro.registry import registered_names, make_pipeline
        from repro.schedule.verify import verify_schedule

        device = _tight_device()
        circuit = qft_circuit(12)
        for name in registered_names():
            result = make_pipeline(name, device).compile(circuit)
            report = verify_schedule(result.schedule, result.initial_state, circuit=circuit)
            assert report.two_qubit_gates == circuit.num_two_qubit_gates

    def test_compile_is_deterministic_across_pipeline_instances(self):
        from repro.schedule.serialize import schedule_to_dict

        device = _tight_device()
        circuit = qft_circuit(12)
        compiler = SSyncCompiler(device)
        first = compiler.compile(circuit)
        second = compiler.pipeline().compile(circuit)
        assert schedule_to_dict(first.schedule) == schedule_to_dict(second.schedule)


@pytest.mark.parametrize("compiler", ["s-sync", "murali", "dai"])
def test_gates_on_three_qubits_are_rejected(compiler):
    """No router executes a 3-qubit gate, so it must not vanish from the schedule."""
    from repro.hardware.presets import paper_device

    pipeline = make_pipeline(compiler, paper_device("G-2x2"))
    circuit = qasm_to_circuit(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        "h q[0];\ncx q[0],q[1];\nccx q[0],q[1],q[2];\ncx q[1],q[2];\n"
    )
    with pytest.raises(CircuitError, match=r"gate #2 \(ccx 0, 1, 2\) acts on 3 qubits"):
        pipeline.compile(circuit)
    with pytest.raises(CircuitError, match="ccx"):
        pipeline.compile(cuccaro_adder_circuit(2, decompose_toffoli=False))
    result = pipeline.compile(cuccaro_adder_circuit(2))
    assert result.two_qubit_gate_count == adder_two_qubit_gate_count(2)
