"""Unit tests for compile jobs and deterministic fingerprinting."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.circuit.library import build_benchmark, qft_circuit
from repro.core.compiler import SSyncConfig
from repro.exceptions import ReproError
from repro.hardware.presets import paper_device
from repro.runtime import jobs as jobs_module
from repro.runtime.jobs import (
    CompileJob,
    circuit_fingerprint,
    compile_job,
    config_fingerprint,
    device_fingerprint,
    normalize_compiler_name,
)


def _fingerprints_in_subprocess(queue):
    # Recreate the same job from names only, in a fresh interpreter.
    job = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="am2")
    queue.put((job.compile_fingerprint(), job.fingerprint()))


class TestFingerprints:
    def test_stable_across_processes(self):
        """Fingerprints must not depend on per-process hash randomisation."""
        job = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="am2")
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        proc = ctx.Process(target=_fingerprints_in_subprocess, args=(queue,))
        proc.start()
        remote = queue.get(timeout=60)
        proc.join(timeout=60)
        assert remote == (job.compile_fingerprint(), job.fingerprint())

    def test_named_and_concrete_specs_agree(self):
        by_name = CompileJob(circuit="qft_10", device="G-2x2")
        concrete = CompileJob(circuit=build_benchmark("qft_10"), device=paper_device("G-2x2"))
        assert by_name.compile_fingerprint() == concrete.compile_fingerprint()

    def test_default_config_is_canonical(self):
        assert (
            CompileJob(circuit="qft_10", device="G-2x2").compile_fingerprint()
            == CompileJob(
                circuit="qft_10", device="G-2x2", config=SSyncConfig()
            ).compile_fingerprint()
        )
        assert config_fingerprint(None) == config_fingerprint(SSyncConfig())

    def test_evaluation_settings_do_not_touch_compile_fingerprint(self):
        fm = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="fm")
        am2 = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="am2")
        assert fm.compile_fingerprint() == am2.compile_fingerprint()
        assert fm.fingerprint() != am2.fingerprint()

    def test_compile_inputs_change_the_fingerprint(self):
        base = CompileJob(circuit="qft_10", device="G-2x2")
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_12", device="G-2x2"
        ).compile_fingerprint()
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_10", device="L-4"
        ).compile_fingerprint()
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_10", device="G-2x2", initial_mapping="sta"
        ).compile_fingerprint()
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_10", device="G-2x2", compiler="murali"
        ).compile_fingerprint()

    def test_presentation_metadata_is_ignored(self):
        plain = CompileJob(circuit="qft_10", device="G-2x2")
        decorated = CompileJob(
            circuit="qft_10", device="G-2x2", label="x", parameter="p", value=3
        )
        assert plain.fingerprint() == decorated.fingerprint()

    def test_circuit_fingerprint_sees_gate_content(self):
        assert circuit_fingerprint(qft_circuit(8)) != circuit_fingerprint(qft_circuit(9))

    def test_device_fingerprint_sees_capacity(self):
        assert device_fingerprint(paper_device("G-2x2", 6)) != device_fingerprint(
            paper_device("G-2x2", 8)
        )

    def test_golden_fingerprints(self):
        """Cache keys, job ids and records hang off these digests: pinned."""
        job = CompileJob(circuit="qft_10", device="G-2x2")
        assert job.compile_fingerprint() == (
            "ebac9ff571d2a94163f38cb5f68ab232b93fafedd05fed1eb1eff3be0726315d"
        )
        assert job.fingerprint() == (
            "52bd8c8334c96589067ab8a13055d29044bfc3bc48ee6aae09936fef73bfae4f"
        )

    def test_named_circuit_is_built_once_for_many_jobs(self, monkeypatch):
        builds = []

        def counting_build(name):
            builds.append(name)
            return build_benchmark(name)

        monkeypatch.setattr(jobs_module, "build_benchmark", counting_build)
        jobs_module._named_fingerprint.cache_clear()
        jobs = [
            CompileJob(circuit="qft_11", device="G-2x2", label=str(index))
            for index in range(100)
        ]
        fingerprints = {(job.compile_fingerprint(), job.fingerprint()) for job in jobs}
        assert len(fingerprints) == 1
        assert builds == ["qft_11"]
        # The memo keys on content-free names but yields content digests.
        concrete = CompileJob(circuit=build_benchmark("qft_11"), device="G-2x2")
        assert fingerprints == {(concrete.compile_fingerprint(), concrete.fingerprint())}

    def test_named_device_memo_tells_capacity_types_apart(self):
        assert CompileJob(circuit="qft_4", device="G-2x2", capacity=True).compile_fingerprint() != (
            CompileJob(circuit="qft_4", device="G-2x2", capacity=1).compile_fingerprint()
        )

    def test_jobs_keep_only_digests(self):
        job = CompileJob(circuit="qft_10", device="G-2x2")
        job.fingerprint()
        job.compile_fingerprint()
        memoised = {name for name in vars(job) if name.startswith("_")}
        assert memoised == {"_fingerprint", "_compile_fingerprint"}


class TestJobResolution:
    def test_unknown_compiler_rejected(self):
        with pytest.raises(ReproError):
            normalize_compiler_name("qiskit")
        with pytest.raises(ReproError):
            CompileJob(circuit="qft_10", device="G-2x2", compiler="qiskit").compile_fingerprint()

    def test_ssync_aliases_normalise(self):
        assert normalize_compiler_name("This Work") == "s-sync"
        assert normalize_compiler_name("ssync") == "s-sync"

    def test_capacity_with_concrete_device_rejected(self):
        job = CompileJob(circuit="qft_10", device=paper_device("G-2x2"), capacity=9)
        with pytest.raises(ReproError):
            job.resolve_device()

    def test_resolved_mapping_defaults(self):
        assert CompileJob(circuit="qft_10", device="G-2x2").resolved_mapping() == "gathering"
        assert (
            CompileJob(circuit="qft_10", device="G-2x2", initial_mapping="sta").resolved_mapping()
            == "sta"
        )
        assert (
            CompileJob(circuit="qft_10", device="G-2x2", compiler="murali").resolved_mapping()
            == ""
        )

    def test_compile_job_dispatches_baselines(self):
        result = compile_job(CompileJob(circuit="bv_12", device="L-4", compiler="dai"))
        assert result.compiler_name == "dai"
        assert result.schedule.two_qubit_gate_count == 12
