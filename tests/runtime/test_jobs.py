"""Unit tests for compile jobs and deterministic fingerprinting."""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from repro.circuit.library import build_benchmark, qft_circuit
from repro.core.compiler import SSyncConfig
from repro.exceptions import CircuitError, ReproError
from repro.hardware.presets import paper_device
from repro.registry import normalize_compiler_name
from repro.runtime import jobs as jobs_module
from repro.runtime.jobs import (
    CompileJob,
    circuit_fingerprint,
    compile_job,
    config_fingerprint,
    device_fingerprint,
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
            "b689431a1b1aff6b8d9044f557772ae15cf1eb6d40b6ad62ca75ddd4df0c27d0"
        )
        assert job.fingerprint() == (
            "86d2fe364bcc78f8849ed576a5c461673ed22c9133e3689422b4ab05d52db698"
        )

    def test_named_circuit_is_built_once_for_many_jobs(self, monkeypatch):
        builds = []

        def counting_build(name):
            builds.append(name)
            return build_benchmark(name)

        monkeypatch.setattr(jobs_module, "build_benchmark", counting_build)
        jobs_module._named_circuit.cache_clear()
        jobs_module._named_fingerprint.cache_clear()
        jobs = [
            CompileJob(circuit="qft_11", device="G-2x2", label=str(index))
            for index in range(100)
        ]
        fingerprints = {(job.compile_fingerprint(), job.fingerprint()) for job in jobs}
        assert len(fingerprints) == 1
        # Fingerprints and compiles share the one build.
        for job in jobs[:3]:
            compile_job(job)
        assert builds == ["qft_11"]
        # The memo keys on content-free names but yields content digests.
        concrete = CompileJob(circuit=build_benchmark("qft_11"), device="G-2x2")
        assert fingerprints == {(concrete.compile_fingerprint(), concrete.fingerprint())}

    def test_concrete_circuit_is_hashed_once_for_many_jobs(self, monkeypatch):
        payloads = []
        digest = jobs_module._digest

        def counting_digest(payload):
            payloads.append(payload)
            return digest(payload)

        monkeypatch.setattr(jobs_module, "_digest", counting_digest)
        circuit = qft_circuit(9)
        for index in range(50):
            job = CompileJob(circuit=circuit, device="G-2x2", label=str(index))
            job.compile_fingerprint()
            job.fingerprint()
        assert sum(1 for payload in payloads if "gates" in payload) == 1

    def test_appending_a_gate_changes_the_digest(self):
        circuit = qft_circuit(6)
        before = CompileJob(circuit=circuit, device="G-2x2").compile_fingerprint()
        circuit.h(0)
        after = CompileJob(circuit=circuit, device="G-2x2").compile_fingerprint()
        assert after != before
        assert circuit_fingerprint(circuit) == circuit_fingerprint(qft_circuit(6).h(0))

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


class TestNamedCircuitMemo:
    def test_resolved_circuits_are_private_copies(self):
        job = CompileJob(circuit="qft_6", device="G-2x2")
        first, second = job.resolve_circuit(), job.resolve_circuit()
        assert first == second
        assert first is not second
        first.h(0)
        fresh = build_benchmark("qft_6")
        assert second == fresh
        assert job.resolve_circuit() == fresh
        concrete = CompileJob(circuit=fresh, device="G-2x2")
        assert (job.compile_fingerprint(), job.fingerprint()) == (
            concrete.compile_fingerprint(),
            concrete.fingerprint(),
        )

    def test_bad_name_raises_every_time_and_is_not_kept(self):
        size = jobs_module._named_circuit.cache_info().currsize
        for _ in range(2):
            job = CompileJob(circuit="nope_3", device="G-2x2")
            with pytest.raises(CircuitError):
                job.resolve_circuit()
            with pytest.raises(CircuitError):
                job.compile_fingerprint()
        assert jobs_module._named_circuit.cache_info().currsize == size

    def test_memo_is_bounded(self):
        jobs_module._named_circuit.cache_clear()
        for size in range(4, 13):
            CompileJob(circuit=f"qft_{size}", device="G-2x2").resolve_circuit()
        assert jobs_module._named_circuit.cache_info().currsize == 8

    def test_concurrent_resolves_get_private_copies(self):
        names = ("qft_5", "bv_6", "alt_7")
        expected = {name: build_benchmark(name) for name in names}
        jobs_module._named_circuit.cache_clear()
        results: list[list] = [[] for _ in range(8)]
        errors: list[BaseException] = []

        def resolve_all(out):
            try:
                for _ in range(20):
                    for name in names:
                        job = CompileJob(circuit=name, device="G-2x2")
                        out.append((name, job.resolve_circuit()))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=resolve_all, args=(out,), daemon=True) for out in results
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        resolved = [item for out in results for item in out]
        assert len(resolved) == 8 * 20 * len(names)
        assert all(circuit == expected[name] for name, circuit in resolved)
        assert len({id(circuit._gates) for _, circuit in resolved}) == len(resolved)


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
