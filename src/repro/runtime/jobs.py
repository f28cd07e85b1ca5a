"""Declarative compile jobs and deterministic fingerprinting.

A :class:`CompileJob` names everything that influences one compilation —
circuit, device, compiler, initial mapping, :class:`SSyncConfig` — plus
the evaluation settings (gate implementation, heating model).  Jobs are
plain picklable values, so they can be shipped to worker processes, and
they fingerprint deterministically, so identical work can be recognised
across batches, processes and machines.

Two fingerprints matter:

* the **compile fingerprint** covers exactly the inputs of the compiler
  (circuit + device + compiler + mapping + config) and keys the schedule
  cache — two jobs that differ only in evaluation settings share one
  compilation;
* the full **fingerprint** additionally covers the evaluation settings
  and identifies the job's result record.

All fingerprints are SHA-256 digests of canonical JSON (sorted keys,
no whitespace), so they are stable across processes regardless of hash
randomisation.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import build_benchmark
from repro.core.compiler import SSyncConfig
from repro.core.result import CompilationResult
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.presets import paper_device
from repro.noise.gate_times import GateImplementation
from repro.noise.heating import HeatingParameters
from repro.registry import compiler_spec, make_pipeline, normalize_compiler_name
from repro.schedule.serialize import device_to_dict


def _digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Content fingerprint of a circuit: qubit count plus the gate list.

    The digest is kept on the circuit (``circuit._fingerprint``, cleared
    by :meth:`QuantumCircuit.append`), so many jobs over one circuit
    object hash its gates once.
    """
    cached = getattr(circuit, "_fingerprint", None)
    if cached is None:
        cached = circuit._fingerprint = _digest(
            {
                "num_qubits": circuit.num_qubits,
                "gates": [
                    [gate.name, list(gate.qubits), list(gate.params)] for gate in circuit
                ],
            }
        )
    return cached


def device_fingerprint(device: QCCDDevice) -> str:
    """Content fingerprint of a device: traps, capacities and connections."""
    return _digest(device_to_dict(device))


def config_fingerprint(config: SSyncConfig | None) -> str:
    """Fingerprint of an :class:`SSyncConfig` (``None`` means the defaults)."""
    return _digest(asdict(config or SSyncConfig()))


@functools.lru_cache(maxsize=8)
def _named_circuit(name: str) -> QuantumCircuit:
    """The library circuit ``name``, built once per process.

    Callers never receive this object: :meth:`CompileJob.resolve_circuit`
    hands out copies and :func:`_named_fingerprint` only hashes it.  The
    body looks ``build_benchmark`` up at call time, so a wrapper installed
    on the module later sees every build, and a name that fails to build
    raises on every call (``lru_cache`` keeps no exceptions).  Eight
    entries hold every table the sweeps use (6, 6 and 7 circuits) and
    bound what the process keeps.
    """
    return build_benchmark(name)


@functools.lru_cache(maxsize=256, typed=True)
def _named_fingerprint(kind: str, name: str, capacity: int | None = None) -> str:
    """Content fingerprint of a library circuit or a paper device, by name.

    A Table-2 circuit is a pure function of its name, and a paper device
    of its name and capacity, so the content fingerprint can be keyed by
    them.  A circuit is hashed from the one :func:`_named_circuit` keeps
    (callers only ever get copies of it); a device is built, hashed and
    dropped, so only its fingerprint string is kept.  Both memos are
    bounded.  ``typed`` keeps ``capacity=True`` apart from ``capacity=1``
    (they build different devices), and a name that fails to build raises
    every time, exactly as building it directly does.
    """
    if kind == "circuit":
        return circuit_fingerprint(_named_circuit(name))
    return device_fingerprint(paper_device(name, capacity))


@dataclass(frozen=True)
class CompileJob:
    """One (circuit, device, compiler, config, evaluation) work item.

    ``circuit`` and ``device`` accept either concrete objects or names —
    a Table-2 benchmark name (``"qft_24"``) and a paper topology name
    (``"G-2x3"``) respectively — so manifests stay declarative and jobs
    stay cheap to pickle.

    ``label``/``parameter``/``value`` are presentation metadata carried
    into sweep records; they do not affect the fingerprints.
    """

    circuit: QuantumCircuit | str
    device: QCCDDevice | str
    capacity: int | None = None
    compiler: str = "s-sync"
    initial_mapping: str | None = None
    config: SSyncConfig | None = None
    gate_implementation: GateImplementation | str = GateImplementation.FM
    heating: HeatingParameters | None = None
    label: str = ""
    parameter: str = ""
    value: float | str = ""
    tags: tuple[str, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_circuit(self) -> QuantumCircuit:
        """Materialise the circuit.

        A named benchmark is built once per process (:func:`_named_circuit`)
        and every call returns a fresh copy over the same immutable gates,
        so the caller owns what it gets.
        """
        if isinstance(self.circuit, QuantumCircuit):
            return self.circuit
        return _named_circuit(self.circuit).copy()

    def resolve_device(self) -> QCCDDevice:
        """Materialise the device (building a named preset if needed)."""
        if isinstance(self.device, QCCDDevice):
            if self.capacity is not None:
                raise ReproError(
                    "CompileJob.capacity only applies when the device is given by name"
                )
            return self.device
        return paper_device(self.device, self.capacity)

    def resolved_compiler(self) -> str:
        """Canonical compiler name (validates the alias via the registry)."""
        return normalize_compiler_name(self.compiler)

    def resolved_mapping(self) -> str:
        """The first-level mapping this job will use, as recorded.

        Compilers that bring their own fixed mapping (per their registry
        spec) record the empty string.
        """
        if not compiler_spec(self.compiler).accepts_mapping:
            return ""
        if self.initial_mapping is not None:
            return self.initial_mapping
        return (self.config or SSyncConfig()).default_mapping

    def resolved_gate_implementation(self) -> GateImplementation:
        """The evaluation gate implementation as an enum member."""
        return GateImplementation.from_name(self.gate_implementation)

    # ------------------------------------------------------------------
    # fingerprints
    # ------------------------------------------------------------------
    def compile_key(self) -> dict[str, Any]:
        """The canonical payload hashed into the compile fingerprint.

        Named circuits and devices enter through their name-keyed content
        fingerprints (:func:`_named_fingerprint`), so building the key
        costs no circuit build once a name has been seen.  A concrete
        circuit keeps its digest until a gate is appended; a concrete
        device is fingerprinted from its content on every call.
        """
        spec = compiler_spec(self.compiler)
        key: dict[str, Any] = {
            "circuit": (
                _named_fingerprint("circuit", self.circuit)
                if isinstance(self.circuit, str)
                else circuit_fingerprint(self.resolve_circuit())
            ),
            "device": (
                _named_fingerprint("device", self.device, self.capacity)
                if isinstance(self.device, str)
                else device_fingerprint(self.resolve_device())
            ),
            "compiler": spec.name,
        }
        if spec.accepts_mapping:
            key["mapping"] = self.resolved_mapping()
        if spec.accepts_config:
            key["config"] = asdict(self.config or SSyncConfig())
        return key

    def compile_fingerprint(self) -> str:
        """Fingerprint of the compilation inputs (the schedule-cache key).

        Memoised per instance (only the digest is kept): a batch run asks
        for each fingerprint several times.
        """
        cached = self.__dict__.get("_compile_fingerprint")
        if cached is None:
            cached = _digest(self.compile_key())
            object.__setattr__(self, "_compile_fingerprint", cached)
        return cached

    def fingerprint(self) -> str:
        """Fingerprint of the full job, evaluation settings included."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = _digest(
                {
                    "compile": self.compile_key(),
                    "gate_implementation": self.resolved_gate_implementation().value,
                    "heating": asdict(self.heating or HeatingParameters()),
                }
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def describe(self) -> dict[str, object]:
        """Short human-readable summary used by CLI tables."""
        circuit = self.circuit if isinstance(self.circuit, str) else self.circuit.name
        device = self.device if isinstance(self.device, str) else self.device.name
        return {
            "circuit": circuit,
            "device": device,
            "compiler": self.resolved_compiler(),
            "mapping": self.resolved_mapping() or "-",
            "gate_implementation": self.resolved_gate_implementation().value,
        }


def compile_job(job: CompileJob) -> CompilationResult:
    """Execute the compilation stage of ``job`` (no evaluation).

    Resolves the compiler through :mod:`repro.registry`, so any backend
    registered via :func:`repro.registry.register_compiler` — built-in or
    third-party — runs here.  This is the function worker processes run;
    it deliberately touches no shared state.
    """
    circuit = job.resolve_circuit()
    device = job.resolve_device()
    spec = compiler_spec(job.compiler)
    if job.initial_mapping is not None and not spec.accepts_mapping:
        raise ReproError(
            f"compiler {spec.name!r} brings its own initial mapping; "
            f"initial_mapping={job.initial_mapping!r} would be ignored"
        )
    pipeline = make_pipeline(spec.name, device, config=job.config)
    if spec.accepts_mapping:
        return pipeline.compile(circuit, initial_mapping=job.initial_mapping)
    return pipeline.compile(circuit)
