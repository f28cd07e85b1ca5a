"""Job manifests: declarative batch descriptions for ``repro batch``.

A manifest is a JSON (or YAML, when PyYAML is installed) document with a
job list and optional shared defaults::

    {
      "defaults": {"device": "G-2x3", "gate_implementation": "fm"},
      "jobs": [
        {"circuit": "qft_24"},
        {"circuit": "bv_64", "device": "L-6", "mapping": "sta"},
        {"circuit": "qft_24", "compiler": "murali"},
        {"circuit": "adder_32", "config": {"lookahead_depth": 0}}
      ]
    }

A bare JSON list of job objects is also accepted.  Each job object
supports the keys ``circuit`` (benchmark name or ``.qasm`` path),
``device``/``capacity``, ``compiler``, ``mapping`` (or
``initial_mapping``), ``gate_implementation``, ``heating`` (a mapping of
:class:`HeatingParameters` fields), ``config`` (see
:func:`ssync_config_from_dict`) and the presentation metadata ``label``,
``parameter``, ``value``.

Every way a manifest can be malformed raises the typed
:class:`~repro.exceptions.ManifestError` (a :class:`ReproError`
subclass), so callers that accept untrusted documents — the
:mod:`repro.service` HTTP front-end chief among them — can map bad
requests onto structured 4xx responses without guessing which failures
were the client's fault.
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.circuit.qasm import qasm_to_circuit
from repro.core.compiler import SSyncConfig
from repro.core.scheduler import SchedulerConfig
from repro.exceptions import ManifestError, ReproError
from repro.hardware.presets import paper_device
from repro.noise.heating import HeatingParameters
from repro.registry import compiler_spec, normalize_compiler_name
from repro.runtime.jobs import CompileJob

#: Manifest keys understood by :func:`job_from_dict`.
_JOB_KEYS = frozenset(
    {
        "circuit",
        "device",
        "capacity",
        "compiler",
        "mapping",
        "initial_mapping",
        "gate_implementation",
        "heating",
        "config",
        "label",
        "parameter",
        "value",
    }
)

_SCHEDULER_KEYS = frozenset(f.name for f in dataclass_fields(SchedulerConfig))
_TOP_LEVEL_KEYS = frozenset(
    {"default_mapping", "mapping_reserve_per_trap", "mapping_lookahead_layers"}
)


def ssync_config_from_dict(data: Mapping[str, Any]) -> SSyncConfig:
    """Build an :class:`SSyncConfig` from flat manifest keys.

    Accepts the top-level mapping fields, any :class:`SchedulerConfig`
    field, and the convenience knob ``weight_ratio`` (the Fig. 14 ``r``).
    """
    config = SSyncConfig()
    top: dict[str, Any] = {}
    scheduler: dict[str, Any] = {}
    ratio: float | None = None
    for key, value in data.items():
        if key == "weight_ratio":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ManifestError(f"weight_ratio must be a number, not {value!r}")
            ratio = float(value)
        elif key in _TOP_LEVEL_KEYS:
            top[key] = value
        elif key in _SCHEDULER_KEYS:
            scheduler[key] = value
        else:
            raise ManifestError(f"unknown S-SYNC config key {key!r} in manifest")
    if scheduler:
        config = replace(config, scheduler=replace(config.scheduler, **scheduler))
    if top:
        config = replace(config, **top)
    if ratio is not None:
        config = config.with_weight_ratio(ratio)
    return config


@lru_cache(maxsize=64)
def _device_spec_error(device: str, capacity: "int | None") -> str | None:
    """``None`` when the spec resolves, else the builder's error message.

    Memoised because validation materialises the device (including its
    dense distance matrices) only to discard it, and a sweep-shaped
    manifest repeats one spec across every job.
    """
    try:
        paper_device(device, capacity)
    except (ReproError, TypeError, ValueError) as exc:
        return str(exc)
    return None


def _validate_device_spec(device: str, capacity: Any) -> None:
    if isinstance(capacity, int) or capacity is None:
        error = _device_spec_error(device, capacity)
    else:  # unhashable/garbage capacity cannot go through the cache
        error = _device_spec_error.__wrapped__(device, capacity)
    if error is not None:
        raise ManifestError(f"invalid device spec {device!r}: {error}")


def _resolve_circuit_spec(spec: Any) -> Any:
    """A ``.qasm`` path is loaded eagerly; benchmark names stay symbolic."""
    if isinstance(spec, str) and spec.lower().endswith(".qasm"):
        path = Path(spec)
        if not path.exists():
            raise ManifestError(f"manifest circuit file {spec!r} does not exist")
        return qasm_to_circuit(path.read_text(), name=path.stem)
    return spec


def _normalize_mapping_key(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Fold the ``mapping`` alias into ``initial_mapping`` before merging.

    Normalising each dict separately keeps a job's ``mapping`` from being
    silently overridden by a defaults-level ``initial_mapping``.
    """
    out = dict(spec)
    if "mapping" in out:
        out.setdefault("initial_mapping", out.pop("mapping"))
    return out


def job_from_dict(
    data: Mapping[str, Any], defaults: Mapping[str, Any] | None = None
) -> CompileJob:
    """Build one :class:`CompileJob` from a manifest job object."""
    merged: dict[str, Any] = _normalize_mapping_key(defaults or {})
    merged.update(_normalize_mapping_key(data))
    unknown = set(merged) - _JOB_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest job keys: {', '.join(sorted(unknown))}")
    if "circuit" not in merged:
        raise ManifestError("every manifest job needs a 'circuit'")
    if "device" not in merged:
        raise ManifestError("every manifest job needs a 'device' (directly or via defaults)")

    config = merged.get("config")
    if isinstance(config, Mapping):
        config = ssync_config_from_dict(config)
    heating = merged.get("heating")
    if isinstance(heating, Mapping):
        try:
            heating = HeatingParameters(**heating)
        except TypeError as exc:
            raise ManifestError(f"invalid heating parameters in manifest: {exc}") from exc

    mapping = merged.get("initial_mapping")
    # Resolve the compiler through the registry and validate the device
    # spec now, so a typo fails with the job's index in the error (and a
    # 4xx from the service) instead of mid-batch in a worker process.
    try:
        compiler = normalize_compiler_name(str(merged.get("compiler", "s-sync")))
    except ReproError as exc:
        raise ManifestError(str(exc)) from exc
    device = merged["device"]
    if isinstance(device, str):
        _validate_device_spec(device, merged.get("capacity"))
    if mapping is not None and not compiler_spec(compiler).accepts_mapping:
        if "initial_mapping" in _normalize_mapping_key(data):
            raise ManifestError(
                f"compiler {compiler!r} brings its own initial mapping; "
                f"remove mapping={mapping!r} from the job"
            )
        # A defaults-level mapping is meant for the jobs whose compiler
        # has pluggable mappings; fixed-mapping compilers just skip it.
        mapping = None
    return CompileJob(
        circuit=_resolve_circuit_spec(merged["circuit"]),
        device=merged["device"],
        capacity=merged.get("capacity"),
        compiler=compiler,
        initial_mapping=mapping,
        config=config,
        gate_implementation=merged.get("gate_implementation", "fm"),
        heating=heating,
        label=str(merged.get("label", "")),
        parameter=str(merged.get("parameter", "")),
        value=merged.get("value", ""),
    )


def jobs_from_manifest(document: Any) -> list[CompileJob]:
    """Parse a loaded manifest document (mapping or bare job list)."""
    if isinstance(document, Sequence) and not isinstance(document, (str, bytes)):
        defaults: Mapping[str, Any] = {}
        job_specs = document
    elif isinstance(document, Mapping):
        defaults = document.get("defaults", {})
        job_specs = document.get("jobs")
        if job_specs is None:
            raise ManifestError("manifest object needs a 'jobs' list")
    else:
        raise ManifestError("a manifest must be a JSON object or a list of jobs")
    if not isinstance(defaults, Mapping):
        raise ManifestError("manifest 'defaults' must be an object")
    jobs = []
    for index, spec in enumerate(job_specs):
        if not isinstance(spec, Mapping):
            raise ManifestError(f"manifest job #{index} is not an object")
        try:
            jobs.append(job_from_dict(spec, defaults=defaults))
        except ReproError as exc:
            raise ManifestError(f"manifest job #{index}: {exc}") from exc
    if not jobs:
        raise ManifestError("the manifest contains no jobs")
    return jobs


def manifest_document_from_text(text: "str | bytes") -> Any:
    """Decode a raw JSON manifest body into its document form.

    Split out of :func:`jobs_from_manifest_text` so callers that need the
    *document* as well as the jobs — the service journals the document
    verbatim, which is what makes interrupted jobs resubmittable after a
    restart — decode exactly once.  Raises :class:`ManifestError` for
    bodies that are not UTF-8 or not JSON.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"manifest body is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"invalid JSON manifest: {exc}") from exc


def jobs_from_manifest_text(text: "str | bytes") -> list[CompileJob]:
    """Parse a JSON manifest from raw text (the service request body).

    This is the one request-parsing path shared by the HTTP front-end
    and JSON file loading: decode, then :func:`jobs_from_manifest`.
    Raises :class:`ManifestError` for undecodable or invalid documents.
    """
    return jobs_from_manifest(manifest_document_from_text(text))


def load_manifest(path: "Path | str") -> list[CompileJob]:
    """Read a JSON or YAML manifest file into compile jobs."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file {path} does not exist")
    text = path.read_text()
    if path.suffix.lower() in {".yaml", ".yml"}:
        try:
            import yaml  # type: ignore[import-untyped]
        except ImportError as exc:
            raise ManifestError(
                "YAML manifests need the optional PyYAML dependency; "
                "install it or use a JSON manifest"
            ) from exc
        document = yaml.safe_load(text)
        return jobs_from_manifest(document)
    try:
        return jobs_from_manifest_text(text)
    except ManifestError as exc:
        raise ManifestError(f"manifest {path}: {exc}") from exc
