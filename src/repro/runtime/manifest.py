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

A bare JSON list of job objects is also accepted, and an object with any
top-level key besides ``jobs`` and ``defaults`` is refused.  Each job object
supports the keys ``circuit`` (benchmark name, or a ``.qasm`` path that
only :func:`load_manifest` reads),
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
import math
from pathlib import Path
from typing import Any, Mapping

from repro.circuit.qasm import qasm_to_circuit
from repro.core.compiler import SSyncConfig
from repro.core.mapping import get_mapper
from repro.core.scheduler import SchedulerConfig
from repro.exceptions import ManifestError, ReproError
from repro.noise.gate_times import GateImplementation
from repro.noise.heating import HeatingParameters
from repro.registry import compiler_spec, normalize_compiler_name
from repro.runtime.jobs import CompileJob, _named_fingerprint
from repro.schema import Rule, ruled_fields

#: The rule of each job key (``mapping`` aliases ``initial_mapping``).  Named circuits
#: and devices must also build; the device builder owns the range of ``capacity``.
JOB_RULES: dict[str, Rule] = {
    "circuit": Rule("string"),
    "device": Rule("string"),
    "capacity": Rule("int", optional=True),
    "compiler": Rule("string", resolve=normalize_compiler_name),
    "initial_mapping": Rule("string", resolve=get_mapper, optional=True),
    "gate_implementation": Rule("string", resolve=GateImplementation.from_name),
    "heating": Rule("object", optional=True),
    "config": Rule("object", optional=True),
    "label": Rule(),
    "parameter": Rule(),
    "value": Rule(),
}
#: The ``config`` knob for the Fig. 14 ratio ``r``; ``GraphWeights`` owns its range.
WEIGHT_RATIO_RULE = Rule("number")
#: The keys a manifest object may carry.
_DOCUMENT_KEYS = frozenset({"jobs", "defaults"})


def ssync_config_from_dict(data: Mapping[str, Any]) -> SSyncConfig:
    """Build an :class:`SSyncConfig` from flat manifest keys.

    Accepts the ruled :class:`SSyncConfig` and :class:`SchedulerConfig`
    fields, and the convenience knob ``weight_ratio`` (the Fig. 14 ``r``).
    """
    top: dict[str, Any] = {}
    scheduler: dict[str, Any] = {}
    ratio: float | None = None
    for key, value in data.items():
        if key == "weight_ratio":
            WEIGHT_RATIO_RULE.check(key, value, ManifestError)
            ratio = float(value)
        elif key in ruled_fields(SSyncConfig):
            top[key] = value
        elif key in ruled_fields(SchedulerConfig):
            scheduler[key] = value
        else:
            raise ManifestError(f"unknown S-SYNC config key {key!r} in manifest")
    config = SSyncConfig(scheduler=SchedulerConfig(**scheduler), **top)
    if ratio is not None:
        config = config.with_weight_ratio(ratio)
    return config


def _resolve_circuit_spec(spec: str, read_files: bool) -> Any:
    """A ``.qasm`` path is loaded eagerly if ``read_files``; a benchmark name must build."""
    if spec.lower().endswith(".qasm"):
        if not read_files:
            raise ManifestError(
                f"circuit {spec!r} names a file, and circuit files are read only by "
                "repro batch; submit a benchmark name"
            )
        path = Path(spec)
        try:
            return qasm_to_circuit(path.read_text(encoding="utf-8"), name=path.stem)
        except (OSError, UnicodeDecodeError, ReproError) as exc:
            raise ManifestError(f"cannot load circuit file {spec!r}: {exc}") from exc
    try:
        _named_fingerprint("circuit", spec)
    except ReproError as exc:
        raise ManifestError(f"invalid circuit {spec!r}: {exc}") from exc
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
    data: Mapping[str, Any],
    defaults: Mapping[str, Any] | None = None,
    *,
    read_files: bool = False,
) -> CompileJob:
    """Build one :class:`CompileJob` from a manifest job object, checking every value.

    A ``.qasm`` circuit path is read only with ``read_files=True``, which
    :func:`load_manifest` passes: a document that arrives over the network
    must not name files on the machine that parses it.
    """
    merged: dict[str, Any] = _normalize_mapping_key(defaults or {})
    merged.update(_normalize_mapping_key(data))
    unknown = set(merged) - JOB_RULES.keys()
    if unknown:
        raise ManifestError(f"unknown manifest job keys: {', '.join(sorted(unknown))}")
    if "circuit" not in merged:
        raise ManifestError("every manifest job needs a 'circuit'")
    if "device" not in merged:
        raise ManifestError("every manifest job needs a 'device' (directly or via defaults)")
    for key, value in merged.items():
        JOB_RULES[key].check(key, value, ManifestError)

    circuit = _resolve_circuit_spec(merged["circuit"], read_files)
    device, capacity = merged["device"], merged.get("capacity")
    try:
        _named_fingerprint("device", device, capacity)
    except ReproError as exc:
        raise ManifestError(f"invalid device spec {device!r}: {exc}") from exc
    config = merged.get("config")
    if config is not None:
        config = ssync_config_from_dict(config)
    heating = merged.get("heating")
    if heating is not None:
        unknown = set(heating) - ruled_fields(HeatingParameters).keys()
        if unknown:
            raise ManifestError(f"unknown heating parameters: {', '.join(sorted(unknown))}")
        heating = HeatingParameters(**heating)
    compiler = normalize_compiler_name(merged.get("compiler", "s-sync"))
    mapping = merged.get("initial_mapping")
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
        circuit=circuit,
        device=device,
        capacity=capacity,
        compiler=compiler,
        initial_mapping=mapping,
        config=config,
        gate_implementation=merged.get("gate_implementation", "fm"),
        heating=heating,
        label=str(merged.get("label", "")),
        parameter=str(merged.get("parameter", "")),
        value=merged.get("value", ""),
    )


def jobs_from_manifest(document: Any, *, read_files: bool = False) -> list[CompileJob]:
    """Parse a loaded manifest document (mapping or bare job list).

    ``read_files`` is passed on to :func:`job_from_dict`.
    """
    if isinstance(document, Mapping):
        unknown = set(document) - _DOCUMENT_KEYS
        if unknown:
            raise ManifestError(f"unknown manifest keys: {', '.join(sorted(unknown))}")
        defaults = document.get("defaults", {})
        job_specs = document.get("jobs")
        if job_specs is None:
            raise ManifestError("manifest object needs a 'jobs' list")
    elif isinstance(document, (list, tuple)):
        defaults, job_specs = {}, document
    else:
        raise ManifestError("a manifest must be a JSON object or a list of jobs")
    if not isinstance(defaults, Mapping):
        raise ManifestError("manifest 'defaults' must be an object")
    if not isinstance(job_specs, (list, tuple)):
        raise ManifestError(f"manifest 'jobs' must be a list, not {type(job_specs).__name__}")
    if not job_specs:
        raise ManifestError("the manifest contains no jobs")
    jobs = []
    for index, spec in enumerate(job_specs):
        if not isinstance(spec, Mapping):
            raise ManifestError(f"manifest job #{index} is not an object")
        try:
            jobs.append(job_from_dict(spec, defaults=defaults, read_files=read_files))
        except ReproError as exc:
            raise ManifestError(f"manifest job #{index}: {exc}") from exc
    return jobs


def _finite_number(text: str) -> float:
    """JSON number hook: refuse ``NaN``, ``Infinity`` and floats that overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ManifestError(f"invalid JSON manifest: {text} is not a finite number")
    return value


def manifest_document_from_text(text: "str | bytes") -> Any:
    """Decode a raw JSON manifest body into its document form.

    Split out of :func:`jobs_from_manifest_text` so callers that need the
    *document* as well as the jobs — the service journals the document
    verbatim, which is what makes interrupted jobs resubmittable after a
    restart — decode exactly once.  Raises :class:`ManifestError` for
    bodies that are not UTF-8, not JSON or not finite numbers.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"manifest body is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ManifestError(f"invalid JSON manifest: {exc}") from exc


def jobs_from_manifest_text(text: "str | bytes") -> list[CompileJob]:
    """Parse a JSON manifest from raw text (the service request body).

    Decode, then :func:`jobs_from_manifest`, which reads no circuit files.
    Raises :class:`ManifestError` for undecodable or invalid documents.
    """
    return jobs_from_manifest(manifest_document_from_text(text))


def load_manifest(path: "Path | str") -> list[CompileJob]:
    """Read a JSON or YAML manifest file into compile jobs.

    The only parse that reads the ``.qasm`` circuit files a manifest names
    (``repro batch``, whose caller owns those files).
    """
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
        return jobs_from_manifest(yaml.safe_load(text), read_files=True)
    try:
        return jobs_from_manifest(manifest_document_from_text(text), read_files=True)
    except ManifestError as exc:
        raise ManifestError(f"manifest {path}: {exc}") from exc
