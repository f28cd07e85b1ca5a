"""Schema-driven manifest mutations: each document is a 400 or a job that runs.

Documents are mutated from the example manifests and from one seed that
sets every config and heating key.  The mutations are drawn from the
manifest rules themselves (:data:`repro.runtime.manifest.JOB_RULES` and
the field rules of the config dataclasses): wrong types, values around
each bound, unknown keys, missing required keys, wrong nesting, and at
the byte level truncated JSON, non-UTF-8 bytes and non-finite numbers.

Each document must either be rejected with :class:`ManifestError`, or
get a job id and run through ``run_batch``.  A well-formed job can still
fail for two reasons only: its circuit does not fit its device
(``MappingError``), or it exhausts ``max_generic_swaps``
(``SchedulingError``).  Every tenth document also goes to an in-process
``repro serve``, which must answer 400, or 202 for a job that ends done
or fails with one of those two errors, and never 5xx.
"""

from __future__ import annotations

import copy
import json
import random
import threading
import time
from pathlib import Path
from typing import Any

import pytest

from repro.core.compiler import SSyncConfig
from repro.core.scheduler import SchedulerConfig
from repro.exceptions import ManifestError, ServiceError
from repro.noise.heating import HeatingParameters
from repro.runtime.api import run_batch
from repro.runtime.cache import ScheduleCache
from repro.runtime.manifest import JOB_RULES, WEIGHT_RATIO_RULE, jobs_from_manifest_text
from repro.schema import Rule, ruled_fields
from repro.service import ServiceClient, job_batch_id, make_server

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples" / "manifests").glob("*.json"))
DOCUMENTS = 2000
SERVICE_EVERY = 10
SEED = 0
MAX_QUBITS = 8

CONFIG_RULES: dict[str, Rule] = {
    name: field_rule
    for cls in (SSyncConfig, SchedulerConfig)
    for name, (field_rule, _) in ruled_fields(cls).items()
}
CONFIG_RULES["weight_ratio"] = WEIGHT_RATIO_RULE
HEATING_RULES = {name: field_rule for name, (field_rule, _) in ruled_fields(HeatingParameters).items()}
#: Config fields a JSON document cannot set to a valid value.
NOT_JSON = {"weights"}

#: Sets every config and heating key a manifest can set.
FULL_SEED: dict[str, Any] = {
    "defaults": {"device": "G-2x2", "capacity": 4, "gate_implementation": "pm"},
    "jobs": [
        {
            "circuit": "qft_6",
            "mapping": "sta",
            "label": "every-key",
            "parameter": "r",
            "value": 100,
            "config": {
                "default_mapping": "even-divided",
                "mapping_reserve_per_trap": 0,
                "mapping_lookahead_layers": 4,
                "decay_delta": 0.01,
                "decay_reset_interval": 3,
                "lookahead_depth": 2,
                "lookahead_weight": 0.25,
                "stall_limit": 16,
                "max_generic_swaps": 100_000,
                "backend": "flat",
                "weight_ratio": 100,
            },
            "heating": {
                "k1": 0.2,
                "k2": 0.02,
                "background_rate_per_s": 2.0,
                "amplitude_scale": 2.0e-4,
            },
        },
        {"circuit": "bv_5", "compiler": "dai", "label": "baseline"},
    ],
}

#: One value of each JSON kind.
SAMPLES: tuple[Any, ...] = (3, 2.5, "x", True, None, [4], {"k": 1})
#: Names that resolve nowhere, and circuit and device names near the valid ones.
NAMES = ("bogus", "", "FM", "qft_0", "bogus_4", "qft_x", "adder_-1", "qft_3", "alt_4")
DEVICES = ("Z-9", "G-0x2", "L-1", "S-3", "G-2X2", "L-0", "H-2x2")
#: Text the serialiser writes in place of a marked number.
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
MARK = "__non_finite__"


def _small(circuit: str) -> str:
    """An example circuit shrunk to at most MAX_QUBITS qubits."""
    family, _ = circuit.rsplit("_", 1)
    return f"{family}_{2 if family == 'adder' else 6}"


def _seeds() -> list[dict[str, Any]]:
    seeds = [FULL_SEED]
    for path in EXAMPLES:
        document = json.loads(path.read_text())
        for job in document["jobs"]:
            job["circuit"] = _small(job["circuit"])
        seeds.append(document)
    return seeds


def _probes(key: str, key_rule: Rule) -> list[Any]:
    """Values around the rule's bounds and names near its registry."""
    values: list[Any] = list(SAMPLES)
    if key_rule.kind == "int":
        values += [-1, 0, 1, 2, 64]
    if key_rule.kind == "number":
        values += [-1.0, 0, 1e-9, 0.5, 3, 1000.0, 1e300]
    for bound in (key_rule.minimum, key_rule.above):
        if bound is not None:
            values += [bound - 1, bound, bound + 1]
            if key_rule.kind == "number":
                values += [bound - 0.5, bound + 0.5]
    if key_rule.kind == "string":
        values += list(NAMES) + (list(DEVICES) if key == "device" else [])
    if key in NOT_JSON:
        values += [{"inner_weight": 0.001}]
    if key_rule.kind in ("int", "number"):
        values.append(MARK)
    return values


def _containers(document: Any) -> list[tuple[dict[str, Any], dict[str, Rule]]]:
    """Every object in the document with the rules of the keys it holds."""
    if isinstance(document, list):
        jobs, defaults = document, None
    elif isinstance(document, dict):
        jobs, defaults = document.get("jobs"), document.get("defaults")
    else:
        return []
    found: list[tuple[dict[str, Any], dict[str, Rule]]] = []
    for spec in ([defaults] if isinstance(defaults, dict) else []) + (
        jobs if isinstance(jobs, list) else []
    ):
        if not isinstance(spec, dict):
            continue
        found.append((spec, dict(JOB_RULES)))
        if isinstance(spec.get("config"), dict):
            found.append((spec["config"], CONFIG_RULES))
        if isinstance(spec.get("heating"), dict):
            found.append((spec["heating"], HEATING_RULES))
    return found


def _set_value(rng: random.Random, document: Any) -> Any:
    containers = _containers(document)
    if containers:
        container, rules = rng.choice(containers)
        key = rng.choice(sorted(rules))
        container[key] = copy.deepcopy(rng.choice(_probes(key, rules[key])))
    return document


def _unknown_key(rng: random.Random, document: Any) -> Any:
    targets = [container for container, _ in _containers(document)]
    if isinstance(document, dict):
        targets.append(document)
    if targets:
        rng.choice(targets)["bogus_key"] = rng.choice(SAMPLES)
    return document


def _drop_required(rng: random.Random, document: Any) -> Any:
    containers = [c for c, rules in _containers(document) if rules is not CONFIG_RULES]
    if containers:
        container = rng.choice(containers)
        container.pop(rng.choice(("circuit", "device")), None)
    return document


def _renest(rng: random.Random, document: Any) -> Any:
    choice = rng.randrange(6)
    if choice == 0:
        return {"jobs": [document]}
    if choice == 1 and isinstance(document, dict) and isinstance(document.get("jobs"), list):
        return document["jobs"]
    if choice == 2 and isinstance(document, dict):
        document["jobs"] = rng.choice(({"0": document.get("jobs")}, "qft_6", 3, True, []))
        return document
    containers = _containers(document)
    if not containers:
        return document
    container, rules = rng.choice(containers)
    key = rng.choice(sorted(container)) if container else "config"
    if choice == 3:
        container[key] = [container.get(key)]
    elif choice == 4:
        container[key] = {key: container.get(key)}
    else:  # a key one level too high or too low
        other = rng.choice(sorted(CONFIG_RULES) if rules is not CONFIG_RULES else sorted(JOB_RULES))
        container[other] = rng.choice(_probes(other, CONFIG_RULES.get(other) or JOB_RULES[other]))
    return document


MUTATIONS = (_set_value, _set_value, _set_value, _unknown_key, _drop_required, _renest)


def _body(rng: random.Random, document: Any) -> bytes:
    text = json.dumps(document).replace(f'"{MARK}"', rng.choice(NON_FINITE))
    body = text.encode("utf-8")
    roll = rng.random()
    if roll < 0.06:
        return body[: rng.randrange(len(body))]
    if roll < 0.10:
        at = rng.randrange(len(body) + 1)
        return body[:at] + rng.choice((b"\xff", b"\xc3\x28", b"\xed\xa0\x80")) + body[at:]
    return body


def _documents() -> list[bytes]:
    rng = random.Random(SEED)
    seeds = _seeds()
    bodies = []
    for _ in range(DOCUMENTS):
        document = copy.deepcopy(rng.choice(seeds))
        for _ in range(rng.choice((1, 1, 2, 3))):
            document = rng.choice(MUTATIONS)(rng, document)
        bodies.append(_body(rng, document))
    return bodies


def _allowed_compile_failure(kind: str, message: str) -> bool:
    """A circuit that does not fit its device, or an exhausted generic-swap budget."""
    return kind == "MappingError" or (
        kind == "SchedulingError" and "generic-swap budget" in message
    )


def _check_direct(body: bytes, cache: ScheduleCache) -> str:
    """``rejected``, ``done`` or ``failed``; raises for anything else."""
    try:
        jobs = jobs_from_manifest_text(body)
    except ManifestError:
        return "rejected"
    for job in jobs:
        assert job.resolve_circuit().num_qubits <= MAX_QUBITS
        assert job.capacity is None or job.capacity <= 64
    job_batch_id(jobs)
    try:
        records = run_batch(jobs, workers=1, cache=cache).records()
    except Exception as exc:  # noqa: BLE001 - classified below
        if _allowed_compile_failure(type(exc).__name__, str(exc)):
            return "failed"
        raise AssertionError(f"late failure {exc!r} for {body!r}") from exc
    json.dumps(records, allow_nan=False)
    return "done"


@pytest.fixture(scope="module")
def bodies() -> list[bytes]:
    return _documents()


def test_every_document_is_rejected_or_runs(bodies):
    cache = ScheduleCache()
    outcomes = [_check_direct(body, cache) for body in bodies]
    assert len(outcomes) >= 2000
    # The mutations reach both sides of the boundary.
    assert outcomes.count("rejected") > 500
    assert outcomes.count("done") > 300
    assert outcomes.count("failed") > 0


def test_service_answers_400_or_runs_the_job(bodies):
    server = make_server(workers=1, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=60.0)
    seen: dict[str, int] = {}
    try:
        for body in bodies[::SERVICE_EVERY]:
            try:
                receipt = client.submit(body)
            except ServiceError as exc:
                assert exc.status == 400, (exc.status, str(exc), body)
                assert exc.payload["error"]["type"] == "manifest_error"
                seen["400"] = seen.get("400", 0) + 1
                continue
            deadline = time.monotonic() + 60.0
            while (status := client.job(receipt["job_id"]))["status"] not in (
                "done",
                "failed",
            ):
                assert time.monotonic() < deadline, status
                time.sleep(0.01)
            if status["status"] == "failed":
                error = status["error"]
                assert _allowed_compile_failure(error["type"], error["message"]), (error, body)
            seen[status["status"]] = seen.get(status["status"], 0) + 1
        assert client.health()["status"] == "ok"
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)
    assert sum(seen.values()) == len(bodies[::SERVICE_EVERY]) >= 200
    assert seen.get("400", 0) > 50 and seen.get("done", 0) > 30
