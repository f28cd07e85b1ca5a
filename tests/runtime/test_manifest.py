"""Unit tests for JSON/YAML job-manifest parsing."""

from __future__ import annotations

import json

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import ghz_circuit
from repro.circuit.qasm import circuit_to_qasm
from repro.exceptions import ManifestError, ReproError
from repro.runtime.manifest import (
    job_from_dict,
    jobs_from_manifest,
    jobs_from_manifest_text,
    load_manifest,
    ssync_config_from_dict,
)


class TestJobFromDict:
    def test_defaults_merge_under_job_keys(self):
        job = job_from_dict(
            {"circuit": "qft_12", "mapping": "sta"},
            defaults={"device": "G-2x3", "gate_implementation": "am2", "mapping": "gathering"},
        )
        assert job.device == "G-2x3"
        assert job.initial_mapping == "sta"
        assert job.resolved_gate_implementation().value == "am2"

    def test_unknown_key_rejected(self):
        with pytest.raises(ReproError, match="unknown manifest job keys"):
            job_from_dict({"circuit": "qft_12", "device": "G-2x2", "lasers": 9})

    def test_job_mapping_beats_defaults_initial_mapping(self):
        """A job's 'mapping' must not be overridden by a defaults-level
        'initial_mapping' (the two keys are aliases)."""
        job = job_from_dict(
            {"circuit": "qft_12", "mapping": "gathering"},
            defaults={"device": "G-2x2", "initial_mapping": "sta"},
        )
        assert job.initial_mapping == "gathering"

    def test_circuit_and_device_required(self):
        with pytest.raises(ReproError, match="'circuit'"):
            job_from_dict({"device": "G-2x2"})
        with pytest.raises(ReproError, match="'device'"):
            job_from_dict({"circuit": "qft_12"})

    def test_config_and_heating_dicts(self):
        job = job_from_dict(
            {
                "circuit": "qft_12",
                "device": "G-2x2",
                "config": {"lookahead_depth": 0, "weight_ratio": 1000.0},
                "heating": {"k1": 0.2},
            }
        )
        assert job.config is not None
        assert job.config.scheduler.lookahead_depth == 0
        assert job.config.scheduler.weights.ratio == pytest.approx(1000.0)
        assert job.heating is not None and job.heating.k1 == 0.2

    def test_bad_heating_key_rejected(self):
        with pytest.raises(ReproError, match="heating"):
            job_from_dict(
                {"circuit": "qft_12", "device": "G-2x2", "heating": {"quanta": 1}}
            )


class TestSSyncConfigFromDict:
    def test_top_level_and_scheduler_keys(self):
        config = ssync_config_from_dict(
            {"default_mapping": "sta", "decay_delta": 0.01, "stall_limit": 9}
        )
        assert config.default_mapping == "sta"
        assert config.scheduler.decay_delta == 0.01
        assert config.scheduler.stall_limit == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ReproError, match="unknown S-SYNC config key"):
            ssync_config_from_dict({"temperature": 3})


class TestManifestDocuments:
    def test_bare_list_accepted(self):
        jobs = jobs_from_manifest([{"circuit": "qft_12", "device": "G-2x2"}])
        assert len(jobs) == 1

    def test_jobs_list_required(self):
        with pytest.raises(ReproError, match="'jobs'"):
            jobs_from_manifest({"defaults": {"device": "G-2x2"}})

    def test_empty_manifest_rejected(self):
        with pytest.raises(ReproError, match="no jobs"):
            jobs_from_manifest({"jobs": []})

    def test_job_errors_name_the_index(self):
        with pytest.raises(ReproError, match="job #1"):
            jobs_from_manifest(
                {"jobs": [{"circuit": "qft_12", "device": "G-2x2"}, {"device": "G-2x2"}]}
            )


class TestLoadManifest:
    def test_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "defaults": {"device": "G-2x2"},
                    "jobs": [{"circuit": "qft_12"}, {"circuit": "bv_16", "device": "L-4"}],
                }
            )
        )
        jobs = load_manifest(path)
        assert [job.circuit for job in jobs] == ["qft_12", "bv_16"]
        assert jobs[0].device == "G-2x2"

    def test_yaml_file(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "m.yaml"
        path.write_text(
            "defaults:\n  device: G-2x2\njobs:\n  - circuit: qft_12\n  - circuit: bv_16\n"
        )
        assert len(load_manifest(path)) == 2

    def test_qasm_circuit_loaded_eagerly(self, tmp_path):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(circuit_to_qasm(ghz_circuit(6)))
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"circuit": str(qasm), "device": "G-2x2"}]))
        job = load_manifest(path)[0]
        assert isinstance(job.circuit, QuantumCircuit)
        assert job.circuit.num_qubits == 6

    @pytest.mark.parametrize(
        "make",
        [
            lambda path: path.mkdir(),
            lambda path: path.write_bytes(b"\xff\xfe"),
            lambda path: path.write_text("not qasm at all"),
        ],
        ids=["directory", "not-utf8", "not-qasm"],
    )
    def test_unloadable_qasm_circuit_is_a_manifest_error(self, tmp_path, make):
        make(tmp_path / "x.qasm")
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"circuit": str(tmp_path / "x.qasm"), "device": "G-2x2"}]))
        with pytest.raises(ManifestError, match="cannot load circuit file"):
            load_manifest(path)

    def test_service_parse_reads_no_circuit_file(self, tmp_path):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(circuit_to_qasm(ghz_circuit(6)))
        body = json.dumps([{"circuit": str(qasm), "device": "G-2x2"}])
        with pytest.raises(ManifestError, match="circuit files are read only by repro batch"):
            jobs_from_manifest_text(body)

    @pytest.mark.parametrize(
        "make",
        [lambda path: path.mkdir(), lambda path: path.write_bytes(b"\xff\xfe[]")],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_manifest_is_a_manifest_error(self, tmp_path, make):
        path = tmp_path / "m.json"
        make(path)
        with pytest.raises(ManifestError, match=r"^manifest .*m\.json: "):
            load_manifest(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("jobs:\n  - circuit: [\n", "invalid YAML manifest at line 3, column 1"),
            ("jobs:\n  - circuit: qft_4\n    devcie: G-2x2\n", "unknown manifest job keys"),
        ],
        ids=["malformed", "bad-job"],
    )
    def test_yaml_errors_name_the_file(self, tmp_path, text, message):
        pytest.importorskip("yaml")
        path = tmp_path / "m.yaml"
        path.write_text(text)
        with pytest.raises(ManifestError, match=r"^manifest .*m\.yaml: ") as raised:
            load_manifest(path)
        assert message in str(raised.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            load_manifest(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ReproError, match="invalid JSON"):
            load_manifest(path)


class TestTypedManifestErrors:
    """Every malformed-manifest path raises ManifestError (a ReproError).

    Service front-ends rely on exactly this type to map client mistakes
    onto structured 4xx responses, so the distinction is load-bearing.
    """

    def test_manifest_error_subclasses_repro_error(self):
        assert issubclass(ManifestError, ReproError)

    def test_malformed_json_text(self):
        with pytest.raises(ManifestError, match="invalid JSON"):
            jobs_from_manifest_text("{not json")

    def test_non_utf8_body(self):
        with pytest.raises(ManifestError, match="UTF-8"):
            jobs_from_manifest_text(b"\xff\xfe{}")

    def test_unknown_compiler_name(self):
        with pytest.raises(ManifestError, match="unknown compiler"):
            job_from_dict({"circuit": "qft_8", "device": "G-2x2", "compiler": "nope"})

    def test_bad_device_spec(self):
        with pytest.raises(ManifestError, match="invalid device spec"):
            job_from_dict({"circuit": "qft_8", "device": "Z-99"})

    def test_bad_capacity_in_device_spec(self):
        with pytest.raises(ManifestError, match="invalid device spec"):
            job_from_dict({"circuit": "qft_8", "device": "G-2x2", "capacity": -3})

    def test_unknown_job_keys(self):
        with pytest.raises(ManifestError, match="unknown manifest job keys"):
            job_from_dict({"circuit": "qft_8", "device": "G-2x2", "flavour": "spicy"})

    def test_wrong_document_shape(self):
        with pytest.raises(ManifestError, match="JSON object or a list"):
            jobs_from_manifest("just a string")

    def test_unknown_top_level_keys(self):
        job = {"circuit": "qft_8", "device": "G-2x2"}
        document = {"default": {"device": "G-2x2"}, "jobs": [job]}
        with pytest.raises(ManifestError, match="unknown manifest keys: default"):
            jobs_from_manifest(document)

    @pytest.mark.parametrize("body", ['{"jobs": 3}', '{"jobs": true}'])
    def test_jobs_must_be_a_list(self, body):
        with pytest.raises(ManifestError, match="'jobs' must be a list"):
            jobs_from_manifest_text(body)

    def test_job_index_is_reported(self):
        document = {
            "defaults": {"device": "G-2x2"},
            "jobs": [{"circuit": "qft_8"}, {"circuit": "qft_8", "compiler": "nope"}],
        }
        with pytest.raises(ManifestError, match="job #1"):
            jobs_from_manifest(document)

    def test_text_parsing_matches_document_parsing(self):
        document = {"jobs": [{"circuit": "qft_8", "device": "G-2x2"}]}
        from_text = jobs_from_manifest_text(json.dumps(document))
        from_document = jobs_from_manifest(document)
        assert [j.fingerprint() for j in from_text] == [
            j.fingerprint() for j in from_document
        ]

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            ({"lookahead_weight": "abc"}, "lookahead_weight must be a number"),
            ({"decay_delta": "x"}, "decay_delta must be a number"),
            ({"decay_delta": True}, "decay_delta must be a number"),
            ({"lookahead_depth": 2.5}, "lookahead_depth must be an int"),
            ({"stall_limit": False}, "stall_limit must be an int"),
            ({"weights": 3}, "weight_ratio"),
            ({"weight_ratio": "abc"}, "weight_ratio must be a number"),
            ({"backend": 3}, "unknown scheduler backend"),
            ({"backend": "incremental"}, "unknown scheduler backend"),
            ({"incremental": True}, "unknown S-SYNC config key"),
            ({"default_mapping": 3}, "default_mapping must be a str"),
            ({"mapping_reserve_per_trap": "x"}, "mapping_reserve_per_trap must be an int"),
            ({"mapping_lookahead_layers": -5}, "mapping_lookahead_layers must be at least 1"),
            ({"default_mapping": "bogus"}, "unknown initial mapping 'bogus'"),
            ({"decay_delta": -1}, "decay_delta must be at least 0"),
            ({"decay_reset_interval": 0}, "decay_reset_interval must be at least 1"),
        ],
    )
    def test_ill_typed_scheduler_config(self, config, message):
        document = {"jobs": [{"circuit": "qft_8", "device": "G-2x2", "config": config}]}
        with pytest.raises(ManifestError, match=message):
            jobs_from_manifest_text(json.dumps(document))

    @pytest.mark.parametrize(
        ("keys", "message"),
        [
            ({"mapping": "bogus"}, "unknown initial mapping 'bogus'"),
            ({"initial_mapping": 3}, "mapping must be a string"),
            ({"gate_implementation": "bogus"}, "unknown gate implementation 'bogus'"),
            ({"gate_implementation": 3}, "gate_implementation must be a string"),
            ({"config": 3}, "config must be an object"),
            ({"heating": 3}, "heating must be an object"),
            ({"circuit": 4}, "circuit must be a string"),
            ({"device": 3}, "device must be a string"),
            ({"circuit": "bogus_4"}, "invalid circuit 'bogus_4'"),
            ({"circuit": "qft_0"}, "invalid circuit 'qft_0'"),
            ({"capacity": [4, 4, 4, 4]}, "capacity must be an int"),
            ({"capacity": True}, "capacity must be an int"),
            ({"heating": {"k1": float("nan")}}, "NaN is not a finite number"),
        ],
    )
    def test_ill_typed_job_keys(self, keys, message):
        document = {"jobs": [{"circuit": "qft_8", "device": "G-2x2", **keys}]}
        with pytest.raises(ManifestError, match=message):
            jobs_from_manifest_text(json.dumps(document))

    def test_load_manifest_wraps_json_errors_with_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        with pytest.raises(ManifestError, match="broken.json"):
            load_manifest(path)
