"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.circuit.library import ghz_circuit
from repro.circuit.qasm import circuit_to_qasm
from repro.cli import main


class TestCompileCommand:
    def test_compile_named_benchmark(self, capsys):
        exit_code = main(["compile", "qft_12", "--device", "G-2x2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "S-SYNC compilation summary" in captured.out
        assert "qft_12" in captured.out

    def test_compile_with_mapping_and_lookahead(self, capsys):
        exit_code = main(
            ["compile", "bv_16", "--device", "L-4", "--mapping", "even-divided", "--lookahead", "0"]
        )
        assert exit_code == 0
        assert "even-divided" in capsys.readouterr().out

    def test_compile_qasm_file(self, tmp_path, capsys):
        qasm_path = tmp_path / "ghz.qasm"
        qasm_path.write_text(circuit_to_qasm(ghz_circuit(10)))
        exit_code = main(["compile", str(qasm_path), "--device", "G-2x2"])
        assert exit_code == 0
        assert "ghz" in capsys.readouterr().out

    def test_compile_writes_schedule_json(self, tmp_path, capsys):
        output = tmp_path / "schedule.json"
        exit_code = main(["compile", "qft_10", "--device", "G-2x2", "--output", str(output)])
        assert exit_code == 0
        data = json.loads(output.read_text())
        assert data["circuit_name"] == "qft_10"
        assert data["summary"]["two_qubit_gates"] == 90

    def test_compile_capacity_override(self, capsys):
        exit_code = main(["compile", "qft_10", "--device", "G-3x3", "--capacity", "6"])
        assert exit_code == 0

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        exit_code = main(["compile", "grover_999", "--device", "G-2x2"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err

    def test_unknown_device_fails_cleanly(self, capsys):
        exit_code = main(["compile", "qft_10", "--device", "X-9"])
        assert exit_code == 1

    def test_existing_non_qasm_file_not_parsed_as_qasm(self, tmp_path, capsys):
        """An arbitrary existing file must not be fed to the QASM parser."""
        path = tmp_path / "notes.txt"
        path.write_text("definitely not qasm")
        exit_code = main(["compile", str(path), "--device", "G-2x2"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "benchmark name" in captured.err
        assert ".qasm" in captured.err

    def test_missing_qasm_file_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["compile", str(tmp_path / "absent.qasm"), "--device", "G-2x2"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "does not exist" in captured.err

    def test_compile_prints_pass_timings(self, capsys):
        assert main(["compile", "qft_10", "--device", "G-2x2"]) == 0
        out = capsys.readouterr().out
        assert "passes:" in out
        assert "initial-mapping=" in out and "routing=" in out and "verify=" in out

    def test_compile_with_baseline_compiler(self, capsys):
        exit_code = main(["compile", "bv_16", "--device", "L-4", "--compiler", "dai"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "DAI compilation summary" in captured.out
        assert "dai-default" in captured.out

    def test_compile_accepts_compiler_alias(self, capsys):
        exit_code = main(["compile", "qft_10", "--device", "G-2x2", "--compiler", "This Work"])
        assert exit_code == 0
        assert "S-SYNC compilation summary" in capsys.readouterr().out

    def test_mapping_flag_rejected_for_baselines(self, capsys):
        exit_code = main(
            ["compile", "qft_10", "--device", "G-2x2", "--compiler", "murali", "--mapping", "sta"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "brings its own initial mapping" in captured.err

    def test_unknown_compiler_fails_cleanly(self, capsys):
        exit_code = main(["compile", "qft_10", "--device", "G-2x2", "--compiler", "qiskit"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "unknown compiler" in captured.err

    def test_lookahead_flag_rejected_for_baselines(self, capsys):
        exit_code = main(
            ["compile", "qft_10", "--device", "G-2x2", "--compiler", "dai", "--lookahead", "8"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "takes no scheduler configuration" in captured.err


class TestCompilersCommand:
    def test_lists_registered_compilers_and_pipelines(self, capsys):
        exit_code = main(["compilers"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("s-sync", "murali", "dai"):
            assert name in captured.out
        assert "ssync, this work" in captured.out  # aliases column
        assert "initial-mapping -> routing -> metrics" in captured.out


class TestCompareCommand:
    def test_compare_lists_all_compilers(self, capsys):
        exit_code = main(["compare", "bv_16", "--device", "L-4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("murali", "dai", "s-sync"):
            assert name in captured.out

    def test_compare_respects_gate_implementation(self, capsys):
        exit_code = main(["compare", "bv_16", "--device", "L-4", "--gate-implementation", "am2"])
        assert exit_code == 0
        assert "AM2" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_evaluate_round_trip(self, tmp_path, capsys):
        output = tmp_path / "schedule.json"
        assert main(["compile", "qft_10", "--device", "G-2x2", "--output", str(output)]) == 0
        capsys.readouterr()
        exit_code = main(["evaluate", str(output), "--gate-implementation", "pm"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "schedule evaluation" in captured.out
        assert "pm" in captured.out

    def test_evaluate_missing_file_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["evaluate", str(tmp_path / "absent.json")])
        assert exit_code == 1

    def test_evaluate_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        exit_code = main(["evaluate", str(path)])
        assert exit_code == 1


class TestCompareOutput:
    def test_compare_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "records.csv"
        exit_code = main(["compare", "bv_16", "--device", "L-4", "--output", str(output)])
        assert exit_code == 0
        lines = output.read_text().strip().splitlines()
        assert lines[0].startswith("circuit,")
        assert len(lines) == 4  # header + 3 compilers


class TestBatchCommand:
    @staticmethod
    def _write_manifest(tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "defaults": {"device": "G-2x2", "capacity": 6},
                    "jobs": [{"circuit": "qft_10"}, {"circuit": "qft_10", "compiler": "murali"}],
                }
            )
        )
        return manifest

    def test_batch_runs_manifest_and_writes_results(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        output = tmp_path / "results.json"
        exit_code = main(["batch", str(manifest), "--output", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "batch results" in captured.out
        assert "compilations=2" in captured.out
        records = json.loads(output.read_text())
        assert [r["compiler"] for r in records] == ["s-sync", "murali"]

    def test_batch_warm_cache_skips_compilation(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        cache_dir = tmp_path / "cache"
        assert main(["batch", str(manifest), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["batch", str(manifest), "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert "compilations=0" in captured.out
        assert "cache_hits=2" in captured.out

    def test_batch_parallel_workers(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        exit_code = main(["batch", str(manifest), "--workers", "2"])
        assert exit_code == 0
        assert "workers=2" in capsys.readouterr().out

    def test_batch_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["batch", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err


class TestServiceClientCommands:
    """``repro submit`` / ``results`` / ``jobs`` against a live server."""

    @pytest.fixture()
    def service_url(self):
        import threading

        from repro.service import make_server

        server = make_server(workers=1, port=0, warm=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.url
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)

    def test_submit_wait_results_and_jobs_round_trip(
        self, service_url, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"jobs": [{"circuit": "qft_10", "device": "G-2x2"}]})
        )
        assert main(["submit", str(manifest), "--url", service_url, "--wait"]) == 0
        submitted = capsys.readouterr().out
        assert "resubmitted=False" in submitted and "status=done" in submitted
        job_id = submitted.split("job_id=", 1)[1].split()[0]

        output = tmp_path / "records.json"
        assert main(
            ["results", job_id, "--url", service_url, "--output", str(output)]
        ) == 0
        assert "qft_10" in capsys.readouterr().out
        assert json.loads(output.read_text())[0]["circuit"] == "qft_10"

        assert main(["jobs", "--url", service_url]) == 0
        listing = capsys.readouterr().out
        assert job_id in listing and "total=1" in listing

    def test_results_unknown_job_fails_cleanly(self, service_url, capsys):
        exit_code = main(["results", "0" * 16, "--url", service_url])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err

    def test_client_commands_fail_cleanly_without_a_service(self, capsys):
        exit_code = main(["jobs", "--url", "http://127.0.0.1:1", "--timeout", "2"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "cannot reach" in captured.err



class TestUnreadableFiles:
    """A path that names a directory or undecodable bytes is one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "{tmp}/d"],
            ["submit", "{tmp}/d", "--url", "http://127.0.0.1:9"],
            ["compile", "{tmp}/d.qasm"],
            ["compile", "qft_4", "--output", "{tmp}/d"],
            ["compile", "{tmp}/bad.qasm"],
            ["batch", "{tmp}/d.json"],
        ],
        ids=[
            "evaluate-directory",
            "submit-directory",
            "compile-directory-qasm",
            "compile-output-directory",
            "compile-non-utf8-qasm",
            "batch-directory-manifest",
        ],
    )
    def test_fails_with_one_error_line(self, tmp_path, capsys, argv):
        for name in ("d", "d.qasm", "d.json"):
            (tmp_path / name).mkdir()
        (tmp_path / "bad.qasm").write_bytes(b"\xff\xfe OPENQASM 2.0;")
        exit_code = main([arg.format(tmp=tmp_path) for arg in argv])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_gate_implementation_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "qft_10", "--gate-implementation", "laser"])
