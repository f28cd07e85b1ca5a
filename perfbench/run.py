"""Layered benchmark of the S-SYNC reproduction: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 35 --trace 0

Workloads (see ``metrics.py`` for every metric's definition):

``paper-sweep``  the scaled Figs. 8-10 table x 3 compilers x 4 gate
                 implementations (300 jobs, 75 compiles), cold then warm,
                 serially through ``run_batch``.
``service-mix``  ``repro serve`` in a child process, fed a seeded mix of
                 submissions, resubmits and re-fetches, open then closed loop;
                 its traced run also probes a ``repro serve --fleet 2`` (router
                 hop, shared cache tier).

With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
from a traced repetition (layers a workload does not run read 0).  Reports
with provenance (cpu_count, Python, platform, commit, seed, plan digest)
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

# Bytecode goes under the output location, so a run writes nowhere else.
BENCH_DIR = Path(__file__).resolve().parent
sys.pycache_prefix = str(BENCH_DIR / "out" / "pycache")
sys.path[1:1] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR.parent / "benchmarks")]

import harness  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.setup_probe:
        parser.error("--workload is required")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so a stopped run still shuts its service down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = harness.missing_program_files()
    if missing:
        harness.log(f"error: this checkout lacks the program files {', '.join(missing)}")
        return 2
    if args.setup_probe:
        import batch

        batch.build_inputs(batch.make_plan())
        return 0

    if args.workload == "paper-sweep":
        import batch as workload
    else:
        import service as workload
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    outcome["end_to_end"]["peak_rss_mb"] = harness.peak_rss_mb()
    if args.trace:
        values, table = outcome["layers"], PER_LAYER
    else:
        values, table = outcome["end_to_end"], END_TO_END
    metrics = {key: {"value": values[key], "unit": table[key][0]} for key in table}
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    report = {
        "provenance": harness.provenance(args.workload, args.seed, outcome["plan_digest"]),
        "result": result,
        # Not a metric: it reads 0 on a healthy run, and a bound relative to 0
        # is undefined; the result line carries failed and attempted instead.
        "failed_ratio": outcome["failed"] / outcome["attempted"],
        "end_to_end": outcome["end_to_end"],
        "details": outcome["report"],
    }
    if args.trace:
        report["per_layer"] = {
            key: {
                "value": values[key],
                "unit": PER_LAYER[key][0],
                "moves": PER_LAYER[key][2],
                "predicted_no_change": PER_LAYER[key][3],
            }
            for key in PER_LAYER
        }
    path = harness.write_report(name, report)
    for problem in outcome["report"].get("problems", [])[:20]:
        harness.log(f"problem: {problem}")
    for key, metric in metrics.items():
        print(f"{key:30s} {metric['value']:>16.6g} {metric['unit']:6s} {table[key][1]} is better")
    print(f"report: {path.relative_to(harness.ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
