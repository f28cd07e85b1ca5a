"""E13 (extension) — ablation of S-SYNC's design ingredients.

DESIGN.md calls out several design choices (lookahead, decay, the
mountain intra-trap ordering, the shuttle-vs-SWAP weight separation).
This harness quantifies each one's contribution on a serial
(Cuccaro adder) and a long-range (QFT) workload, writing the table to
``benchmarks/results/ablation.txt`` (without the wall-clock
``compile_time_s`` column, which is only printed).
"""

from __future__ import annotations

from bench_common import full_scale, save_table

from repro.analysis.ablation import ablation_summary, run_ablation
from repro.analysis.reporting import format_table
from repro.circuit.library import build_benchmark
from repro.hardware.presets import paper_device


def test_ablation_of_design_choices(benchmark) -> None:
    """Run every ablation variant and benchmark the full configuration."""
    device = paper_device("G-2x3")
    bench_names = ("adder_32", "qft_32") if full_scale() else ("adder_16", "qft_24")

    rows = []
    summaries = {}
    for name in bench_names:
        circuit = build_benchmark(name)
        records = run_ablation(circuit, device)
        rows.extend(record.as_dict() for record in records)
        summaries[name] = ablation_summary(records)

    columns = ["circuit", "variant", "shuttles", "swaps", "success_rate", "execution_time_us"]
    title = "Ablation — contribution of each design ingredient (G-2x3)"
    # compile_time_s is wall-clock time: printed, but kept out of the
    # tracked table so a test run leaves it unchanged.
    save_table("ablation", format_table(rows, columns=columns, title=title, float_format="{:.3e}"))
    text = format_table(
        rows, columns=columns + ["compile_time_s"], title=title, float_format="{:.3e}"
    )
    print("\n" + text)

    for name, summary in summaries.items():
        # Removing the lookahead should never reduce the shuttle count on
        # these workloads, and on the serial adder it should clearly hurt.
        assert summary["no-lookahead"] >= 1.0, (name, summary)
    adder_key = next(name for name in summaries if name.startswith("adder"))
    assert summaries[adder_key]["no-lookahead"] > 1.2

    # Collapsing the shuttle/SWAP weight separation removes the
    # co-optimization pressure: the scheduler then trades SWAP gates much
    # more freely, so the inserted SWAP count rises.
    by_key = {(row["circuit"], row["variant"]): row for row in rows}
    for name in bench_names:
        assert by_key[(name, "greedy-weights")]["swaps"] >= by_key[(name, "full")]["swaps"], name

    circuit = build_benchmark(bench_names[0])
    benchmark(lambda: run_ablation(circuit, device))
