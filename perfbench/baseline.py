"""Repeat the benchmark over seeds and record medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the root of a source checkout. For every workload of
``BENCHMARK.json`` it makes ten untraced runs of ``run_seconds`` in each
of two seed sets (the second set is held out: its seeds are never used
by the first) and two traced runs, interleaving the workloads so that a
slow spell of the machine falls on all of them alike. Last come ten
``dense_grams`` runs with BLAS at its default of one thread per core,
which the benchmark otherwise pins to one thread. It writes, per
workload and metric, the median and the quartile spread
(``(q3 - q1) / median``, as ``statistics.quantiles(values, n=4)`` gives
them) of each set, the relative change of the held-out median, and the
medians of the traced per-layer metrics, with the ROADMAP cross-check
pooled over the traced runs. Existing keys of ``--out`` that this
script does not produce (such as the hand-written layer map) are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10
TRACED = 2
FIRST_SEED = 1
BLAS_WORKLOAD = "dense_grams"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(workload: str, seed: int, seconds: int, trace: int, env=None) -> dict:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    result["detail"]["run_wall_s"] = time.perf_counter() - started
    return result


def report(label: str, seed: int, result: dict) -> None:
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(label, seed, f"{result['detail']['run_wall_s']:.1f}s", json.dumps(values), flush=True)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    sets = {"first": range(FIRST_SEED, FIRST_SEED + RUNS),
            "held_out": range(FIRST_SEED + RUNS, FIRST_SEED + 2 * RUNS)}
    traced_seeds = range(FIRST_SEED + 2 * RUNS, FIRST_SEED + 2 * RUNS + TRACED)
    untraced = {w: {name: [] for name in sets} for w in names}
    traced = {w: [] for w in names}
    machine = None
    for name, seeds in sets.items():
        for seed in seeds:
            for workload in names:
                result = run_once(workload, seed, seconds, 0)
                machine = result["detail"]["machine"]
                untraced[workload][name].append(result)
                report(f"{workload} {name}", seed, result)
    for seed in traced_seeds:
        for workload in names:
            traced[workload].append(run_once(workload, seed, seconds, 1))
            report(f"{workload} traced", seed, traced[workload][-1])
    # The same seeds as the first set, so only the thread count differs.
    threads = str(os.cpu_count())
    env = dict(os.environ, **{var: threads for var in _BLAS_VARS})
    default_blas = []
    for seed in sets["first"]:
        default_blas.append(run_once(BLAS_WORKLOAD, seed, seconds, 0, env))
        report(f"{BLAS_WORKLOAD} default-blas", seed, default_blas[-1])

    out = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            out = json.load(handle)
    out.update(machine=machine, seconds=seconds, seeds={k: list(v) for k, v in sets.items()},
               traced_seeds=list(traced_seeds))
    for workload in names:
        entry = out.setdefault("workloads", {}).setdefault(workload, {})
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = {s: summary([r["metrics"][name]["value"] for r in runs])
                       for s, runs in untraced[workload].items()}
            first, held = per_set["first"]["median"], per_set["held_out"]["median"]
            end_to_end[name] = {"unit": metric["unit"], "bound": metric["bound"], **per_set,
                                "held_out_change": held / first - 1.0}
        runs = untraced[workload]["first"] + untraced[workload]["held_out"]
        detail = runs[0]["detail"]
        entry["end_to_end"] = end_to_end
        entry["mix"] = detail["mix"]
        entry["scenarios_per_round"] = detail["scenarios_per_round"]
        entry["tail_percentile"] = detail["tail_percentile"]
        entry["samples"] = summary([r["detail"]["samples"] for r in runs])["median"]
        entry["tail_samples_beyond_min"] = min(r["detail"]["tail_samples_beyond"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["report_digests"] = sorted({r["detail"]["report_digest"] for r in runs})
        entry["per_layer"] = {
            m["name"]: {"unit": m["unit"], "median": statistics.median(
                r["metrics"][m["name"]]["value"] for r in traced[workload])}
            for m in bench["per_layer"]}
        entry["roadmap_check"] = pooled_references(traced[workload])
        entry["run_wall_s_max"] = max(r["detail"]["run_wall_s"]
                                      for r in runs + traced[workload])
    entry = out["workloads"][BLAS_WORKLOAD]
    default_end_to_end = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        stats = summary([r["metrics"][name]["value"] for r in default_blas])
        pinned = entry["end_to_end"][name]["first"]["median"]
        default_end_to_end[name] = {**stats, "change_vs_pinned": stats["median"] / pinned - 1.0}
    entry["default_blas"] = {"blas_threads": default_blas[0]["detail"]["machine"]["blas_threads"],
                             "seeds": list(sets["first"]),
                             "failed": sum(r["failed"] for r in default_blas),
                             "end_to_end": default_end_to_end}
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


def pooled_references(traced_runs: list[dict]) -> list[dict]:
    """One row per ROADMAP case: the median over runs of each run's median."""
    rows: dict[str, list[dict]] = {}
    for result in traced_runs:
        for row in result["detail"]["references"]:
            rows.setdefault(row["case"], []).append(row)
    pooled = []
    for case, found in rows.items():
        medians = [row["median_ms"] for row in found]
        median = statistics.median(medians)
        spread = max(row["run_spread"] for row in found)
        if len(medians) > 1:
            spread = max(spread, (max(medians) - min(medians)) / median)
        low, high = found[0]["roadmap_ms"]
        pooled.append({"case": case, "calls": sum(row["calls"] for row in found),
                       "median_ms": median, "run_spread": spread, "roadmap_ms": [low, high],
                       "flagged": median < low * (1 - spread) or median > high * (1 + spread)})
    return pooled


if __name__ == "__main__":
    sys.exit(main())
