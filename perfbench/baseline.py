"""Measure the benchmark's baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Two sets, one after the other, of one untraced run per seed 1..10 of every
workload in BENCHMARK.json; for each set and end-to-end metric the median,
quartiles and spread (quartile distance over median), and how far the second
set's median is from the first's, against the metric's bound; the same
statistics of the unscaled wall time, for comparison.  Then two
traced runs of seed 1 per workload, whose per-layer metrics are recorded and
compared count by count (the count-stability report).  The workloads' one-line
reasons and the metric names come from BENCHMARK.json; the file adds the
layer -> metric -> workload map (MOVES), so later changes can cite metric
names.  The file is written from scratch, so every number in it comes from
the commit its provenance names.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
RUNS = 10
SETS = 2
sys.path.insert(0, str(HERE))

from run import provenance  # noqa: E402

# metric -> the end-to-end metric it should move and the workloads where
# that shows.  "must not move" marks input properties and result counts.
MOVES = {
    "fields.ops": ("wall_s", ("enumerate", "suite", "analyze")),
    "fields.coerce.calls": ("wall_s", ("enumerate", "suite")),
    "linalg.reduce_vector.calls": ("wall_s", ("analyze",)),
    "linalg.reduce_vector.self_s": ("wall_s", ("analyze",)),
    "linalg.contains.calls": ("wall_s", ("analyze",)),
    "linalg.rref.calls": ("wall_s", ("suite",)),
    "linalg.rref.self_s": ("wall_s", ("suite",)),
    "linalg.subspace_check.self_s": ("wall_s", ("suite",)),
    "linalg.intersect.calls": ("wall_s", ("suite",)),
    "linalg.intersect.self_s": ("wall_s", ("suite",)),
    "linalg.char_poly.calls": ("wall_s", ("suite",)),
    "algebra.mul.calls": ("wall_s", ("enumerate", "suite")),
    "algebra.mul.self_s": ("wall_s", ("enumerate", "suite")),
    "algebra.mul.us_per_call": ("wall_s", ("enumerate", "suite")),
    "algebra.validate.calls": ("wall_s", ("enumerate",)),
    "algebra.validate.self_s": ("wall_s", ("enumerate",)),
    "algebra.tensors_from_maps.self_s": ("wall_s", ("enumerate",)),
    "algebra.closure.calls": ("wall_s", ("suite",)),
    "algebra.closure.self_s": ("wall_s", ("suite",)),
    "algebra.flag_tests.calls": ("wall_s", ("analyze",)),
    "series.calls": ("wall_s", ("suite",)),
    "series.self_s": ("wall_s", ("suite",)),
    "engel.calls": ("wall_s", ("suite",)),
    "engel.self_s": ("wall_s", ("suite",)),
    "lattice.subspaces_enumerated": ("wall_s", ("analyze",)),
    "lattice.maximal.self_s": ("wall_s", ("analyze",)),
    "lattice.minimal_ideals.self_s": ("wall_s", ("analyze",)),
    "lattice.subalgebras_found": ("must not move", ("analyze",)),
    "lattice.profile.calls": ("wall_s", ("suite",)),
    "lattice.profile.keys": ("wall_s", ("suite",)),
    "lattice.profile.misses": ("wall_s", ("suite",)),
    "lattice.profile.self_s": ("wall_s", ("suite",)),
    "lattice.discovery.calls": ("wall_s", ("suite",)),
    "lattice.discovery.keys": ("wall_s", ("suite",)),
    "lattice.discovery.useful_frac": ("wall_s", ("suite",)),
    "lattice.frattini.self_s": ("wall_s", ("suite", "analyze")),
    "lattice.radical.self_s": ("wall_s", ("suite", "analyze")),
    "theorems.run_suite.self_s": ("wall_s", ("suite",)),
    "theorems.cpu_per_wall": ("wall_s", ("suite",)),
    "theorems.results": ("must not move", ("suite",)),
    "theorems.not_applicable": ("must not move", ("suite",)),
    "theorems.vacuous": ("must not move", ("suite",)),
    "corpus.parse.calls": ("wall_s", ("suite",)),
    "corpus.parse.self_s": ("wall_s", ("suite",)),
    "corpus.serialize.self_s": ("wall_s", ("enumerate",)),
    "corpus.enumerate.self_s": ("wall_s", ("enumerate",)),
    "cli.self_s": ("wall_s", ("enumerate", "suite")),
    "trace.overhead_frac": ("none: cost of tracing itself", ("suite", "analyze", "enumerate")),
}


# Why counts differ between two traced runs of the same seed.
STABILITY_NOTES = {
    "suite": "One thread (--jobs 1) and deterministic inputs: every count repeats exactly. "
             "At --jobs 2 both threads can miss the lattice_profile lru_cache for the same "
             "tensor and compute the profile twice, so lattice.profile.misses and every count "
             "of work done inside a profile computation (subspaces enumerated, flag tests, "
             "products, reductions, field operations) differed by one profile's worth between "
             "two runs (3,220 vs 3,221 misses); entry-point calls and distinct keys did not.",
    "analyze": "One thread and deterministic inputs: every count repeats exactly.",
    "enumerate": "One thread and deterministic inputs: every count repeats exactly.",
}


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if trace == 0:
        result["unscaled_wall_s"] = float(next(
            line.split()[2] for line in lines if line.strip().startswith("unscaled wall")))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: outputs are not correct")
    print(f"{workload:10s} seed {seed:2d} trace {trace}: "
          + " ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def spread_of(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def layer_map(per_layer: list) -> dict:
    """MOVES grouped by layer, in BENCHMARK.json's order; the two must name
    the same metrics."""
    names = [m["name"] for m in per_layer]
    if set(names) != set(MOVES):
        raise SystemExit(f"MOVES and BENCHMARK.json per_layer differ: "
                         f"{sorted(set(names) ^ set(MOVES))}")
    out = {}
    for name in names:
        moves, on = MOVES[name]
        out.setdefault(name.split(".")[0], {})[name] = {"moves": moves, "on": list(on)}
    return out


def main() -> None:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    layers = layer_map(spec["per_layer"])
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sets = [{workload: [run_once(workload, seed, 0, seconds) for seed in range(1, RUNS + 1)]
             for workload in why} for _ in range(SETS)]
    workloads = {}
    for workload in why:
        per_set = [{name: spread_of([r["metrics"][name]["value"] for r in s[workload]])
                    for name in bounds} for s in sets]
        unscaled = [spread_of([r["unscaled_wall_s"] for r in s[workload]]) for s in sets]
        agreement = {name: {"change": per_set[-1][name]["median"] / per_set[0][name]["median"] - 1,
                            "bound": bound,
                            "spreads": [s[name]["spread"] for s in per_set]}
                     for name, bound in bounds.items()}
        first, second = (run_once(workload, 1, 1, seconds)["metrics"] for _ in range(2))
        if set(first) != set(MOVES):
            raise SystemExit(f"{workload}: traced metrics differ from BENCHMARK.json per_layer: "
                             f"{sorted(set(first) ^ set(MOVES))}")
        stability = {name: "exact" if first[name]["value"] == second[name]["value"]
                     else f"varies: {first[name]['value']} vs {second[name]['value']}"
                     for name, metric in first.items() if metric["unit"] == "count"}
        runs = [r for s in sets for r in s[workload]]
        workloads[workload] = {
            "why": why[workload],
            "end_to_end_sets": per_set,
            "unscaled_wall_s_sets": unscaled,
            "set_agreement": agreement,
            "attempted_per_run": runs[0]["attempted"],
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "per_layer": {name: m["value"] for name, m in first.items()},
            "count_stability": stability,
            "count_stability_note": STABILITY_NOTES[workload],
        }
        for name, a in agreement.items():
            print(f"{workload:10s} {name:12s} medians "
                  + " ".join(f"{s[name]['median']:.4g}" for s in per_set)
                  + f" change {a['change']:+.3f} spreads "
                  + " ".join(f"{x:.3f}" for x in a["spreads"]) + f" bound {a['bound']}",
                  flush=True)
        print(f"{workload:10s} unscaled wall_s spreads "
              + " ".join(f"{s['spread']:.3f}" for s in unscaled), flush=True)
    prov = {k: v for k, v in provenance(0, "").items() if k not in ("seed", "input_sha256")}
    prov["seeds"] = f"1..{RUNS}"
    BASELINE.write_text(json.dumps({"provenance": prov, "layer_map": layers,
                                    "workloads": workloads}, indent=1) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
