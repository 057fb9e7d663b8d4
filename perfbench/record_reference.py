"""Record perfbench/reference.json: the pinned inputs and reference outputs.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs are the reference (the reports are meant
to stay byte-identical, apart from elapsed_ms, across later changes).  It
records for each workload the digest of the generated inputs and a digest per
output item; for analyze also the brute-force oracle radical and nilradical
of every pool member, each member's cost (the median `palg analyze` time
over COST_REPEATS runs, scaled to the reference speed as in run.py), and the
cost-matched triples the seed draws from.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import sys
from pathlib import Path

from run import (ENUMERATE_COUNT, OUT, SUITE_SUMMARY, file_sha256, item_digest,
                 oracle_spaces, pin_cpu, provenance, read_result, short_digest,
                 spawn)

import inputs

# Triples whose summed cost is within this share of the median triple.
TRIPLE_BAND = 0.03
COST_REPEATS = 5


def analyze_pool() -> list:
    """Distinct-tensor direct sums of two or three curated GF(3) blocks with
    total dimension 5, not all zero (the zero algebra, where every subspace
    is a subalgebra, costs three times the rest)."""
    blocks = inputs.gf3_blocks()
    names = ("heisenberg", "solv2", "fe-plus-n", "idem-line", "zero-d1", "zero-d2")
    seen, pool = set(), []
    for size in (2, 3):
        for combo in itertools.combinations_with_replacement(names, size):
            if (sum(blocks[n].dim for n in combo) != 5
                    or all(n.startswith("zero") for n in combo)):
                continue
            member = "+".join(combo)
            alg = inputs.direct_sum_of(member, blocks)
            if (alg.dot_tensor, alg.bracket_tensor) not in seen:
                seen.add((alg.dot_tensor, alg.bracket_tensor))
                pool.append(member)
    return pool


def record_suite(work: Path) -> dict:
    commands = inputs.generate("suite", inputs.DEFAULT_SEED, work / "suite")
    report = work / "suite.json"
    cmd = [a.replace("{out}", str(report)) for a in commands[0]]
    proc = spawn([sys.executable, "-m", "palg.cli", *cmd])
    result = read_result(report)
    if proc.code != 0 or result["summary"] != SUITE_SUMMARY:
        raise SystemExit(f"suite reference run is wrong: exit {proc.code}, "
                         f"summary {result and result['summary']}")
    return {"input_sha256": inputs.digest_files(sorted((work / "suite").iterdir())),
            "payload_digest": item_digest(result),
            "summary": result["summary"],
            "items": [item_digest(r) for r in result["results"]]}


def record_analyze(work: Path) -> dict:
    from palg.corpus import serialize_document
    blocks = inputs.gf3_blocks()
    members = {}
    for member in analyze_pool():
        path = work / f"{member}.palg"
        path.write_text(serialize_document(inputs.direct_sum_of(member, blocks)),
                        encoding="utf-8")
        report = work / f"{member}.json"
        costs = []
        for _ in range(COST_REPEATS):
            proc = spawn([sys.executable, "-m", "palg.cli", "analyze", str(path),
                          "--format", "json", "--out", str(report)])
            if proc.code != 0:
                raise SystemExit(f"analyze {member} exited {proc.code}")
            costs.append(proc.scaled)
        result = read_result(report)
        rad, nil = oracle_spaces(path)
        if (result["radical"], result["nilradical"]) != (rad, nil):
            raise SystemExit(f"analyze {member}: radicals differ from the oracles")
        members[member] = {"input_sha256": file_sha256(path),
                           "report_digest": item_digest(result),
                           "oracle_radical": rad, "oracle_nilradical": nil,
                           "scaled_s": round(statistics.median(costs), 3)}
        print(f"analyze {member}: {statistics.median(costs):.2f} s", flush=True)
    anchor = "+".join(inputs.ANALYZE_ANCHOR)
    drawable = [m for m in members if m != anchor]
    sums = {t: sum(members[m]["scaled_s"] for m in t) for t in itertools.combinations(drawable, 3)}
    target = statistics.median(sums.values())
    triples = [list(t) for t, s in sums.items() if abs(s / target - 1) <= TRIPLE_BAND]
    return {"anchor": anchor, "members": members, "triple_band": TRIPLE_BAND,
            "triple_target_scaled_s": round(target, 3), "triples": triples}


def record_enumerate(work: Path) -> dict:
    outdir = work / "enum"
    report = work / "enum.json"
    proc = spawn([sys.executable, "-m", "palg.cli", "enumerate", *inputs.ENUMERATE_ARGS,
                  str(outdir), "--format", "json", "--out", str(report)])
    if proc.code != 0:
        raise SystemExit(f"enumerate exited {proc.code}")
    files = {p.name: short_digest(p.read_bytes())
             for p in sorted(outdir.iterdir()) if p.suffix == ".palg"}
    if len(files) != ENUMERATE_COUNT:
        raise SystemExit(f"enumerate wrote {len(files)} documents")
    return {"input_sha256": inputs.enumerate_input_digest(),
            "manifest_sha256": file_sha256(outdir / "manifest.json"),
            "files": files}


def main() -> None:
    pin_cpu()
    work = OUT / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = {"analyze": record_analyze(work), "suite": record_suite(work),
                     "enumerate": record_enumerate(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference["provenance"] = provenance(inputs.DEFAULT_SEED, "")
    inputs.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {inputs.REFERENCE} ({len(reference['analyze']['triples'])} analyze triples)")


if __name__ == "__main__":
    main()
