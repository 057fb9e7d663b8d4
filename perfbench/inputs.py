"""Workload inputs for the palg benchmark.

Run as a script this is the benchmark's measured set-up step: a fresh
interpreter imports palg and writes one workload's inputs,

    python3 perfbench/inputs.py WORKLOAD SEED OUTDIR

and prints the palg command lines (JSON) that the workload runs on them.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 1
SUITE_EXHAUSTIVE = ((1, 2), (1, 3), (2, 2), (2, 3))
ENUMERATE_ARGS = ("2", "5")
ANALYZE_ANCHOR = ("heisenberg", "solv2")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def analyze_draw(reference: dict, seed: int) -> list:
    """The anchor plus the three members the seed draws.

    The seed picks one of the recorded triples of distinct dim-5 GF(3)
    direct sums whose seed-commit cost lies within a narrow band of the
    median triple (see record_reference.py), so every seed gives different
    tensors but about the same amount of work.
    """
    triples = reference["analyze"]["triples"]
    anchor = "+".join(ANALYZE_ANCHOR)
    return [anchor] + list(random.Random(seed).choice(triples))


def gf3_blocks() -> dict:
    from palg.corpus import curated_corpus
    return {a.name[:-len("-gf3")]: a for a in curated_corpus() if a.name.endswith("-gf3")}


def direct_sum_of(member: str, blocks: dict):
    from palg.algebra import direct_sum
    parts = member.split("+")
    alg = blocks[parts[0]]
    for part in parts[1:]:
        alg = direct_sum(alg, blocks[part])
    return alg.with_name(f"{member}-gf3")


def suite_corpus() -> list:
    """The acceptance corpus: every valid structure of dim 1-2 over GF(2)
    and GF(3), then the curated corpus."""
    from palg.corpus import curated_corpus, enumerate_poisson_structures
    corpus = []
    for n, q in SUITE_EXHAUSTIVE:
        corpus += enumerate_poisson_structures(n, q)
    return corpus + curated_corpus()


def generate(workload: str, seed: int, outdir: Path) -> list:
    """Write the workload's inputs under outdir; return its palg commands,
    each with a "{out}" placeholder for the report path."""
    from palg.corpus import serialize_document, serialize_manifest
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "suite":
        members = []
        for pos, alg in enumerate(suite_corpus()):
            members.append(f"{pos:03d}.palg")
            (outdir / members[-1]).write_text(serialize_document(alg), encoding="utf-8")
        manifest = outdir / "manifest.json"
        manifest.write_text(serialize_manifest(members), encoding="utf-8")
        # --jobs 1: at --jobs 2 the wall time also holds the wait for the
        # interpreter lock to change hands between the two CPUs, which on a
        # shared 2-vCPU host varied from 2% to 13% of the run between runs.
        return [["check", str(manifest), "--jobs", "1", "--format", "json", "--out", "{out}"]]
    if workload == "analyze":
        blocks = gf3_blocks()
        commands = []
        for member in analyze_draw(load_reference(), seed):
            path = outdir / f"{member}.palg"
            path.write_text(serialize_document(direct_sum_of(member, blocks)), encoding="utf-8")
            commands.append(["analyze", str(path), "--format", "json", "--out", "{out}"])
        return commands
    if workload == "enumerate":
        return [["enumerate", *ENUMERATE_ARGS, str(outdir / "enum-{rep}"),
                 "--format", "json", "--out", "{out}"]]
    raise ValueError(f"unknown workload {workload!r}")


def digest_files(paths) -> str:
    """sha256 over (name, content) of the files, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def enumerate_input_digest() -> str:
    """enumerate reads no files; its input is the argument list."""
    return hashlib.sha256(" ".join(ENUMERATE_ARGS).encode()).hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps(generate(workload, seed, out)))
