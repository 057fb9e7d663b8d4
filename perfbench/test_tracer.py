"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from palg import cli, corpus, lattice, theorems  # noqa: E402
from palg.corpus import curated_corpus, enumerate_poisson_structures  # noqa: E402
from run import item_digest  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every palg module and of the classes the tracer
    patches, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "palg" or name.startswith("palg."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def _outputs(tmp: Path) -> dict:
    """Digests of the JSON results of check (two threads), analyze and
    enumerate on small inputs."""
    algebras = (enumerate_poisson_structures(1, 2) + enumerate_poisson_structures(1, 3)
                + [a for a in curated_corpus() if a.dim <= 3][:12])
    members = []
    for pos, alg in enumerate(algebras):
        members.append(f"{pos}.palg")
        (tmp / members[-1]).write_text(corpus.serialize_document(alg), encoding="utf-8")
    (tmp / "manifest.json").write_text(corpus.serialize_manifest(members), encoding="utf-8")
    commands = {
        "check": ["check", str(tmp / "manifest.json"), "--jobs", "2"],
        "analyze": ["analyze", str(tmp / members[-1])],
        "enumerate": ["enumerate", "2", "2", str(tmp / "enum")],
    }
    out = {}
    for name, args in commands.items():
        report = tmp / f"{name}.json"
        assert cli.main([*args, "--format", "json", "--out", str(report)]) == 0
        result = json.loads(report.read_text(encoding="utf-8"))["result"]
        result.pop("manifest", None)  # a path under tmp
        out[name] = item_digest(result)
    out["enumerated"] = sorted(item_digest((p.name, p.read_text(encoding="utf-8")))
                               for p in (tmp / "enum").iterdir())
    return out


def test_outputs_unchanged_under_tracer(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = _outputs(tmp_path / "plain")
    tracer = Tracer().install()
    try:
        traced = _outputs(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    counts = tracer.counts()
    assert counts["threads"] >= 2  # the --jobs 2 worker threads were seen
    assert counts["theorems.check.calls"] > 0
    assert counts["corpus.enumerate.calls"] == 1


def _code_calls(run) -> dict:
    """Calls per code object while run() executes, from the profiler hook."""
    calls: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] = calls.get(frame.f_code, 0) + 1
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_counts_match_the_profiler_through_every_binding():
    """rref is imported into algebra and reached from lattice through both
    bindings; every wrapped function's count must equal the number of times
    its code ran."""
    alg = next(a for a in curated_corpus() if a.name == "solv2+fe-gf3")
    lattice.lattice_profile.cache_clear()
    tracer = Tracer().install()
    try:
        calls = _code_calls(lambda: (lattice.structure_report(alg),
                                     theorems.run_suite([alg], jobs=1)))
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    originals = {}
    for prefix, kind, targets in TARGETS:
        if kind == "items" or prefix == "lattice.profile":
            continue  # generator resumes and the lru_cache wrapper are not calls
        for target in targets:
            module_name, _, attr = target.partition(":")
            owner = sys.modules[f"palg.{module_name}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            originals.setdefault(prefix, []).append(owner.__code__)
    for prefix, codes in originals.items():
        key = prefix if f"{prefix}.calls" not in counts else f"{prefix}.calls"
        expected = sum(calls.get(code, 0) for code in codes)
        assert counts[key] == expected, prefix
    assert counts["linalg.rref.calls"] > 0
    assert counts["lattice.subspaces_enumerated"] > 0


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    during = _bindings()
    changed = {k for k in before if during.get(k) is not before[k]}
    assert ("palg.algebra", "rref") in changed  # the copy made by `from .linalg import rref`
    assert ("palg.algebra", "PoissonAlgebra", "_mul") in changed
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_twice_is_refused():
    tracer = Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
