"""Check-suite results and analyze reports against the digests the benchmark
records in perfbench/reference.json, computed in-process on the benchmark's
own inputs, so a change in any check output fails here as well as there."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
from run import item_digest  # noqa: E402

from palg.cli import _report_json  # noqa: E402
from palg.corpus import parse_document, serialize_document  # noqa: E402
from palg.lattice import LatticeBudget, structure_report  # noqa: E402
from palg.theorems import run_suite, summarise  # noqa: E402

REFERENCE = inputs.load_reference()


def _as_read(alg):
    """The algebra as palg reads it back from the file the benchmark writes."""
    return parse_document(serialize_document(alg))


def test_suite_results_match_the_reference():
    suite = REFERENCE["suite"]
    results = run_suite([_as_read(alg) for alg in inputs.suite_corpus()])
    assert [item_digest(r.to_json()) for r in results] == suite["items"]
    assert summarise(results) == suite["summary"]


@pytest.mark.parametrize("member", sorted(REFERENCE["analyze"]["members"]))
def test_analyze_report_matches_the_reference(member):
    alg = _as_read(inputs.direct_sum_of(member, inputs.gf3_blocks()))
    report = _report_json(structure_report(alg, LatticeBudget()))
    assert item_digest(report) == REFERENCE["analyze"]["members"][member]["report_digest"]
