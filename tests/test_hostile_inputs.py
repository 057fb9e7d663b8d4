"""Hostile .palg documents: parsing answers or refuses quickly.

A malformed document is a ``CorpusFormatError`` naming its location, a
well-formed one that breaks an axiom an ``AxiomViolation``; nothing else
escapes ``parse_document``, and ``palg validate`` gives one row per path
whatever the other paths hold."""

import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from palg.algebra import AxiomViolation, PoissonAlgebra, direct_sum, validate
from palg.cli import main
from palg.corpus import (
    MAX_DIM,
    CorpusFormatError,
    curated_corpus,
    fe_plus_nilpotent_line,
    heisenberg_zero_dot,
    idempotent_line,
    parse_document,
    serialize_document,
    serialize_manifest,
    two_dim_nonabelian,
    zero_algebra,
)
from palg.fields import FieldSpec

ROOT = Path(__file__).resolve().parent.parent
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
Q = FieldSpec.rationals()
HUGE_PRIME = 2 ** 61 - 1


def _doc(field, c):
    return json.dumps({"schema_version": "1", "name": "bad", "field": field, "dim": 1,
                       "dot": [{"i": 0, "j": 0, "k": 0, "c": c}], "bracket": []})


def _run_palg(*argv):
    # a subprocess, so that a hang fails the test instead of stalling the run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "palg.cli", *argv], capture_output=True,
                          text=True, timeout=30, env=env)


# ---------------------------------------------------------------------------
# the regressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, c", [("Q", "1/0"), ({"p": 3}, "1/3"), ("Q", "٣")])
def test_a_bad_coefficient_is_a_row_not_an_abort(capsys, tmp_path, field, c):
    # the coefficient passed a looser pattern and then raised a FieldError
    # that ended the whole report, without a row for the good file
    good, bad = tmp_path / "good.palg", tmp_path / "bad.palg"
    good.write_text(serialize_document(heisenberg_zero_dot(GF2)), encoding="utf-8")
    bad.write_text(_doc(field, c), encoding="utf-8")
    code = main(["validate", str(good), str(bad)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert lines[0] == f"{good}: VALID"
    assert lines[1].startswith(f"{bad}: ERROR dot[0]: ")
    assert len(lines) == 2


@pytest.mark.parametrize("field, c, message", [
    ("Q", "1/0", "zero denominator"), ("Q", "٣", "not an integer literal"),
    ("Q", "0.5", "not an integer literal"), ("Q", "9" * 5000, "coefficient too long"),
    ({"p": 3}, "2/6", r"denominator vanishes in GF\(3\)"),
])
def test_every_malformed_coefficient_is_a_format_error_at_its_entry(field, c, message):
    with pytest.raises(CorpusFormatError, match=rf"^dot\[0\]: .*{message}"):
        parse_document(_doc(field, c))


def test_a_huge_modulus_is_refused_at_once(tmp_path):
    # trial division of 2^61 - 1 ran for minutes before the cap was checked
    path = tmp_path / "huge.palg"
    path.write_text(_doc({"p": HUGE_PRIME}, "1"), encoding="utf-8")
    done = _run_palg("validate", str(path))
    assert done.returncode == 2
    assert f"ERROR modulus {HUGE_PRIME} exceeds the cap 97" in done.stdout
    done = _run_palg("enumerate", "2", str(HUGE_PRIME), str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stderr == f"error: modulus {HUGE_PRIME} exceeds the cap 97\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 1000000, 10 ** 18])
def test_a_dimension_over_the_cap_is_refused_before_allocation(dim):
    doc = {"schema_version": "1", "field": "Q", "dim": dim}
    with pytest.raises(CorpusFormatError, match=f"dim {dim} exceeds the cap {MAX_DIM}"):
        parse_document(json.dumps(doc))


def test_the_dimension_cap_admits_the_corpora_in_use():
    # dimension 8 direct sums are in use; the cap itself still parses
    alg = direct_sum(direct_sum(heisenberg_zero_dot(Q), two_dim_nonabelian(Q)),
                     direct_sum(fe_plus_nilpotent_line(Q), idempotent_line(Q)))
    assert alg.dim == 8 <= MAX_DIM
    alg = direct_sum(alg, zero_algebra(Q, MAX_DIM - 8))
    assert alg.dim == MAX_DIM
    assert parse_document(serialize_document(alg)).dot_tensor == alg.dot_tensor


# ---------------------------------------------------------------------------
# mutated documents
# ---------------------------------------------------------------------------

_BASES = [json.loads(serialize_document(alg)) for alg in curated_corpus()
          if alg.name in ("heisenberg-gf2", "solv2-q", "fe-plus-n-gf3", "rot3-q")]
_KEYS = ("schema_version", "name", "field", "dim", "basis", "dot", "bracket", "metadata",
         "extra")
_META_KEYS = ("radical", "nilradical", "complement", "phi_free")
_COEFFS = ("0", "1", "-1", "+2", "1/0", "2/6", "1/3", "-3/5", "٣", "1/٣", "²", " 1", "1_0",
           "1/-3", "0.5", "1e3", "", "/", "9" * 5000)
_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=MAX_DIM + 2),
    st.sampled_from([HUGE_PRIME, 10 ** 12 + 39, 10 ** 30, -10 ** 30, 10 ** 6]),
    st.sampled_from(_COEFFS), st.sampled_from(["Q", "1", "2"]), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.sampled_from(_COEFFS[:4] + (0, 1, None)), max_size=3),
    st.lists(st.lists(st.sampled_from(["0", "1", "٣", 1]), max_size=4), max_size=3),
    st.dictionaries(st.sampled_from(["p", "i", "j", "k", "c"]),
                    st.integers(min_value=-1, max_value=100), max_size=4),
)
_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_KEYS), _HOSTILE),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS)),
    st.tuples(st.just("modulus"), st.sampled_from([HUGE_PRIME, 10 ** 12 + 39, 101, 97, 4, 1, 0,
                                                   -3, True, 2.0, "3", None])),
    st.tuples(st.just("entry"), st.sampled_from(("dot", "bracket")), st.just("c"),
              st.sampled_from(_COEFFS)),
    st.tuples(st.just("entry"), st.sampled_from(("dot", "bracket")),
              st.sampled_from(("i", "j", "k", "c")), _HOSTILE),
    st.tuples(st.just("drop-entry-key"), st.sampled_from(("dot", "bracket")),
              st.sampled_from(("i", "j", "k", "c"))),
    st.tuples(st.just("copy-entry"), st.sampled_from(("dot", "bracket"))),
    st.tuples(st.just("meta"), st.sampled_from(_META_KEYS), _HOSTILE),
    st.tuples(st.just("not-utf-8")),
), min_size=1, max_size=3)
# a key repeated at the end of the text, where json.loads keeps it: a JSON
# value, or an integer literal past the digits int() converts
_DUPLICATE = st.none() | st.tuples(st.sampled_from(_KEYS),
                                   st.sampled_from(["1" + "0" * 5000]) | _HOSTILE.map(json.dumps))


def _entry(doc, label):
    """The first entry of the list, made if the list is empty; None when
    an earlier mutation left no list of objects."""
    entries = doc.get(label)
    if not isinstance(entries, list):
        return None
    if not entries:
        entries.append({"i": 0, "j": 1, "k": 0, "c": "1"})
    return entries[0] if isinstance(entries[0], dict) else None


def _mutate(base, mutations, duplicate) -> bytes:
    """The bytes of the mutated document; "not-utf-8" puts bytes before it
    that no UTF-8 text holds."""
    doc = json.loads(json.dumps(base))
    for kind, *args in mutations:
        if kind == "set":
            doc[args[0]] = args[1]
        elif kind == "drop":
            doc.pop(args[0], None)
        elif kind == "modulus":
            doc["field"] = {"p": args[0]}
        elif kind == "entry" and _entry(doc, args[0]) is not None:
            _entry(doc, args[0])[args[1]] = args[2]
        elif kind == "drop-entry-key" and _entry(doc, args[0]) is not None:
            _entry(doc, args[0]).pop(args[1], None)
        elif kind == "copy-entry" and _entry(doc, args[0]) is not None:
            doc[args[0]].append(dict(_entry(doc, args[0])))
        elif kind == "meta":
            if not isinstance(doc.get("metadata"), dict):
                doc["metadata"] = {}
            doc["metadata"][args[0]] = args[1]
    text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if duplicate is not None:
        key, value = duplicate
        text = text.rstrip()[:-1] + f', "{key}": {value}}}\n'
    prefix = b"\xff\xfe" if ("not-utf-8",) in mutations else b""
    return prefix + text.encode("utf-8")


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(base=st.sampled_from(_BASES), mutations=_MUTATIONS, duplicate=_DUPLICATE)
def test_a_mutated_document_parses_or_is_refused(base, mutations, duplicate):
    text = _mutate(base, mutations, duplicate).decode("utf-8", "replace")
    try:
        alg = parse_document(text)
    except (CorpusFormatError, AxiomViolation):
        return
    assert isinstance(alg, PoissonAlgebra) and alg.dim <= MAX_DIM
    validate(alg.tensors())  # what parses has passed validation
    assert parse_document(serialize_document(alg)).dot_tensor == alg.dot_tensor


_STATUS_EXIT = {"valid": 0, "invalid": 1, "format-error": 2}


@pytest.fixture(scope="module")
def good_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("good") / "good.palg"
    path.write_text(serialize_document(heisenberg_zero_dot(GF3)), encoding="utf-8")
    return path


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(base=st.sampled_from(_BASES), mutations=_MUTATIONS, duplicate=_DUPLICATE)
def test_validate_gives_one_row_per_mutated_document(good_path, base, mutations, duplicate):
    mutant = good_path.parent / "mutant.palg"
    report = good_path.parent / "report.json"
    mutant.write_bytes(_mutate(base, mutations, duplicate))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["validate", str(mutant), str(good_path), "--format", "json",
                     "--out", str(report)])
    rows = json.loads(report.read_text(encoding="utf-8"))["result"]
    assert [r["path"] for r in rows] == [str(mutant), str(good_path)]
    assert rows[1]["status"] == "valid"
    assert code == _STATUS_EXIT[rows[0]["status"]] <= 2
    assert stderr.getvalue() == ""


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(base=st.sampled_from(_BASES), mutations=_MUTATIONS, duplicate=_DUPLICATE)
def test_analyze_and_check_answer_every_mutated_document(good_path, base, mutations, duplicate):
    # check runs every registered check; --budget-dim 4 keeps a mutant of
    # dimension 5 over GF(3) (2.3 s of checks) within the deadline
    folder = good_path.parent
    (folder / "mutant.palg").write_bytes(_mutate(base, mutations, duplicate))
    (folder / "manifest.json").write_text(serialize_manifest(["mutant.palg"]), encoding="utf-8")
    for argv in (["analyze", str(folder / "mutant.palg")],
                 ["check", str(folder / "manifest.json"), "--budget-dim", "4"]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(folder / "report.json")])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
