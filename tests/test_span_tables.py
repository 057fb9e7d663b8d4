"""The point and span tables of an enumerated F^n.

Once F^n has been enumerated, ``Subspace.span`` looks its answer up under
the OR of its vectors' point bits and ``Subspace.contains_vector`` tests one
point bit against a mask.  The references are the elimination paths those
lookups stand in front of: ``rref`` followed by the table lookup of
``_canonical`` for a span, ``reduce_vector`` for membership.
"""

import itertools
import random
from fractions import Fraction

import pytest

from palg import lattice, linalg
from palg.corpus import curated_corpus, enumerate_poisson_structures
from palg.fields import FieldError, FieldSpec
from palg.lattice import DEFAULT_BUDGET, lattice_profile
from palg.linalg import Subspace, rref, vec_is_zero
from palg.theorems import run_suite

GF2, GF3, Q = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()


def ref_span(field, n, rows) -> Subspace:
    """The span as it was formed before the span table, unchecked matrix
    and all."""
    rows = tuple(rows)
    return linalg._canonical(field, n, rref(linalg._matrix(field, len(rows), n, rows)).entries)


def ref_contains_vector(s: Subspace, v) -> bool:
    return vec_is_zero(s.reduce_vector(v))


def _outcome(call):
    """What a call gives: ("value", result) or ("raises", exception type)."""
    try:
        return "value", call()
    except Exception as exc:  # the comparison is of the error itself
        return "raises", type(exc)


def _count_rref(monkeypatch) -> list:
    calls = [0]
    original = linalg.rref

    def counted(m):
        calls[0] += 1
        return original(m)
    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def _assert_tables_match_the_references(field, n, spaces, seed):
    vectors = list(itertools.product(range(field.order), repeat=n))
    for s in spaces:
        for v in vectors:
            assert s.contains_vector(v) == ref_contains_vector(s, v), (s, v)
            grown = s.rows() + (v,)
            assert Subspace.span(field, n, grown) is ref_span(field, n, grown), (s, v)
        assert Subspace.span(field, n, s.rows()) is s
    rng = random.Random(seed)
    for _ in range(300):
        rows = [rng.choice(vectors) for _ in range(rng.randrange(n + 3))]
        assert Subspace.span(field, n, rows) is ref_span(field, n, rows), rows


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)])
def test_span_and_membership_match_rref_and_reduce_vector(field, n, monkeypatch):
    lattice_profile.cache_clear()
    # built and spanned before the enumeration, and held across it
    early = [Subspace.span(field, n, [linalg.basis_vector(field, n, i)]) for i in range(n)]
    early.append(Subspace.span(field, n, [linalg.basis_vector(field, n, 0),
                                          linalg.basis_vector(field, n, n - 1)]))
    assert (field.modulus, n) not in linalg._STORES
    subspaces, masks, _ = lattice._enumeration(field, n, DEFAULT_BUDGET)
    spans = linalg._STORES[(field.modulus, n)]
    # the point table: every vector of F^n, its point's bit, the zero vector 0
    assert len(spans.points) == field.order ** n and spans.points[(0,) * n] == 0
    for i, v in enumerate(spans.lines):
        line = Subspace.span(field, n, [v])
        assert line.mask == 1 << i and line.rows() == (v,)
    assert all(spans[m] is s for m, s in zip(masks, subspaces))
    assert all(s.mask is not None for s in early)
    _assert_tables_match_the_references(field, n, subspaces + tuple(early), seed=n)

    # a repeated span is a lookup
    calls = _count_rref(monkeypatch)
    rows = subspaces[-2].rows()
    for _ in range(3):
        Subspace.span(field, n, rows)
    assert calls == [0]

    # held across cache_clear(): the tables go, the answers stay, and spans
    # eliminate again
    held = subspaces
    lattice_profile.cache_clear()
    assert (field.modulus, n) not in linalg._STORES
    assert all(s.mask is not None for s in held)
    _assert_tables_match_the_references(field, n, held, seed=n + 1)
    before = calls[0]
    Subspace.span(field, n, rows)
    assert calls[0] == before + 1
    again, _, _ = lattice._enumeration(field, n, DEFAULT_BUDGET)
    assert all(s is t for s, t in zip(again, held))


def test_a_repeated_span_on_heisenberg_runs_no_rref(monkeypatch):
    alg = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    profile = lattice_profile(alg)
    products = [[alg.mul_bracket(a, b) for a in s.rows() for b in s.rows()]
                for s in profile.subspaces]
    first = [Subspace.span(alg.field, alg.dim, p) for p in products]
    calls = _count_rref(monkeypatch)
    assert [Subspace.span(alg.field, alg.dim, p) for p in products] == first
    assert calls == [0]


def test_a_repeated_from_vectors_on_heisenberg_runs_no_rref(monkeypatch):
    alg = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    f, n = alg.field, alg.dim
    profile = lattice_profile(alg)
    rows = [[list(r) for r in s.rows()][::-1] for s in profile.subspaces]
    assert [Subspace.from_vectors(f, n, r) for r in rows] == list(profile.subspaces)
    calls = _count_rref(monkeypatch)
    assert [Subspace.from_vectors(f, n, r) for r in rows] == list(profile.subspaces)
    assert calls == [0]
    # its entries are still coerced and its shape checked first
    assert Subspace.from_vectors(f, n, [(4, -1, Fraction(1, 2))]) is Subspace.span(
        f, n, [(1, 2, 2)])
    with pytest.raises(ValueError, match="ragged"):
        Subspace.from_vectors(f, n, [(1, 0, 0), (0, 1)])
    with pytest.raises(ValueError, match="ragged"):
        Subspace.from_vectors(f, n, [(1, 0, 0, 0)])
    with pytest.raises(FieldError, match="floating"):
        Subspace.from_vectors(f, n, [(1.0, 0, 0)])


def test_the_suite_runs_less_than_half_the_eliminations(monkeypatch):
    # 33,426 rref calls in one run before the span table
    corpus = (enumerate_poisson_structures(1, 2) + enumerate_poisson_structures(1, 3)
              + enumerate_poisson_structures(2, 2) + enumerate_poisson_structures(2, 3)
              + curated_corpus())
    lattice_profile.cache_clear()
    calls = _count_rref(monkeypatch)
    run_suite(corpus)
    assert 0 < calls[0] < 33_426 // 2, calls


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)])
def test_a_kernel_over_an_enumerated_space_eliminates_only_its_matrix(field, n, monkeypatch):
    lattice._enumeration(field, n, DEFAULT_BUDGET)
    rng = random.Random(n)
    def row():
        return tuple(rng.randrange(field.order) for _ in range(n))
    matrices = [linalg.Matrix(field, k, n, tuple(row() for _ in range(k)))
                for k in range(n + 2) for _ in range(40)]
    def kernel_basis(m):
        vectors = linalg._null_vectors(m)
        return linalg.rref(linalg._matrix(field, len(vectors), n, tuple(vectors))).entries
    expected = [linalg._canonical(field, n, kernel_basis(m)) for m in matrices]
    assert [linalg.kernel(m) for m in matrices] == expected
    # once the span table holds each null-vector mask, only m is eliminated
    calls = _count_rref(monkeypatch)
    assert [linalg.kernel(m) for m in matrices] == expected
    assert calls == [len(matrices)]


def test_a_span_of_too_long_rows_does_not_take_a_stored_place():
    # rref reads n columns, so these rows leave a 4-wide basis in the weak
    # table of GF(3)^3, at the position of the line (1, 0, 0)
    lattice_profile.cache_clear()
    odd = Subspace.span(GF3, 3, [(1, 0, 0, 0)])
    subspaces, _, _ = lattice._enumeration(GF3, 3, DEFAULT_BUDGET)
    assert all(len(r) == 3 for s in subspaces for r in s.rows()) and odd.rows() == ((1, 0, 0, 0),)
    assert Subspace.span(GF3, 3, [(1, 0, 0)]).rows() == ((1, 0, 0),)


def test_vectors_outside_the_point_table_take_the_elimination_path():
    subspaces, _, _ = lattice._enumeration(GF3, 3, DEFAULT_BUDGET)
    plane = next(s for s in subspaces if s.dim == 2)
    # wrong lengths, an unreduced entry, a list: each gives what the
    # elimination gives, value or error
    for v in [(1, 0), (1, 0, 0, 0), (0, 0, 0, 1), (3, 0, 0), (4, 1, 0), [1, 0, 0], [0, 0, 1]]:
        assert _outcome(lambda: plane.contains_vector(v)) == _outcome(
            lambda: ref_contains_vector(plane, v)), v
        rows = plane.rows() + (v,)
        assert _outcome(lambda: Subspace.span(GF3, 3, rows)) == _outcome(
            lambda: ref_span(GF3, 3, rows)), v


def test_spans_and_membership_over_q_are_unchanged():
    rng = random.Random(7)
    scalars = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 5)]
    for _ in range(200):
        n = rng.randrange(1, 5)
        rows = [tuple(rng.choice(scalars) for _ in range(n)) for _ in range(rng.randrange(n + 2))]
        s = Subspace.span(Q, n, rows)
        assert s is ref_span(Q, n, rows) and s.mask is None
        v = tuple(rng.choice(scalars) for _ in range(n))
        assert s.contains_vector(v) == ref_contains_vector(s, v)
    assert (None, 2) not in linalg._STORES
    line = Subspace.span(Q, 2, [(Fraction(1), Fraction(2))])
    assert line.contains_vector((2, 4)) and not line.contains_vector((1, 0))


def test_containment_across_tables_still_raises():
    # masks of different tables may be equal, so a pair from two of them
    # must not reach the mask test
    spaces = {key: lattice._enumeration(field, n, DEFAULT_BUDGET)[0]
              for key, field, n in [("gf2^3", GF2, 3), ("gf3^3", GF3, 3), ("gf2^4", GF2, 4)]}
    lines = {key: next(s for s in found if s.dim == 1) for key, found in spaces.items()}
    assert lines["gf2^3"].mask == lines["gf3^3"].mask == 1
    with pytest.raises(ValueError, match="field mismatch"):
        lines["gf2^3"].contains(lines["gf3^3"])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        lines["gf2^4"].contains(lines["gf2^3"])
    assert lines["gf2^3"].contains(lines["gf2^3"])
