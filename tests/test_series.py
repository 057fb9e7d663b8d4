from collections import Counter

import pytest

from palg import series
from palg.algebra import PoissonAlgebra, is_ideal, subspace_square
from palg.corpus import (
    curated_corpus,
    enumerate_poisson_structures,
    fe_plus_nilpotent_line,
    heisenberg_zero_dot,
    idempotent_line,
    rotation3,
    two_dim_nonabelian,
    zero_algebra,
)
from palg.fields import FieldSpec
from palg.lattice import enumerate_subspaces, lattice_profile
from palg.linalg import Subspace, subspace_sum
from palg.series import (
    SERIES_KINDS,
    SeriesConsistencyError,
    SeriesReport,
    assoc_series,
    derived_length,
    derived_series,
    is_assoc_nilpotent,
    is_assoc_solvable,
    is_lie_nilpotent,
    is_lie_solvable,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    lie_series,
    lower_central_series,
    nilpotency_class,
    series_by_kind,
)

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
Q = FieldSpec.rationals()


def span(alg, *vecs):
    return Subspace.from_vectors(alg.field, alg.dim, [alg.element(v) for v in vecs])


# ---------------------------------------------------------------------------
# derived and lower central series
# ---------------------------------------------------------------------------


def test_zero_algebra_derived_series():
    alg = zero_algebra(Q, 3)
    report = derived_series(alg)
    assert [t.dim for t in report.terms] == [3, 0]
    assert report.terminates and report.step == 1
    assert derived_length(alg) == 1


def test_idempotent_line_is_not_solvable():
    alg = idempotent_line(Q)
    report = derived_series(alg)
    assert not report.terminates
    assert report.terms[-1].is_full() and report.terms[-2] == report.terms[-1]
    assert not is_solvable(alg)


def test_heisenberg_lower_central():
    h = heisenberg_zero_dot(GF2)
    report = lower_central_series(h)
    assert [t.dim for t in report.terms] == [3, 1, 0]
    assert report.terms[1] == span(h, (0, 0, 1))
    assert nilpotency_class(h) == 2


def test_idempotent_line_is_not_nilpotent():
    assert not is_nilpotent(idempotent_line(GF3))
    assert nilpotency_class(idempotent_line(GF3)) is None


def test_single_multiplication_series_of_idempotent_line():
    alg = idempotent_line(Q)
    assoc_derived, assoc_lower = assoc_series(alg)
    lie_derived, lie_lower = lie_series(alg)
    assert not assoc_lower.terminates
    assert not assoc_derived.terminates
    assert lie_derived.terminates and lie_derived.step == 1
    assert lie_lower.terminates
    assert not is_assoc_nilpotent(alg) and is_lie_nilpotent(alg)


def test_single_multiplication_series_of_heisenberg():
    h = heisenberg_zero_dot(Q)
    assoc_derived, assoc_lower = assoc_series(h)
    assert assoc_derived.terminates and assoc_derived.step == 1
    assert assoc_lower.terminates and assoc_lower.step == 1
    _, lie_lower = lie_series(h)
    assert [t.dim for t in lie_lower.terms] == [3, 1, 0]


def test_two_dim_nonabelian_lie_series():
    s = two_dim_nonabelian(Q)
    lie_derived, lie_lower = lie_series(s)
    assert [t.dim for t in lie_derived.terms] == [2, 1, 0]
    assert lie_derived.terms[1] == span(s, (1, 0))
    assert not lie_lower.terminates
    assert lie_lower.stabilised == span(s, (1, 0))
    assert is_solvable(s) and not is_nilpotent(s)


def test_zero_algebra_satisfies_all_six_predicates():
    alg = zero_algebra(GF2, 2)
    assert is_solvable(alg) and is_nilpotent(alg)
    assert is_assoc_solvable(alg) and is_assoc_nilpotent(alg)
    assert is_lie_solvable(alg) and is_lie_nilpotent(alg)


def test_series_terms_are_ideals():
    for alg in (heisenberg_zero_dot(GF3), two_dim_nonabelian(GF3),
                fe_plus_nilpotent_line(GF3)):
        for report in (derived_series(alg), lower_central_series(alg)):
            for term in report.terms:
                assert is_ideal(alg, term)


def test_series_length_is_bounded_by_dimension():
    for alg in (zero_algebra(Q, 4), heisenberg_zero_dot(Q), fe_plus_nilpotent_line(Q)):
        for report in (derived_series(alg), lower_central_series(alg)):
            assert len(report.terms) <= alg.dim + 2


def test_nilpotent_implies_solvable_implies_split_solvable():
    for alg in (zero_algebra(GF3, 3), heisenberg_zero_dot(GF3),
                two_dim_nonabelian(GF3), fe_plus_nilpotent_line(GF3)):
        if is_nilpotent(alg):
            assert is_solvable(alg)
        if is_solvable(alg):
            assert is_assoc_solvable(alg) and is_lie_solvable(alg)


def _broken_commutativity():
    # x.y = y, y.x = 0 is not commutative; the one-step recursion then
    # underestimates the genuine lower central term
    f = GF3
    z = f.zero()
    dot = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    dot[0][1][1] = f.one()
    return PoissonAlgebra(f, 2, tuple(tuple(tuple(l) for l in p) for p in dot),
                          zero_algebra(f, 2).bracket_tensor)


def test_lower_central_cross_check_fires_on_broken_commutativity():
    with pytest.raises(SeriesConsistencyError):
        lower_central_series(_broken_commutativity())


def test_a_series_inconsistency_is_not_cached():
    alg = _broken_commutativity()
    for _ in range(2):  # a cached verdict would silence the negative control
        with pytest.raises(SeriesConsistencyError):
            is_nilpotent(alg)


# ---------------------------------------------------------------------------
# every kind against its definition
# ---------------------------------------------------------------------------

# kind -> (the products one step forms, whether the last term is multiplied
# by the first term rather than by itself), written out from the definitions
DEFINITIONS = {
    "derived": (("dot", "bracket"), False),
    "lower-central": (("dot", "bracket"), True),
    "assoc-derived": (("dot",), False),
    "assoc-lower": (("dot",), True),
    "lie-derived": (("bracket",), False),
    "lie-lower": (("bracket",), True),
}


def _reference_product(alg, names, u, v):
    """The span of the named products of u's and v's basis rows, uncached."""
    mul = {"dot": alg.mul_dot, "bracket": alg.mul_bracket}
    return Subspace.span(alg.field, alg.dim,
                         [mul[name](a, b) for name in names for a in u.rows() for b in v.rows()])


def _reference_series(alg, kind, start):
    names, by_first = DEFINITIONS[kind]
    terms = [start]
    while not terms[-1].is_zero():
        partner = terms[0] if by_first else terms[-1]
        terms.append(_reference_product(alg, names, terms[-1], partner))
        if terms[-1] == terms[-2]:
            return SeriesReport(kind, tuple(terms), False, len(terms) - 2)
    return SeriesReport(kind, tuple(terms), True, len(terms) - 1)


FINITE_SERIES_CORPUS = [a for a in curated_corpus() if a.field.is_finite] + [
    a for q in (2, 3) for n in (1, 2) for a in enumerate_poisson_structures(n, q)]
RATIONAL_SERIES_CORPUS = [a for a in curated_corpus() if not a.field.is_finite]


@pytest.mark.parametrize("alg", FINITE_SERIES_CORPUS + RATIONAL_SERIES_CORPUS,
                         ids=lambda a: a.name)
def test_every_kind_matches_its_definition_from_every_start(alg):
    full = alg.full_space()
    if alg.field.is_finite:  # the whole algebra and every ideal
        spaces = list(enumerate_subspaces(alg.field, alg.dim))
        starts = [u for u in spaces if is_ideal(alg, u)]
    else:  # the whole algebra and every term of its series
        starts = list(dict.fromkeys(
            [full] + [t for kind in DEFINITIONS for t in _reference_series(alg, kind, full).terms]))
        spaces = starts
    assert full in starts and tuple(DEFINITIONS) == SERIES_KINDS
    for start in starts:
        for kind in SERIES_KINDS:
            assert series_by_kind(alg, kind, start) == _reference_series(alg, kind, start), kind
    for u in spaces:
        assert subspace_square(alg, u) == subspace_sum(
            _reference_product(alg, ("dot",), u, u), _reference_product(alg, ("bracket",), u, u))


# ---------------------------------------------------------------------------
# the per-tensor cache of the whole-algebra verdicts
# ---------------------------------------------------------------------------


def _count_computations(monkeypatch):
    """Count, by tensor, the series and flag searches behind the cached
    verdicts."""
    counts = Counter()
    for name in ("derived_series", "lower_central_series", "_supersolvable"):
        original = getattr(series, name)

        def counting(alg, *args, _name=name, _original=original):
            counts[(_name, alg.field, alg.dot_tensor, alg.bracket_tensor)] += 1
            return _original(alg, *args)

        monkeypatch.setattr(series, name, counting)
    return counts


def _verdicts(alg):
    return is_solvable(alg), is_nilpotent(alg), is_supersolvable(alg)


@pytest.mark.parametrize("alg", [heisenberg_zero_dot(GF3), two_dim_nonabelian(GF2),
                                 fe_plus_nilpotent_line(GF3), rotation3(Q)],
                         ids=lambda a: a.name)
def test_verdicts_are_cached_per_tensor_and_dropped_by_cache_clear(monkeypatch, alg):
    expected = _verdicts(alg)
    lattice_profile.cache_clear()
    counts = _count_computations(monkeypatch)
    assert _verdicts(alg) == expected
    cold = dict(counts)
    assert cold and set(cold.values()) == {1}
    copy = alg.with_name(alg.name + "-copy")
    assert _verdicts(alg) == _verdicts(copy) == expected
    assert counts == cold  # warm, and shared by a renamed copy
    lattice_profile.cache_clear()
    assert _verdicts(copy) == expected
    assert counts == {key: 2 for key in cold}


def test_verdicts_from_a_start_are_not_cached(monkeypatch):
    alg = heisenberg_zero_dot(GF3)
    counts = _count_computations(monkeypatch)
    for _ in range(2):
        assert is_nilpotent(alg, alg.full_space()) and is_solvable(alg, alg.full_space())
    assert set(counts.values()) == {2}


# ---------------------------------------------------------------------------
# supersolvability
# ---------------------------------------------------------------------------


def test_two_dim_nonabelian_has_a_flag():
    s = two_dim_nonabelian(Q)
    ok, flag = is_supersolvable(s)
    assert ok
    assert [w.dim for w in flag] == [1, 2]
    assert flag[0] == span(s, (1, 0))
    for w in flag:
        assert is_ideal(s, w)


def test_one_dimensional_algebras_are_supersolvable():
    ok, flag = is_supersolvable(idempotent_line(Q))
    assert ok and [w.dim for w in flag] == [1]


def test_nilpotent_algebras_are_supersolvable_with_ideal_flags():
    for field in (GF2, GF3, Q):
        h = heisenberg_zero_dot(field)
        ok, flag = is_supersolvable(h)
        assert ok
        assert [w.dim for w in flag] == [1, 2, 3]
        for w in flag:
            assert is_ideal(h, w)


def test_supersolvable_matches_enumeration_oracle():
    from palg.lattice import oracle_supersolvable
    from palg.corpus import enumerate_poisson_structures
    corpus = enumerate_poisson_structures(2, 2) + enumerate_poisson_structures(2, 3)
    for alg in corpus:
        assert is_supersolvable(alg)[0] == oracle_supersolvable(alg)


def test_rotation_block_has_no_flag_over_q():
    # the only eigenvalue of the rotation generator in Q is 0 with eigenspace
    # span(a), and span(a) is not an ideal, so no one-dimensional ideal exists
    rot = rotation3(Q)
    ok, flag = is_supersolvable(rot)
    assert not ok and flag == ()
