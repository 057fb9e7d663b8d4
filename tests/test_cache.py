"""The subspace products, closure witnesses and Engel-Lie spaces read
through the one per-tensor cache, against their uncached bodies."""

import gc
import itertools
from fractions import Fraction

import pytest

from palg import _cache
from palg.algebra import (
    BRACKET,
    DOT,
    PoissonAlgebra,
    _ideal_defect,
    _subalgebra_defect,
    _product_span,
    ideal_defect,
    subalgebra_defect,
    subspace_product_bracket,
    subspace_product_dot,
)
from palg.corpus import curated_corpus, enumerate_poisson_structures, xyz_algebra
from palg.engel import engel_lie_space
from palg.fields import FieldSpec
from palg.lattice import enumerate_subspaces, lattice_profile
from palg.linalg import (Matrix, Subspace, fitting_null, image, kernel, subspace_intersect,
                         subspace_sum)

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)

# The lattice tests' SMALL_FINITE (the 25 valid structures of dim 2 over
# GF(2) and the finite curated algebras of dim <= 3), plus the xyz
# constants, whose defect witnesses are not all None.
FINITE = enumerate_poisson_structures(2, 2) + [
    a for a in curated_corpus() if a.field.is_finite and a.dim <= 3] + [
    xyz_algebra(GF3, allow_invalid=True)]
RATIONAL = [a for a in curated_corpus() if a.name in ("idem+heis-q", "rot3-q")]


def _rational_subspaces(alg):
    """The coordinate subspaces, and the lines and planes through a few
    vectors that are not on the axes."""
    f, n = alg.field, alg.dim
    unit = [alg.basis_element(i) for i in range(n)]
    skew = [tuple(f.coerce(c) for c in (1, -1, Fraction(1, 2), 2)[:n]),
            tuple(f.coerce(1) for _ in range(n)),
            tuple(f.coerce(c) for c in (0, 3, 0, -1)[:n])]
    spaces = {Subspace.from_vectors(f, n, subset)
              for k in range(n + 1) for subset in itertools.combinations(unit, k)}
    spaces |= {Subspace.from_vectors(f, n, subset)
               for k in (1, 2) for subset in itertools.combinations(skew + unit[:1], k)}
    return sorted(spaces, key=repr)


def _subspaces(alg):
    if alg.field.is_finite:
        return list(enumerate_subspaces(alg.field, alg.dim))
    return _rational_subspaces(alg)


def _elements(alg):
    if alg.field.is_finite:
        return list(itertools.product(alg.field.elements(), repeat=alg.dim))
    return [tuple(s.rows()[0]) for s in _rational_subspaces(alg) if s.dim == 1]


def _renamed(alg):
    labels = tuple(f"v{i}" for i in range(alg.dim))
    return PoissonAlgebra(alg.field, alg.dim, alg.dot_tensor, alg.bracket_tensor,
                          alg.name + "-copy", labels, alg.meta).with_meta({"note": "renamed"})


@pytest.mark.parametrize("alg", FINITE + RATIONAL, ids=lambda a: a.name)
def test_memo_matches_the_uncached_bodies(alg):
    spaces = _subspaces(alg)
    for _ in range(2):  # cold, then warm
        for u, v in itertools.product(spaces, repeat=2):
            assert subspace_product_dot(alg, u, v) == _product_span(alg, DOT, u, v)
            assert subspace_product_bracket(alg, u, v) == _product_span(alg, BRACKET, u, v)
        for u in spaces:
            assert subalgebra_defect(alg, u) == _subalgebra_defect(alg, u)
            assert ideal_defect(alg, u) == _ideal_defect(alg, u)
        for a in _elements(alg):
            assert engel_lie_space(alg, a) == fitting_null(alg.q_operator(a))


@pytest.mark.parametrize("alg", FINITE + RATIONAL, ids=lambda a: a.name)
def test_equal_results_in_one_entry_are_one_object(alg):
    results = [f(alg, u, v) for u, v in itertools.product(_subspaces(alg), repeat=2)
               for f in (subspace_product_dot, subspace_product_bracket)]
    results += [engel_lie_space(alg, a) for a in _elements(alg)]
    first = {}
    for r in results:
        assert first.setdefault(r, r) is r
    assert len(first) < len(results)


def test_a_renamed_copy_shares_the_entry():
    alg = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    copy = _renamed(alg)
    u, v = alg.full_space(), Subspace.from_vectors(GF3, 3, [(1, 0, 0)])
    # rebuilt, so the arguments are equal to the first ones but not them
    u2, v2 = (Subspace.from_vectors(GF3, 3, s.rows()) for s in (u, v))
    before = [subspace_product_dot(alg, u, v), subspace_product_bracket(alg, u, v),
              engel_lie_space(alg, (1, 0, 0)), subalgebra_defect(alg, v), ideal_defect(alg, v)]
    misses = lattice_profile.cache_info().misses
    after = [subspace_product_dot(copy, u2, v2), subspace_product_bracket(copy, u2, v2),
             engel_lie_space(copy, [4, 3, 0]), subalgebra_defect(copy, v2), ideal_defect(copy, v2)]
    assert all(x is y for x, y in zip(before, after))
    assert ideal_defect(alg, v) is not None  # the line of x is no ideal
    assert lattice_profile.cache_info().misses == misses


def test_engel_lie_keys_elements_as_field_scalars():
    alg = next(a for a in curated_corpus() if a.name == "solv2-gf3")
    assert engel_lie_space(alg, (1, 0)) is engel_lie_space(alg, [4, -3])
    entry = _cache._structure(alg.field, alg.dot_tensor, alg.bracket_tensor)
    assert [k for k in entry if k[0] == "engel_lie"] == [("engel_lie", (1, 0))]
    assert engel_lie_space(alg, (1, 0)) != engel_lie_space(alg, (0, 1))


def test_nothing_is_stored_when_the_computation_raises():
    # a subspace of a larger ambient space reaches past the tensors
    alg = next(a for a in curated_corpus() if a.name == "solv2-gf2")
    wide = Subspace.from_vectors(GF2, 3, [(0, 0, 1)])
    entry = _cache._structure(alg.field, alg.dot_tensor, alg.bracket_tensor)
    calls = [lambda: subspace_product_dot(alg, wide, wide),
             lambda: subspace_product_bracket(alg, wide, wide),
             lambda: subalgebra_defect(alg, wide),
             lambda: ideal_defect(alg, wide),
             lambda: engel_lie_space(alg, (0, 0, 1))]
    for call in calls:
        for _ in range(2):  # raises again: no result was stored
            with pytest.raises(IndexError):
                call()
    assert entry == {}
    assert subspace_product_bracket(alg, alg.full_space(), alg.full_space()).dim == 1
    assert len(entry) == 1  # the product alone: equal subspaces are one object already


# -- the weak reference an algebra keeps to its entry, and Subspace hashes --


def _counted(result):
    calls = []

    def compute():
        calls.append(1)
        return result
    return calls, compute


def _stashed(alg):
    """The entry the algebra's weak reference points at, or None."""
    ref = vars(alg).get(_cache._STASH)
    return None if ref is None else ref()


def test_a_renamed_copy_reuses_the_stashed_entry_without_a_miss():
    alg = next(a for a in curated_corpus() if a.name == "idem+heis-q")
    calls, compute = _counted("result")
    assert _cache.memo(alg, ("probe",), compute) == "result"
    entry = _stashed(alg)
    assert entry is not None and entry[("probe",)] == "result"
    info = _cache.cache_info()
    for _ in range(3):  # through the stash: no lookup in the lru cache at all
        assert _cache.memo(alg, ("probe",), compute) == "result"
    assert _cache.cache_info() == info
    copy = _renamed(alg)
    assert _stashed(copy) is None
    assert _cache.memo(copy, ("probe",), compute) == "result"
    assert _stashed(copy) is entry
    after = _cache.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)
    assert calls == [1]


def test_after_cache_clear_the_next_lookup_misses_and_recomputes():
    alg = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    calls, compute = _counted(7)
    _cache.memo(alg, ("probe",), compute)
    _cache.cache_clear()
    assert _cache.cache_info().misses == 0
    assert _cache.memo(alg, ("probe",), compute) == 7
    assert _cache.cache_info().misses == 1
    assert calls == [1, 1]
    assert lattice_profile.cache_info().currsize == 1


def test_no_entry_survives_cache_clear_through_the_weak_reference():
    algebras = [a for a in curated_corpus() if a.dim <= 3]
    for alg in algebras:
        subspace_product_dot(alg, alg.full_space(), alg.full_space())
        assert _stashed(alg) is not None
    _cache.cache_clear()
    gc.collect()
    assert all(_stashed(alg) is None for alg in algebras)
    assert all(_cache._STASH in vars(alg) for alg in algebras)  # dead, not gone


def test_an_evicted_entry_is_not_reached_through_the_weak_reference():
    gf97 = FieldSpec.prime(97)
    first = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    _cache.memo(first, ("probe",), lambda: 1)
    # maxsize other tensors push the first entry out (memo reads no axioms)
    fillers = [PoissonAlgebra(gf97, 1, (((c,),),), (((b,),),))
               for c, b in itertools.product(range(97), range(3))]
    for alg in fillers[:_cache.cache_info().maxsize]:
        _cache.memo(alg, ("probe",), lambda: 0)
    assert _stashed(first) is None
    misses = _cache.cache_info().misses
    calls, compute = _counted(2)
    assert _cache.memo(first, ("probe",), compute) == 2
    assert _cache.cache_info().misses == misses + 1 and calls == [1]


def _subspaces_built_every_way(field, n):
    """Equal subspaces of F^n, each built by another constructor."""
    e = [tuple(field.one() if j == i else field.zero() for j in range(n)) for i in range(n)]
    first_two = e[:2]
    rows = [tuple(field.coerce(c) for c in v) for v in ((1, 1, 0), (1, 2, 0))]
    ways = [
        Subspace.from_vectors(field, n, first_two),
        Subspace.from_vectors(field, n, rows),
        Subspace.span(field, n, first_two),
        Subspace.span(field, n, rows),
        Subspace(n, Matrix(field, 2, n, tuple(first_two))),
        subspace_sum(Subspace.span(field, n, e[:1]), Subspace.span(field, n, e[1:2])),
        subspace_intersect(Subspace.full(field, n), Subspace.span(field, n, rows)),
        kernel(Matrix(field, 1, n, (e[2],))),
        image(Matrix(field, n, 2, tuple(tuple(v[i] for v in first_two) for i in range(n)))),
    ]
    enumerated = [s for s in enumerate_subspaces(field, n) if s == ways[0]]
    assert len(enumerated) == 1 and enumerated[0].mask is not None
    return ways + enumerated


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_subspace_hash_is_stable_and_equal_for_equal_subspaces(field):
    ways = _subspaces_built_every_way(field, 3)
    assert all(s == ways[0] for s in ways)
    hashes = {hash(s) for s in ways}
    assert len(hashes) == 1
    assert {hash(s) for s in ways} == hashes  # unchanged on the second call
    assert len(set(ways)) == 1 and {ways[0]: 1}[ways[-1]] == 1
    assert hash(Subspace.zero(field, 3)) != hash(ways[0])


def test_subspace_hash_over_q_ignores_int_or_fraction_entries():
    q = FieldSpec.rationals()
    from_ints = Subspace.span(q, 2, [(1, 2)])
    from_fractions = Subspace.from_vectors(q, 2, [(Fraction(1, 3), Fraction(2, 3))])
    assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
