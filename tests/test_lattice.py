import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from palg.algebra import (
    BOTH,
    BRACKET,
    DOT,
    PoissonAlgebra,
    direct_sum,
    is_ideal,
    is_subalgebra,
    subspace_square,
)
from palg.corpus import (
    curated_corpus,
    enumerate_poisson_structures,
    fe_plus_nilpotent_line,
    heisenberg_zero_dot,
    idempotent_line,
    lie_zero_dot,
    two_dim_nonabelian,
    zero_algebra,
)
from palg import lattice
from palg.fields import FieldError, FieldSpec
from palg.lattice import (
    BudgetExceededError,
    LatticeBudget,
    chief_factors,
    classify_max_ideal_property,
    count_subspaces,
    enumerate_lines,
    enumerate_subspaces,
    frattini,
    frattini_assoc,
    frattini_lie,
    gaussian_binomial,
    ideal_core,
    idempotents,
    lattice_profile,
    maximal_assoc_subalgebras,
    maximal_lie_subalgebras,
    maximal_subalgebras,
    minimal_ideals,
    nilradical,
    oracle_nilradical,
    oracle_radical,
    peirce,
    principal_idempotents,
    radical,
    socle,
    splits_over,
    structure_report,
    verify_nilradical,
    verify_radical,
    zero_socle,
    _maximal_positions,
    _metadata_radicals,
)
from palg.linalg import Matrix, Subspace, _subspace
from palg.theorems import run_suite

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
Q = FieldSpec.rationals()

# The 25 valid structures of dim 2 over GF(2) and the finite curated
# algebras of dim <= 3.
SMALL_FINITE = enumerate_poisson_structures(2, 2) + [
    a for a in curated_corpus() if a.field.is_finite and a.dim <= 3]


def span(alg, *vecs):
    return Subspace.from_vectors(alg.field, alg.dim, [alg.element(v) for v in vecs])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_subspace_counts_match_gaussian_binomials():
    assert count_subspaces(2, 2) == 5
    assert count_subspaces(3, 2) == 16
    assert count_subspaces(4, 3) == 212
    assert gaussian_binomial(4, 2, 3) == 130


@pytest.mark.parametrize("n,q,expected", [(2, 2, 5), (3, 2, 16), (4, 3, 212)])
def test_enumeration_is_exhaustive_and_canonical(n, q, expected):
    field = FieldSpec.prime(q)
    seen = list(enumerate_subspaces(field, n))
    assert len(seen) == expected
    assert len(set(seen)) == expected  # exactly once, canonical form dedupes


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF2, 5), (GF3, 3)])
def test_point_masks_are_the_lines_each_subspace_contains(field, n):
    lines = [line.rows()[0] for line in enumerate_lines(field, n)]
    q = field.order
    for s in enumerate_subspaces(field, n):
        assert s.mask == sum(1 << i for i, v in enumerate(lines) if s.contains_vector(v)), s
        assert s.mask.bit_count() == (q ** s.dim - 1) // (q - 1)
        # one object per subspace: a copy rebuilt from the rows is s
        # itself, mask included, and the mask stays out of repr
        copy = Subspace.from_vectors(field, n, s.rows())
        assert copy is s and copy.mask == s.mask and "mask" not in repr(s)


def test_enumeration_budget_refusal():
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(GF2, 6, LatticeBudget(max_dim=5)))
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(FieldSpec.prime(5), 2, LatticeBudget(max_q=3)))
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(GF2, 3, LatticeBudget(max_subspaces=10)))
    with pytest.raises(FieldError):
        list(enumerate_subspaces(Q, 2))


# ---------------------------------------------------------------------------
# maximal subalgebras and Frattini data
# ---------------------------------------------------------------------------


def test_idempotent_line_maximals():
    alg = idempotent_line(GF2)
    assert [m.dim for m in maximal_subalgebras(alg)] == [0]
    f_space, phi = frattini(alg)
    assert f_space.is_zero() and phi.is_zero()


def test_two_dim_nonabelian_maximals_are_all_lines():
    s = two_dim_nonabelian(GF2)
    maximals = maximal_subalgebras(s)
    assert sorted(m.dim for m in maximals) == [1, 1, 1]
    f_space, phi = frattini(s)
    assert f_space.is_zero() and phi.is_zero()


def test_heisenberg_maximals_contain_the_centre():
    h = heisenberg_zero_dot(GF2)
    maximals = maximal_subalgebras(h)
    assert len(maximals) == 3
    z_line = span(h, (0, 0, 1))
    for m in maximals:
        assert m.dim == 2 and m.contains(z_line)
    f_space, phi = frattini(h)
    assert f_space == z_line and phi == z_line
    assert phi == subspace_square(h, h.full_space())


def test_heisenberg_single_multiplication_frattini():
    h = heisenberg_zero_dot(GF2)
    fa, phi_a = frattini_assoc(h)
    assert fa.is_zero() and phi_a.is_zero()  # zero dot: every subspace closes
    fl, phi_l = frattini_lie(h)
    assert fl == span(h, (0, 0, 1)) and phi_l == fl


def _dim3_gf2_sample(k: int) -> list:
    """A seeded sample of k of the 1,408 valid structures of dim 3 over GF(2)."""
    return random.Random(42).sample(enumerate_poisson_structures(3, 2, cap=2 ** 27), k)


def _without(alg, t: int):
    """The algebra with product t (0 the dot, 1 the bracket) set to zero."""
    zero = (((alg.field.zero(),) * alg.dim,) * alg.dim,) * alg.dim
    dot, bracket = (zero, alg.bracket_tensor) if t == 0 else (alg.dot_tensor, zero)
    return PoissonAlgebra(alg.field, alg.dim, dot, bracket, name=alg.name)


def test_frattini_for_one_product_is_frattini_with_the_other_zero():
    # with the bracket zero every subspace is bracket-closed and every
    # dot-ideal is an ideal, so F and phi for the dot alone are F and phi
    algebras = ([a for a in curated_corpus() if a.field.is_finite]
                + [a for n, q in ((1, 2), (1, 3), (2, 2), (2, 3))
                   for a in enumerate_poisson_structures(n, q)]
                + _dim3_gf2_sample(60))
    mismatches = [alg.name for alg in algebras
                  if frattini_assoc(alg) != frattini(_without(alg, 1))
                  or frattini_lie(alg) != frattini(_without(alg, 0))]
    assert not mismatches


def test_ideal_core_is_the_largest_closed_subspace_inside():
    # brute force over the lattice: the subspaces closed under x -> x . e_i
    # and/or x -> [x, e_i], and for each w the largest of them inside w
    for alg in SMALL_FINITE + _dim3_gf2_sample(40):
        spaces = list(enumerate_subspaces(alg.field, alg.dim))
        basis = [alg.basis_element(i) for i in range(alg.dim)]
        for products in (BOTH, DOT, BRACKET):
            muls = [(alg.mul_dot, alg.mul_bracket)[t] for t in products]
            closed = [s for s in spaces if all(s.contains_vector(mul(x, b))
                                               for mul in muls for x in s.rows() for b in basis)]
            for w in spaces:
                inside = [s for s in closed if w.contains(s)]
                core = ideal_core(alg, w, products)
                assert core in inside, (alg.name, products, w)
                assert all(core.contains(s) for s in inside), (alg.name, products, w)


# ---------------------------------------------------------------------------
# minimal ideals, socles
# ---------------------------------------------------------------------------


def test_zero_algebra_minimal_ideals_are_all_lines():
    alg = zero_algebra(GF2, 2)
    mins = minimal_ideals(alg)
    assert len(mins) == 3 and all(m.dim == 1 for m in mins)
    assert socle(alg).is_full()
    assert zero_socle(alg).is_full()


def test_two_dim_nonabelian_unique_minimal_ideal():
    s = two_dim_nonabelian(GF3)
    mins = minimal_ideals(s)
    assert mins == [span(s, (1, 0))]
    assert socle(s) == span(s, (1, 0))
    assert zero_socle(s) == span(s, (1, 0))


def test_fe_plus_n_socle_split():
    fe = fe_plus_nilpotent_line(GF3)
    mins = minimal_ideals(fe)
    assert sorted(m.dim for m in mins) == [1, 1]
    assert socle(fe).is_full()
    assert zero_socle(fe) == span(fe, (0, 1))


def test_annihilator_of_an_ideal_is_a_verified_ideal():
    from palg.algebra import annihilator, is_ideal
    for alg in (heisenberg_zero_dot(GF2), fe_plus_nilpotent_line(GF3),
                two_dim_nonabelian(GF3)):
        for b in minimal_ideals(alg):
            assert is_ideal(alg, annihilator(alg, b))


# ---------------------------------------------------------------------------
# radical and nilradical with oracles
# ---------------------------------------------------------------------------


def test_radical_of_solvable_algebra_is_everything():
    for alg in (zero_algebra(GF2, 3), heisenberg_zero_dot(GF3), two_dim_nonabelian(GF2)):
        assert radical(alg).is_full()


def test_radical_of_idempotent_line_is_zero():
    assert radical(idempotent_line(GF3)).is_zero()


def test_radical_of_mixed_direct_sum_is_the_solvable_summand():
    total = direct_sum(idempotent_line(GF3), heisenberg_zero_dot(GF3))
    rad = radical(total)
    assert rad == span(total, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert rad == oracle_radical(total)


def test_nilradical_of_fe_plus_n():
    fe = fe_plus_nilpotent_line(GF3)
    assert nilradical(fe) == span(fe, (0, 1)) == oracle_nilradical(fe)


def test_oracle_agreement_over_exhaustive_dim2():
    for alg in enumerate_poisson_structures(2, 2):
        assert radical(alg) == oracle_radical(alg)
        assert nilradical(alg) == oracle_nilradical(alg)


def _analyze_sums():
    """The dim-5 GF(3) direct sums of curated blocks the analyze benchmark
    draws from, named as in perfbench/reference.json."""
    reference = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                            / "reference.json").read_text(encoding="utf-8"))
    blocks = {a.name[:-len("-gf3")]: a for a in curated_corpus() if a.name.endswith("-gf3")}
    sums = []
    for member in reference["analyze"]["members"]:
        parts = member.split("+")
        alg = blocks[parts[0]]
        for part in parts[1:]:
            alg = direct_sum(alg, blocks[part])
        sums.append(alg.with_name(member))
    return sums


ANALYZE_SUMS = _analyze_sums()


def test_analyze_sums_are_the_twelve_dim5_gf3_members():
    assert len(ANALYZE_SUMS) == 12
    assert all(a.dim == 5 and a.field == GF3 for a in ANALYZE_SUMS)


@pytest.mark.parametrize("alg", SMALL_FINITE + ANALYZE_SUMS, ids=lambda a: a.name)
def test_radical_matches_the_oracle(alg):
    # the sum over solvable line closures against every solvable ideal
    assert radical(alg) == oracle_radical(alg)


@pytest.mark.parametrize("alg", SMALL_FINITE + ANALYZE_SUMS, ids=lambda a: a.name)
def test_nilradical_matches_the_oracle(alg):
    # the sum over nilpotent line closures against every nilpotent ideal
    assert nilradical(alg) == oracle_nilradical(alg)


def _assert_keeps_the_lattice_budget(fn):
    # the line closures it reads are cached without a budget; the tight
    # budget must still raise, before and after they are warm
    alg = heisenberg_zero_dot(GF2)
    tight = LatticeBudget(max_subspaces=1)
    with pytest.raises(BudgetExceededError):
        fn(alg, tight)
    expected = fn(alg)
    minimal_ideals(alg, tight)  # needs no subspace enumeration
    with pytest.raises(BudgetExceededError):
        fn(alg, tight)
    assert fn(alg) == expected
    with pytest.raises(FieldError):
        fn(heisenberg_zero_dot(Q))
    with pytest.raises(FieldError):
        fn(zero_algebra(Q, 0))


def test_radical_keeps_the_lattice_budget():
    _assert_keeps_the_lattice_budget(radical)


def test_nilradical_keeps_the_lattice_budget():
    _assert_keeps_the_lattice_budget(nilradical)


def test_verification_forms_over_q():
    s = two_dim_nonabelian(Q)
    assert verify_radical(s, s.full_space())
    assert not verify_radical(s, span(s, (1, 0)))  # not maximal
    assert verify_nilradical(s, span(s, (1, 0)))
    assert not verify_nilradical(s, s.full_space())  # not nilpotent
    idem = idempotent_line(Q)
    assert verify_radical(idem, idem.zero_space())
    assert not verify_radical(idem, idem.full_space())


GF5 = FieldSpec.prime(5)


def _sl2_plus_line(field):
    """sl2 (+) F z with zero dot, in the basis b1 = h + z, b2 = e, b3 = f,
    b4 = h: its radical and nilradical are span(b1 - b4) = F z, and no
    basis vector lies in them."""
    return lie_zero_dot(field, 4, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 3): 1,
                                   (1, 3, 1): -2, (2, 3, 2): 2}, name=f"sl2+z-{field}")


def test_sl2_plus_line_radicals_by_discovery():
    alg = _sl2_plus_line(GF5)
    budget = LatticeBudget(max_q=5)
    z = span(alg, (1, 0, 0, -1))
    assert radical(alg, budget) == nilradical(alg, budget) == z


# The verify_* forms close the candidate plus a *basis* line, and the
# missing part of the radical here contains no basis vector, so they accept
# the zero subspace; metadata claiming radical = nilradical = 0 then passes
# as verified.  Strict: the complete test must make this pass, and then the
# marker goes.
@pytest.mark.xfail(strict=True, reason="verify_radical and verify_nilradical extend the "
                   "candidate by basis lines only")
@pytest.mark.parametrize("field", [Q, GF5], ids=str)
def test_verification_rejects_a_radical_missing_a_non_basis_direction(field):
    alg = _sl2_plus_line(field)
    zero = alg.zero_space()
    found, _ = _metadata_radicals(alg.with_meta({"radical": [], "nilradical": []}))
    assert zero not in found.values()
    assert not verify_radical(alg, zero)
    assert not verify_nilradical(alg, zero)


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


def test_everything_splits_over_zero():
    h = heisenberg_zero_dot(GF2)
    assert splits_over(h, h.zero_space()).is_full()


def test_two_dim_nonabelian_splits_over_its_minimal_ideal():
    s = two_dim_nonabelian(GF3)
    complement = splits_over(s, span(s, (1, 0)))
    assert complement is not None and complement.dim == 1
    assert is_subalgebra(s, complement)


def test_heisenberg_does_not_split_over_its_centre():
    h = heisenberg_zero_dot(GF2)
    assert splits_over(h, span(h, (0, 0, 1))) is None


# ---------------------------------------------------------------------------
# idempotents and Peirce
# ---------------------------------------------------------------------------


def test_zero_algebra_has_no_idempotents():
    assert idempotents(zero_algebra(GF3, 2)) == []


def test_idempotent_line_peirce():
    alg = idempotent_line(GF3)
    (e,) = idempotents(alg)
    assert e == (1,)
    e_part, rest = peirce(alg, e)
    assert e_part.is_full() and rest.is_zero()


def test_fe_plus_n_peirce():
    fe = fe_plus_nilpotent_line(GF3)
    assert idempotents(fe) == [(1, 0)]
    e_part, rest = peirce(fe, (1, 0))
    assert e_part == span(fe, (1, 0))
    assert rest == span(fe, (0, 1))
    assert principal_idempotents(fe) == [(1, 0)]


def test_idempotent_element_budget():
    with pytest.raises(BudgetExceededError):
        idempotents(zero_algebra(GF3, 4), LatticeBudget(max_elements=10))


def test_peirce_rejects_non_idempotents():
    fe = fe_plus_nilpotent_line(GF3)
    with pytest.raises(ValueError):
        peirce(fe, (0, 1))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_of_named_algebras():
    assert classify_max_ideal_property(heisenberg_zero_dot(GF2)).kind == "nilpotent"
    cls = classify_max_ideal_property(fe_plus_nilpotent_line(GF3))
    assert cls.kind == "Fe-plus-N" and cls.idempotent == (1, 0)
    cls = classify_max_ideal_property(two_dim_nonabelian(GF3))
    assert cls.kind == "fails"
    assert cls.non_ideal_maximal is not None
    assert not is_ideal(two_dim_nonabelian(GF3), cls.non_ideal_maximal)
    assert classify_max_ideal_property(idempotent_line(GF2)).kind == "Fe-plus-N"


# ---------------------------------------------------------------------------
# chief factors
# ---------------------------------------------------------------------------


def test_chief_factors_of_zero_algebra():
    factors = chief_factors(zero_algebra(GF2, 2))
    assert [f.factor.dim for f in factors] == [1, 1]


def test_chief_factors_of_heisenberg():
    h = heisenberg_zero_dot(GF2)
    factors = chief_factors(h)
    assert [f.factor.dim for f in factors] == [1, 1, 1]
    assert factors[0].upper == span(h, (0, 0, 1))
    for fac in factors:
        assert fac.upper.contains(fac.lower)


def test_chief_factor_of_idempotent_line_is_itself():
    factors = chief_factors(idempotent_line(GF2))
    assert len(factors) == 1 and factors[0].factor.dim == 1


# ---------------------------------------------------------------------------
# structure report
# ---------------------------------------------------------------------------


def test_structure_report_heisenberg():
    report = structure_report(heisenberg_zero_dot(GF2))
    assert report.classification == "nilpotent"
    assert not report.phi_free
    assert report.radical.is_full()
    assert report.frattini_ideal == report.frattini_subalgebra
    assert report.splitting is None
    assert report.markers == ()


def test_structure_report_classification_labels():
    assert structure_report(two_dim_nonabelian(GF3)).classification == "other"
    assert structure_report(fe_plus_nilpotent_line(GF3)).classification == "Fe-plus-N"


def test_structure_report_over_q_uses_markers_and_metadata():
    s = two_dim_nonabelian(Q).with_meta({
        "radical": [["1", "0"], ["0", "1"]],
        "nilradical": [["1", "0"]],
    })
    report = structure_report(s)
    assert report.radical.is_full()
    assert report.nilradical == span(s, (1, 0))
    assert report.frattini_ideal is None
    assert any("requires-finite-field" in m for m in report.markers)


def test_structure_report_rejects_wrong_metadata():
    s = two_dim_nonabelian(Q).with_meta({"radical": [["1", "0"]]})
    report = structure_report(s)
    assert report.radical is None
    assert "metadata-radical-rejected" in report.markers


def test_metadata_radicals_are_verified_once_per_tensor_and_metadata(monkeypatch):
    # every check over Q asks for them; each (algebra, series) pair is
    # verified once, and each call gets markers of its own to extend
    algebras = [a for a in curated_corpus() if not a.field.is_finite]
    verified = []
    verify = lattice._verify_largest
    monkeypatch.setattr(lattice, "_verify_largest",
                        lambda alg, candidate, series: verified.append(alg.name)
                        or verify(alg, candidate, series))
    plain = [structure_report(a) for a in algebras]
    run_suite(algebras)
    expected = [a.name for a in algebras if a.meta_value("radical") is not None] + [
        a.name for a in algebras if a.meta_value("nilradical") is not None]
    assert len(verified) == len(expected) == 22
    assert sorted(verified) == sorted(expected)
    assert [structure_report(a) for a in algebras] == plain
    _, markers = _metadata_radicals(algebras[0])
    markers.append("extended by a caller")
    assert "extended by a caller" not in _metadata_radicals(algebras[0])[1]
    # other metadata on the same tensors is verified afresh
    other = algebras[0].with_meta({"radical": [], "nilradical": []})
    assert other.meta != algebras[0].meta
    _metadata_radicals(other)
    assert len(verified) == 24


def test_equal_flag_tuples_share_one_maximal_scan(monkeypatch):
    alg = next(a for a in curated_corpus() if a.name == "zero-d4-gf3")
    expected = _quadratic_maximal(_unmasked(
        [s for s in lattice_profile(alg).subspaces if s.dim != alg.dim]))
    lattice_profile.cache_clear()
    scans = []
    scan = lattice._maximal_positions
    monkeypatch.setattr(lattice, "_maximal_positions",
                        lambda *args: scans.append(1) or scan(*args))
    structure_report(alg)
    assert len(scans) == 1
    answers = [maximal_subalgebras(alg), maximal_assoc_subalgebras(alg),
               maximal_lie_subalgebras(alg)]
    assert answers[0] == answers[1] == answers[2]
    assert _rows(answers[0]) == _rows(expected)
    # flags that differ get scans of their own
    heis = heisenberg_zero_dot(GF3)
    structure_report(heis)
    profile = lattice_profile(heis)
    distinct = {profile.subalgebra_flags, profile.assoc_flags, profile.lie_flags}
    assert len(scans) == 1 + len(distinct) > 2


# ---------------------------------------------------------------------------
# the discovery cache
# ---------------------------------------------------------------------------

# Every function that reads through the cache.
CACHED = (lattice_profile, maximal_subalgebras, maximal_assoc_subalgebras,
          maximal_lie_subalgebras, frattini, frattini_assoc, frattini_lie,
          minimal_ideals, socle, zero_socle, nilradical, radical)


def _misses():
    return lattice_profile.cache_info().misses


def _renamed(alg):
    """The same tensors under another name, other basis labels and a metadata
    radical (read only over the rationals, never by discovery)."""
    labels = tuple(f"v{i}" for i in range(alg.dim))
    return PoissonAlgebra(alg.field, alg.dim, alg.dot_tensor, alg.bracket_tensor,
                          alg.name + "-copy", labels, alg.meta).with_meta(
        {"radical": [], "note": "renamed"})


@pytest.mark.parametrize("alg", SMALL_FINITE, ids=lambda a: a.name)
def test_cache_agrees_cold_warm_and_renamed(alg):
    cold = []
    for fn in CACHED:
        lattice_profile.cache_clear()
        cold.append(fn(alg))
    lattice_profile.cache_clear()
    first = []
    for fn in CACHED:
        first.append(fn(alg))
        assert _misses() == 1  # one entry serves every function
    assert first == cold
    assert [fn(alg) for fn in CACHED] == cold
    copy = _renamed(alg)
    assert copy.labels() != alg.labels() and copy.meta != alg.meta
    assert [fn(copy) for fn in CACHED] == cold
    assert _misses() == 1


@pytest.mark.parametrize("alg", ANALYZE_SUMS, ids=lambda a: a.name)
def test_structure_report_fills_one_cache_entry(alg):
    # the radicals read the algebra's own line closures and visit no quotient
    structure_report(alg)
    assert lattice_profile.cache_info().currsize == 1


def test_cache_separates_fields_with_equal_integer_tensors():
    a2, a3 = zero_algebra(GF2, 2), zero_algebra(GF3, 2)
    assert (a2.dot_tensor, a2.bracket_tensor) == (a3.dot_tensor, a3.bracket_tensor)
    assert len(lattice_profile(a2).subspaces) == 5
    assert len(lattice_profile(a3).subspaces) == 6
    assert len(minimal_ideals(a2)) == 3 and len(minimal_ideals(a3)) == 4
    assert _misses() == 2


def test_cached_result_does_not_lift_a_smaller_budget():
    alg = heisenberg_zero_dot(GF2)
    expected = frattini(alg)
    tight = LatticeBudget(max_subspaces=1)
    for _ in range(2):  # a failure is not cached either
        with pytest.raises(BudgetExceededError):
            frattini(alg, tight)
        with pytest.raises(BudgetExceededError):
            lattice_profile(alg, tight)
    assert frattini(alg) == expected


@pytest.mark.parametrize("name", ["max_dim", "max_q", "max_subspaces", "max_elements"])
def test_budget_rejects_a_negative_limit(name):
    # a negative limit used to surface later as a budget overrun
    with pytest.raises(ValueError, match=name):
        LatticeBudget(**{name: -3})
    with pytest.raises(ValueError, match=name):
        LatticeBudget(**{name: 2.5})
    assert getattr(LatticeBudget(**{name: 0}), name) == 0


def test_mutating_a_returned_list_leaves_the_cache_intact():
    alg = heisenberg_zero_dot(GF3)
    for fn in (minimal_ideals, maximal_subalgebras, maximal_assoc_subalgebras,
               maximal_lie_subalgebras):
        first = fn(alg)
        expected = list(first)
        first.pop()
        first.append(alg.full_space())
        assert fn(alg) == expected


# ---------------------------------------------------------------------------
# the mask scan against the quadratic scan
# ---------------------------------------------------------------------------


def _quadratic_maximal(candidates):
    return [s for s in candidates
            if not any(o.dim > s.dim and o.contains(s) for o in candidates if o is not s)]


def _unmasked(candidates):
    # raw copies outside the subspace tables, without a mask, so containment
    # between them goes through the pivots and reduce_vector; being other
    # objects, they compare with the candidates by their rows
    return [_subspace(s.field, s.ambient_dim, s.rows(), s.pivots) for s in candidates]


def _rows(spaces) -> list:
    return [s.rows() for s in spaces]


def _assert_scan_agrees(candidates):
    found = _maximal_positions([s.mask for s in candidates], [s.dim for s in candidates],
                               range(len(candidates)))
    assert _rows(candidates[i] for i in found) == _rows(_quadratic_maximal(_unmasked(candidates)))


@pytest.mark.parametrize("alg", SMALL_FINITE, ids=lambda a: a.name)
def test_maximal_members_match_quadratic_scan_on_every_flag_set(alg):
    profile = lattice_profile(alg)
    assert profile.masks == tuple(s.mask for s in profile.subspaces)
    assert profile.dims == tuple(s.dim for s in profile.subspaces)
    for flags in ("subalgebra_flags", "assoc_flags", "lie_flags", "ideal_flags"):
        members = [s for s, f in zip(profile.subspaces, getattr(profile, flags)) if f]
        _assert_scan_agrees(members)
        _assert_scan_agrees([s for s in members if s.dim != alg.dim])
        _assert_scan_agrees([s for s in members if s.dim != 0])
    # the scan as maximal_* runs it, on the profile's masks and dims
    for maximal, flags in ((maximal_subalgebras, "subalgebra_flags"),
                           (maximal_assoc_subalgebras, "assoc_flags"),
                           (maximal_lie_subalgebras, "lie_flags")):
        proper = [s for s, f in zip(profile.subspaces, getattr(profile, flags))
                  if f and s.dim != alg.dim]
        assert _rows(maximal(alg)) == _rows(_quadratic_maximal(_unmasked(proper)))


SUBSPACES_GF2_4 = list(enumerate_subspaces(GF2, 4))
SUBSPACES_GF3_3 = list(enumerate_subspaces(GF3, 3))


@given(st.one_of(st.lists(st.sampled_from(SUBSPACES_GF2_4), unique=True),
                 st.lists(st.sampled_from(SUBSPACES_GF3_3), unique=True)))
def test_maximal_members_match_quadratic_scan_on_arbitrary_sets(candidates):
    # distinct subspaces in any order, not necessarily a lattice
    _assert_scan_agrees(candidates)


# ---------------------------------------------------------------------------
# trusted construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,n", [(GF2, n) for n in range(5)] + [(GF3, n) for n in range(4)])
def test_enumerated_subspaces_equal_their_checked_rebuild(field, n):
    for s in itertools.chain(enumerate_subspaces(field, n), enumerate_lines(field, n)):
        hash(s)  # the cached hash, computed before the comparison
        checked = Subspace(n, Matrix(field, s.dim, n, s.rows()))
        assert checked.pivots == s.pivots and type(s.pivots) is tuple
        assert checked == s and hash(checked) == hash(s) and repr(checked) == repr(s)
        assert checked.basis == s.basis and hash(checked.basis) == hash(s.basis)
        rebuilt = Subspace.from_vectors(field, n, s.rows())
        assert rebuilt == s and rebuilt.pivots == s.pivots
