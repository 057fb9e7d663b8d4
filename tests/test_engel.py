import itertools
import random
from fractions import Fraction

import pytest

from palg import _cache
from palg.algebra import is_subalgebra
from palg.corpus import (
    curated_corpus,
    enumerate_poisson_structures,
    fe_plus_nilpotent_line,
    heisenberg_zero_dot,
    idempotent_line,
    rotation3,
    two_dim_nonabelian,
    xyz_algebra,
    zero_algebra,
)
from palg.engel import (
    check_pa_bracket_identity,
    check_qa_derivation_power,
    engel,
    engel_assoc_space,
    engel_lie_space,
    _split_matrix,
    _split_polynomial,
    s_k_split,
    s_space,
)
from palg.fields import FieldSpec
from palg.linalg import (
    Subspace,
    char_poly,
    fitting_null,
    image,
    kernel,
    poly_eval_matrix,
    subspace_intersect,
    subspace_sum,
    vec_is_zero,
    vec_scale,
)

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def span(alg, *vecs):
    return Subspace.from_vectors(alg.field, alg.dim, [alg.element(v) for v in vecs])


def split_polynomial(alg, a) -> tuple:
    """f(t) = prod (t - lambda)^mult over the eigenvalues of Q_a in the field."""
    return _split_polynomial(alg.field, alg.q_operator(a))


def k_space(alg, a) -> Subspace:
    """Image of the split matrix of Q_a: the complementary Q_a-stable subspace."""
    return image(_split_matrix(alg, alg.q_operator(a)))


def fitting_split_holds(alg, a) -> bool:
    """fitting_null(P_a) and the image of P_a^n are complementary, likewise
    for Q_a; the decomposition used to force Engel subalgebras to be everything."""
    for op in (alg.p_operator(a), alg.q_operator(a)):
        null = fitting_null(op)
        one_ = image(op.pow(alg.dim))
        if null.dim + one_.dim != alg.dim:
            return False
        if not subspace_intersect(null, one_).is_zero():
            return False
        if subspace_sum(null, one_).dim != alg.dim:
            return False
    return True


# ---------------------------------------------------------------------------
# Engel pairs
# ---------------------------------------------------------------------------


def test_engel_of_zero_element_is_everything():
    h = heisenberg_zero_dot(Q)
    pair = engel(h, h.zero_element())
    assert pair.engel_assoc.is_full()
    assert pair.engel_lie.is_full()


def test_engel_of_idempotent():
    alg = idempotent_line(GF3)
    pair = engel(alg, alg.basis_element(0))
    assert pair.engel_assoc.is_zero()   # left multiplication is invertible
    assert pair.engel_lie.is_full()     # the bracket operator vanishes


def test_engel_lie_in_two_dim_nonabelian():
    s = two_dim_nonabelian(Q)
    pair = engel(s, s.element((0, 1)))
    assert pair.engel_lie == span(s, (0, 1))
    assert pair.engel_assoc.is_full()
    assert is_subalgebra(s, pair.engel_lie)


def test_engel_spaces_are_subalgebras_for_many_elements():
    fe = fe_plus_nilpotent_line(GF3)
    for coords in [(a, b) for a in range(3) for b in range(3)]:
        pair = engel(fe, fe.element(coords))
        assert is_subalgebra(fe, pair.engel_assoc)
        assert is_subalgebra(fe, pair.engel_lie)


def test_fitting_split_holds_on_corpus_members():
    for alg in (heisenberg_zero_dot(GF3), fe_plus_nilpotent_line(GF3),
                two_dim_nonabelian(Q), rotation3(Q)):
        for i in range(alg.dim):
            assert fitting_split_holds(alg, alg.basis_element(i))


# ---------------------------------------------------------------------------
# eigenvalue splits
# ---------------------------------------------------------------------------


def test_split_of_zero_element():
    h = heisenberg_zero_dot(Q)
    pair = s_k_split(h, h.zero_element())
    assert pair.s_part.is_full()
    assert pair.k_part.is_zero()


def test_full_rational_spectrum_gives_everything():
    s = two_dim_nonabelian(Q)
    pair = s_k_split(s, s.element((0, 1)))
    assert pair.s_part.is_full()
    assert pair.k_part.is_zero()


def test_rotation_block_splits_off_its_axis():
    rot = rotation3(Q)
    a = rot.basis_element(0)
    q = rot.q_operator(a)
    assert char_poly(q) == tuple(map(Q.coerce, (1, 0, 1, 0)))  # t^3 + t
    pair = s_k_split(rot, a)
    assert pair.s_part == fitting_null(q)
    assert pair.s_part == span(rot, (1, 0, 0))
    assert pair.k_part == image(q)
    assert pair.k_part == span(rot, (0, 1, 0), (0, 0, 1))


def test_split_polynomial_collects_multiplicities():
    rot = rotation3(Q)
    assert split_polynomial(rot, rot.basis_element(0)) == (Q.one(), Q.zero())  # f(t) = t
    h = heisenberg_zero_dot(Q)
    assert split_polynomial(h, h.element((1, 0, 0))) == \
        tuple(map(Q.coerce, (1, 0, 0, 0)))  # t^3: eigenvalue 0 with multiplicity 3


def test_split_over_gf5_with_spread_spectrum():
    # diag-like bracket action with eigenvalues 0, -1, -2 all in GF(5)
    from palg.corpus import lie_zero_dot
    alg = lie_zero_dot(GF5, 3, {(0, 1, 1): 4, (0, 2, 2): 3},
                       basis_labels=("a", "u", "v"))
    pair = s_k_split(alg, alg.basis_element(0))
    assert pair.s_part.is_full() and pair.k_part.is_zero()


# ---------------------------------------------------------------------------
# the GF(p) route and the per-point cache
# ---------------------------------------------------------------------------

FINITE_SOURCES = {
    "exhaustive-2-2": lambda: enumerate_poisson_structures(2, 2),
    "exhaustive-2-3": lambda: enumerate_poisson_structures(2, 3),
    "exhaustive-2-5": lambda: enumerate_poisson_structures(2, 5),
    "curated-finite": lambda: [a for a in curated_corpus() if a.field.is_finite],
    # the operator identity holds for any tensors, valid or not
    "negative-controls": lambda: [xyz_algebra(f, allow_invalid=True) for f in (GF3, GF5)],
}


def _char_poly_split(alg, a):
    """Kernel and image of f(Q_a), f from the characteristic polynomial: the
    route Q keeps, and the oracle for the GF(p) one."""
    m = poly_eval_matrix(split_polynomial(alg, a), alg.q_operator(a))
    return kernel(m), image(m)


def _uncached_spaces(alg, a):
    """The three per-point spaces of a from their definitions: the Fitting
    null spaces of P_a and Q_a, and the characteristic-polynomial split."""
    return (fitting_null(alg.p_operator(a)), fitting_null(alg.q_operator(a)),
            _char_poly_split(alg, a)[0])


@pytest.mark.parametrize("source", FINITE_SOURCES)
def test_gf_p_split_matches_the_characteristic_polynomial(source):
    algebras = FINITE_SOURCES[source]()
    assert algebras
    for alg in algebras:
        for a in itertools.product(alg.field.elements(), repeat=alg.dim):
            s, k = _char_poly_split(alg, a)
            assert (s_space(alg, a), k_space(alg, a)) == (s, k), (alg.name, a)


@pytest.mark.parametrize("alg", [a for a in curated_corpus() if a.field.is_finite],
                         ids=lambda a: a.name)
def test_split_pair_matches_the_characteristic_polynomial(alg):
    for a in itertools.product(alg.field.elements(), repeat=alg.dim):
        pair = s_k_split(alg, a)
        assert (pair.s_part, pair.k_part) == _char_poly_split(alg, a)


def _rational_elements(alg):
    f, n = alg.field, alg.dim
    unit = [alg.basis_element(i) for i in range(n)]
    skew = [tuple(f.coerce(c) for c in (1, -1, Fraction(1, 2), 2, 3)[:n]),
            tuple(f.coerce(c) for c in (0, 3, 0, -1, 1)[:n])]
    return [alg.zero_element()] + unit + skew


SCALING = ([a for a in curated_corpus() if a.dim <= 3]
           + [two_dim_nonabelian(GF5), fe_plus_nilpotent_line(GF5)]
           + [xyz_algebra(f, allow_invalid=True) for f in (GF3, Q)])


@pytest.mark.parametrize("alg", SCALING, ids=lambda a: a.name)
def test_spaces_of_a_multiple_are_those_of_the_element(alg):
    # P_{la} = l P_a and Q_{la} = l Q_a, so the spaces agree on a and every
    # nonzero multiple, invalid tensors included, and the cache serves every
    # multiple from one entry
    f = alg.field
    if f.is_finite:
        elements = list(itertools.product(f.elements(), repeat=alg.dim))
        multiples = list(f.elements())[1:]
    else:
        elements = _rational_elements(alg)
        multiples = [f.coerce(c) for c in (-1, 2, Fraction(-1, 3), Fraction(7, 2))]
    cached = (engel_assoc_space, engel_lie_space, s_space)
    for a in elements:
        spaces = _uncached_spaces(alg, a)
        assert tuple(space(alg, a) for space in cached) == spaces, a
        for lam in multiples:
            la = vec_scale(f, lam, a)
            assert _uncached_spaces(alg, la) == spaces, (a, lam)
            assert all(space(alg, la) is space(alg, a) for space in cached)


def test_per_point_keys_are_the_normalised_elements():
    alg = two_dim_nonabelian(GF5)
    entry = _cache._structure(alg.field, alg.dot_tensor, alg.bracket_tensor)
    for a in ((3, 1), (1, 2), (2, 4), (0, 3), (0, 0)):
        engel_assoc_space(alg, a)
        s_space(alg, a)
    for key in ("engel_assoc", "s_space"):
        assert sorted(k[1] for k in entry if k[0] == key) == [(0, 0), (0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------

CORPUS = [
    zero_algebra(GF2, 3),
    heisenberg_zero_dot(GF3),
    two_dim_nonabelian(GF5),
    fe_plus_nilpotent_line(GF3),
    fe_plus_nilpotent_line(Q),
    rotation3(Q),
]


def _random_element(alg, rng):
    if alg.field.is_finite:
        return tuple(alg.field.from_int(rng.randrange(alg.field.order))
                     for _ in range(alg.dim))
    return tuple(alg.field.coerce(rng.randint(-3, 3)) for _ in range(alg.dim))


@pytest.mark.parametrize("alg", CORPUS, ids=lambda a: a.name)
def test_bracket_power_identity_vanishes(alg):
    rng = random.Random(20240 + alg.dim)
    for _ in range(60):
        a, x, y = (_random_element(alg, rng) for _ in range(3))
        n = rng.randint(1, 4)
        assert vec_is_zero(check_pa_bracket_identity(alg, a, x, y, n))


@pytest.mark.parametrize("alg", CORPUS, ids=lambda a: a.name)
def test_derivation_power_identity_vanishes(alg):
    rng = random.Random(40813 + alg.dim)
    for _ in range(60):
        a, x, y = (_random_element(alg, rng) for _ in range(3))
        r = rng.randint(0, 4)
        assert vec_is_zero(check_qa_derivation_power(alg, a, x, y, r))


def test_identity_reduces_to_leibniz_at_order_one():
    fe = fe_plus_nilpotent_line(Q)
    x, y = fe.element((1, 2)), fe.element((0, 1))
    a = fe.element((1, 1))
    assert vec_is_zero(check_pa_bracket_identity(fe, a, x, y, 1))
    assert vec_is_zero(check_qa_derivation_power(fe, a, x, y, 1))
    assert vec_is_zero(check_qa_derivation_power(fe, a, x, y, 0))


def test_identities_fail_on_incompatible_tensors():
    bad = xyz_algebra(GF5, allow_invalid=True)
    x, y = bad.basis_element(0), bad.basis_element(1)
    assert not vec_is_zero(check_pa_bracket_identity(bad, x, y, x, 1))


def test_identity_argument_guards():
    h = heisenberg_zero_dot(Q)
    z = h.zero_element()
    with pytest.raises(ValueError):
        check_pa_bracket_identity(h, z, z, z, 0)
    with pytest.raises(ValueError):
        check_qa_derivation_power(h, z, z, z, -1)
