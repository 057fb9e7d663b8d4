import functools

import pytest
from hypothesis import given, settings, strategies as st

from palg.algebra import (
    AxiomViolation,
    DialgebraTensors,
    PoissonAlgebra,
    _preimage_condition,
    _right_multiplication,
    annihilator,
    centre,
    closure_ideal,
    closure_subalgebra,
    direct_sum,
    evaluate_axiom,
    find_axiom_violation,
    idealiser,
    is_homomorphism,
    is_ideal,
    is_subalgebra,
    is_subideal,
    kernel_of,
    lie_idealiser,
    quotient,
    quotient_maps,
    subalgebra_algebra,
    subspace_product_bracket,
    subspace_product_dot,
    tensors_from_maps,
    validate,
)
from palg.corpus import (
    curated_corpus,
    enumerate_poisson_structures,
    fe_plus_nilpotent_line,
    heisenberg_zero_dot,
    idempotent_line,
    two_dim_nonabelian,
    xyz_tensors,
    zero_algebra,
)
from palg.fields import FieldSpec
from palg.lattice import enumerate_subspaces, lattice_profile
from palg.linalg import Matrix, Subspace, basis_vector, subspace_intersect, vec_is_zero, vec_sub

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def span(alg, *vecs):
    return Subspace.from_vectors(alg.field, alg.dim, [alg.element(v) for v in vecs])


def vec_add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_all_zero_tensors_are_valid():
    for n in range(0, 4):
        alg = zero_algebra(Q, n)
        assert alg.dim == n


def test_one_dimensional_idempotent_is_valid():
    alg = idempotent_line(Q)
    e = alg.basis_element(0)
    assert alg.mul_dot(e, e) == e
    assert vec_is_zero(alg.mul_bracket(e, e))


def test_incompatible_bracket_is_a_leibniz_violation():
    from palg.algebra import PoissonAlgebra
    # x.x = y with [x, y] = y: the compatibility identity cannot hold
    t = tensors_from_maps(Q, 2, {(0, 0, 1): 1}, {(0, 1, 1): 1})
    with pytest.raises(AxiomViolation) as exc_info:
        validate(t)
    violation = exc_info.value
    assert violation.axiom == "leibniz"
    residual = evaluate_axiom(PoissonAlgebra(Q, 2, t.dot, t.bracket),
                              violation.axiom, violation.witness)
    assert residual == violation.residual and not vec_is_zero(residual)


@pytest.mark.parametrize("axiom,dot,bracket,dim", [
    ("commutativity", None, None, 2),   # built by hand below
    ("associativity", {(0, 1, 0): 1}, {}, 2),
    ("alternating", {}, None, 2),
    ("jacobi", {}, None, 3),
    ("leibniz", {(0, 0, 2): 1}, {(0, 1, 0): 1, (1, 2, 2): -2}, 3),
])
def test_each_axiom_has_a_rejected_fixture(axiom, dot, bracket, dim):
    from palg.algebra import DialgebraTensors, PoissonAlgebra, find_axiom_violation
    f = GF5
    if axiom == "commutativity":
        z = f.zero()
        dot_t = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        dot_t[0][1][0] = f.one()  # x.y = x but y.x = 0
        tensors = DialgebraTensors(f, dim,
                                   tuple(tuple(tuple(l) for l in p) for p in dot_t),
                                   zero_algebra(f, dim).bracket_tensor)
    elif axiom == "alternating":
        z = f.zero()
        br = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        br[0][0][1] = f.one()  # [x, x] = y
        tensors = DialgebraTensors(f, dim, zero_algebra(f, dim).dot_tensor,
                                   tuple(tuple(tuple(l) for l in p) for p in br))
    elif axiom == "jacobi":
        tensors = tensors_from_maps(f, dim, {}, {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 0): -1})
    else:
        tensors = tensors_from_maps(f, dim, dot, bracket)
    with pytest.raises(AxiomViolation) as exc_info:
        validate(tensors)
    violation = exc_info.value
    assert violation.axiom == axiom
    # the witness re-evaluates to the same nonzero residual
    alg = PoissonAlgebra(f, dim, tensors.dot, tensors.bracket)
    assert find_axiom_violation(alg).axiom == axiom
    residual = evaluate_axiom(alg, violation.axiom, violation.witness)
    assert residual == violation.residual
    assert not vec_is_zero(residual)


def _reference_axiom_violation(alg):
    """A plain nested-loop search, one loop per identity in validation's
    order; the table-driven find_axiom_violation must agree with it exactly."""
    f = alg.field
    n = alg.dim
    e = [alg.basis_element(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            res = vec_sub(f, alg.mul_dot(e[i], e[j]), alg.mul_dot(e[j], e[i]))
            if not vec_is_zero(res):
                return AxiomViolation("commutativity", (i, j), res)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.mul_dot(alg.mul_dot(e[i], e[j]), e[k])
                rhs = alg.mul_dot(e[i], alg.mul_dot(e[j], e[k]))
                res = vec_sub(f, lhs, rhs)
                if not vec_is_zero(res):
                    return AxiomViolation("associativity", (i, j, k), res)
    for i in range(n):
        res = alg.mul_bracket(e[i], e[i])
        if not vec_is_zero(res):
            return AxiomViolation("alternating", (i, i), res)
    for i in range(n):
        for j in range(i + 1, n):
            res = vec_add(f, alg.mul_bracket(e[i], e[j]), alg.mul_bracket(e[j], e[i]))
            if not vec_is_zero(res):
                return AxiomViolation("alternating", (i, j), res)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = alg.mul_bracket(alg.mul_bracket(e[i], e[j]), e[k])
                res = vec_add(f, res, alg.mul_bracket(alg.mul_bracket(e[j], e[k]), e[i]))
                res = vec_add(f, res, alg.mul_bracket(alg.mul_bracket(e[k], e[i]), e[j]))
                if not vec_is_zero(res):
                    return AxiomViolation("jacobi", (i, j, k), res)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.mul_bracket(alg.mul_dot(e[i], e[j]), e[k])
                rhs = vec_add(f, alg.mul_dot(alg.mul_bracket(e[i], e[k]), e[j]),
                              alg.mul_dot(e[i], alg.mul_bracket(e[j], e[k])))
                res = vec_sub(f, lhs, rhs)
                if not vec_is_zero(res):
                    return AxiomViolation("leibniz", (i, j, k), res)
    return None


@st.composite
def raw_tensors(draw):
    """Dense tensors written entry by entry, never symmetrised.  They are
    sparse so that later identities get reached; when ``mirror`` is drawn an
    entry also gets its (anti)symmetric partner, which lets the commutativity
    and alternating checks pass."""
    field = draw(st.sampled_from([GF2, GF3]))
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    entry = st.tuples(index, index, index, st.integers(1, field.order - 1))
    tensors = []
    for sign in (1, -1):
        t = [[[0] * n for _ in range(n)] for _ in range(n)]
        mirror = draw(st.booleans())
        for i, j, k, c in draw(st.lists(entry, max_size=4)):
            if mirror and sign == -1 and i == j:
                continue
            t[i][j][k] = c
            if mirror:
                t[j][i][k] = field.coerce(sign * c)
        tensors.append(tuple(tuple(tuple(line) for line in plane) for plane in t))
    return DialgebraTensors(field, n, tensors[0], tensors[1])


@settings(max_examples=300)
@given(raw_tensors())
def test_first_violation_matches_the_nested_loop_reference(tensors):
    alg = PoissonAlgebra(tensors.field, tensors.dim, tensors.dot, tensors.bracket)
    got, want = find_axiom_violation(alg), _reference_axiom_violation(alg)
    if want is None:
        assert got is None
        return
    assert (got.axiom, got.witness, got.residual) == (want.axiom, want.witness, want.residual)
    assert evaluate_axiom(alg, got.axiom, got.witness) == got.residual


def test_evaluate_axiom_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown axiom 'symmetry'"):
        evaluate_axiom(zero_algebra(GF2, 2), "symmetry", (0, 1))


def test_xyz_constants_violate_compatibility_everywhere():
    for field in (GF5, Q, GF3):
        with pytest.raises(AxiomViolation) as exc_info:
            validate(xyz_tensors(field))
        assert exc_info.value.axiom == "leibniz"
        assert exc_info.value.witness == (0, 1, 0)


# ---------------------------------------------------------------------------
# products and operators
# ---------------------------------------------------------------------------


def test_bracket_is_alternating_on_elements():
    h = heisenberg_zero_dot(GF3)
    for coords in [(1, 2, 0), (2, 2, 2), (0, 1, 1)]:
        v = h.element(coords)
        assert vec_is_zero(h.mul_bracket(v, v))


def test_heisenberg_products():
    h = heisenberg_zero_dot(Q)
    x, y, z = (h.basis_element(i) for i in range(3))
    assert h.mul_bracket(x, y) == z
    assert vec_is_zero(h.mul_dot(x, y))


def test_p_operator_of_idempotent_line_is_identity():
    alg = idempotent_line(GF3)
    assert alg.p_operator(alg.basis_element(0)) == Matrix.identity(GF3, 1)


def test_q_operator_annihilates_its_element():
    h = heisenberg_zero_dot(GF3)
    for coords in [(1, 0, 2), (1, 1, 1), (0, 2, 1)]:
        v = h.element(coords)
        assert vec_is_zero(h.q_operator(v).mat_vec(v))


def test_q_operator_is_a_dot_derivation():
    fe = fe_plus_nilpotent_line(GF3)
    f = fe.field
    for a_c in [(1, 0), (0, 1), (1, 2)]:
        a = fe.element(a_c)
        q = fe.q_operator(a)
        for x_c in [(1, 1), (2, 0)]:
            for y_c in [(0, 1), (1, 2)]:
                x, y = fe.element(x_c), fe.element(y_c)
                lhs = q.mat_vec(fe.mul_dot(x, y))
                rhs = tuple(f.add(u, v) for u, v in
                            zip(fe.mul_dot(q.mat_vec(x), y), fe.mul_dot(x, q.mat_vec(y))))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# subspace products and closures
# ---------------------------------------------------------------------------


def test_product_with_zero_subspace_is_zero():
    h = heisenberg_zero_dot(GF2)
    zero = h.zero_space()
    assert subspace_product_dot(h, h.full_space(), zero).is_zero()
    assert subspace_product_bracket(h, zero, h.full_space()).is_zero()


def test_idempotent_dot_square_is_everything():
    alg = idempotent_line(Q)
    assert subspace_product_dot(alg, alg.full_space(), alg.full_space()).is_full()


def test_heisenberg_bracket_of_axis_lines():
    h = heisenberg_zero_dot(Q)
    out = subspace_product_bracket(h, span(h, (1, 0, 0)), span(h, (0, 1, 0)))
    assert out == span(h, (0, 0, 1))


def test_closure_of_central_line_is_itself():
    h = heisenberg_zero_dot(GF3)
    closed = closure_ideal(h, span(h, (0, 0, 1)))
    assert closed == span(h, (0, 0, 1))
    assert is_ideal(h, closed)


def test_closure_of_x_line_adds_centre():
    h = heisenberg_zero_dot(GF3)
    assert closure_ideal(h, span(h, (1, 0, 0))) == span(h, (1, 0, 0), (0, 0, 1))


def test_closure_of_zero_is_zero():
    h = heisenberg_zero_dot(GF3)
    assert closure_subalgebra(h, h.zero_space()).is_zero()


def test_ideal_closure_is_least(gf2):
    # against enumeration: the closure is contained in every ideal containing the seed
    from palg.lattice import lattice_profile
    h = heisenberg_zero_dot(gf2)
    profile = lattice_profile(h)
    for seed in [span(h, (1, 0, 0)), span(h, (0, 1, 0), (0, 0, 1))]:
        closed = closure_ideal(h, seed)
        assert is_ideal(h, closed) and closed.contains(seed)
        for ideal in profile.ideals():
            if ideal.contains(seed):
                assert ideal.contains(closed)


def _closure_corpus():
    return enumerate_poisson_structures(2, 2) + [
        a for a in curated_corpus() if a.dim <= 3 and a.field.is_finite and a.field.order <= 3]


@pytest.mark.parametrize("alg", _closure_corpus(), ids=lambda a: a.name)
def test_closures_are_the_lattice_meets(alg):
    # every subspace as a seed: the closures equal the meet of the enumerated
    # subalgebras (ideals) containing it, and the profile's subalgebra flag
    # agrees with the direct test
    profile = lattice_profile(alg)
    subalgebras, ideals = profile.subalgebras(), profile.ideals()
    for seed, flag in zip(profile.subspaces, profile.subalgebra_flags):
        assert flag == is_subalgebra(alg, seed)
        meet = functools.reduce(subspace_intersect, [s for s in subalgebras if s.contains(seed)])
        assert closure_subalgebra(alg, seed) == meet
        meet = functools.reduce(subspace_intersect, [s for s in ideals if s.contains(seed)])
        assert closure_ideal(alg, seed) == meet


def test_a_closure_over_an_enumerated_space_reduces_only_the_products_outside(monkeypatch):
    alg = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    profile = lattice_profile(alg)  # every subspace of GF(3)^3 now carries its mask
    reduced, products = [], [0]
    reduce_vector, mul = Subspace.reduce_vector, PoissonAlgebra._mul

    def recording(space, v):
        reduced.append((space, v))
        return reduce_vector(space, v)

    def counting(*args):
        products[0] += 1
        return mul(*args)
    monkeypatch.setattr(Subspace, "reduce_vector", recording)
    monkeypatch.setattr(PoissonAlgebra, "_mul", counting)
    for seed in profile.subspaces:
        closure_subalgebra(alg, seed)
        closure_ideal(alg, seed)
    assert 0 < len(reduced) < products[0] // 4
    monkeypatch.undo()
    assert all(not space.contains_vector(v) for space, v in reduced)


# ---------------------------------------------------------------------------
# quotients, direct sums
# ---------------------------------------------------------------------------


def test_quotient_by_whole_algebra_is_zero_dimensional():
    h = heisenberg_zero_dot(Q)
    q_alg, _ = quotient(h, h.full_space())
    assert q_alg.dim == 0


def test_quotient_of_heisenberg_by_centre_is_zero_algebra():
    h = heisenberg_zero_dot(Q)
    q_alg, proj = quotient(h, span(h, (0, 0, 1)))
    assert q_alg.dim == 2
    assert all(vec_is_zero(q_alg.mul_dot(q_alg.basis_element(i), q_alg.basis_element(j)))
               and vec_is_zero(q_alg.mul_bracket(q_alg.basis_element(i), q_alg.basis_element(j)))
               for i in range(2) for j in range(2))
    assert is_homomorphism(proj, h, q_alg)
    assert kernel_of(proj, h, q_alg) == span(h, (0, 0, 1))


def test_quotient_by_zero_is_isomorphic_copy():
    h = heisenberg_zero_dot(GF3)
    q_alg, proj = quotient(h, h.zero_space())
    assert q_alg.dot_tensor == h.dot_tensor
    assert q_alg.bracket_tensor == h.bracket_tensor
    assert proj == Matrix.identity(GF3, 3)


def test_quotient_requires_an_ideal():
    s = two_dim_nonabelian(Q)
    with pytest.raises(ValueError):
        quotient(s, span(s, (0, 1)))  # span(y) is not an ideal


def test_quotient_revalidates():
    h = heisenberg_zero_dot(GF2)
    q_alg, _ = quotient(h, span(h, (0, 0, 1)))
    validate(q_alg.tensors())


def summand_embeddings(a, b) -> tuple:
    """The two ideals of direct_sum(a, b) corresponding to the summands."""
    f = a.field
    n = a.dim + b.dim
    first = Subspace.from_vectors(f, n, [basis_vector(f, n, i) for i in range(a.dim)])
    second = Subspace.from_vectors(f, n, [basis_vector(f, n, a.dim + i) for i in range(b.dim)])
    return first, second


def test_direct_sum_blocks_and_recovery():
    a = idempotent_line(GF3)
    b = zero_algebra(GF3, 1)
    total = direct_sum(a, b)
    validate(total.tensors())
    first, second = summand_embeddings(a, b)
    assert is_ideal(total, first) and is_ideal(total, second)
    q_alg, _ = quotient(total, first)
    assert q_alg.dot_tensor == b.dot_tensor
    q_alg, _ = quotient(total, second)
    assert q_alg.dot_tensor == a.dot_tensor


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(idempotent_line(GF2), idempotent_line(GF3))


def test_zero_sum_zero():
    total = direct_sum(zero_algebra(Q, 1), zero_algebra(Q, 2))
    assert total.dim == 3
    assert total.full_space() == centre(total)


# ---------------------------------------------------------------------------
# annihilators and idealisers
# ---------------------------------------------------------------------------


def test_centre_of_zero_algebra_is_everything():
    alg = zero_algebra(GF2, 3)
    assert centre(alg).is_full()


def test_centre_of_heisenberg_is_the_bracket_image():
    h = heisenberg_zero_dot(Q)
    c = centre(h)
    assert c == span(h, (0, 0, 1))
    assert is_ideal(h, c)


def test_annihilator_in_two_dim_nonabelian():
    s = two_dim_nonabelian(Q)
    assert annihilator(s, span(s, (1, 0))) == span(s, (1, 0))


def test_idealiser_of_an_ideal_is_everything():
    h = heisenberg_zero_dot(GF3)
    assert idealiser(h, span(h, (0, 0, 1))).is_full()
    assert idealiser(h, h.full_space()).is_full()


def test_lie_idealiser_of_y_line():
    s = two_dim_nonabelian(Q)
    assert lie_idealiser(s, span(s, (0, 1))) == span(s, (0, 1))


def assoc_idealiser(alg, u):
    """{x : x . u in U for all u in U}."""
    maps = [_right_multiplication(alg, 0, row) for row in u.rows()]
    return _preimage_condition(alg, u, maps)


def test_assoc_idealiser_with_zero_dot_is_everything():
    s = two_dim_nonabelian(GF3)
    assert assoc_idealiser(s, span(s, (0, 1))).is_full()


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_identity_map_is_a_homomorphism_with_zero_kernel():
    h = heisenberg_zero_dot(GF3)
    ident = Matrix.identity(GF3, 3)
    assert is_homomorphism(ident, h, h)
    assert kernel_of(ident, h, h).is_zero()


def test_nonzero_map_from_idempotent_to_zero_algebra_fails():
    a = idempotent_line(Q)
    b = zero_algebra(Q, 1)
    bad = Matrix.from_rows(Q, [[1]])
    assert not is_homomorphism(bad, a, b)
    with pytest.raises(ValueError):
        kernel_of(bad, a, b)


@pytest.mark.parametrize("alg", [a for a in curated_corpus() if a.field.is_finite],
                         ids=lambda a: a.name)
def test_the_kernel_of_each_quotient_map_is_its_ideal(alg):
    # kernel_of checks only the homomorphism; its kernel is an ideal for free
    ideals = [u for u in enumerate_subspaces(alg.field, alg.dim) if is_ideal(alg, u)]
    assert alg.full_space() in ideals
    for ideal in ideals:
        q_alg, proj = quotient(alg, ideal)
        kern = kernel_of(proj, alg, q_alg)
        assert kern == ideal and is_ideal(alg, kern)


def _reference_quotient(alg, ideal):
    """The projection and the quotient tensors, each vector reduced mod the
    ideal one by one and read at the coset representatives."""
    reps = [j for j in range(alg.dim) if j not in ideal.pivots]

    def project(v):
        reduced = ideal.reduce_vector(v)
        return tuple(reduced[j] for j in reps)

    images = [project(alg.basis_element(i)) for i in range(alg.dim)]
    proj = Matrix(alg.field, len(reps), alg.dim, tuple(zip(*images)) if reps else ())
    e = alg.basis_element
    tensors = tuple(tuple(tuple(project(mul(e(a), e(b))) for b in reps) for a in reps)
                    for mul in (alg.mul_dot, alg.mul_bracket))
    return proj, tensors


@pytest.mark.parametrize("alg", [a for a in curated_corpus() if a.field.is_finite],
                         ids=lambda a: a.name)
def test_the_quotient_projection_matches_reducing_each_basis_vector(alg):
    for ideal in lattice_profile(alg).ideals():
        data = quotient_maps(alg, ideal)
        proj, tensors = _reference_quotient(alg, ideal)
        assert data.projection == proj
        assert (data.algebra.dot_tensor, data.algebra.bracket_tensor) == tensors


# ---------------------------------------------------------------------------
# restriction and subideals
# ---------------------------------------------------------------------------


def test_subalgebra_restriction_of_span_xz():
    # x.x = z inside a bigger algebra restricts to the dual-number pattern
    alg = validate(tensors_from_maps(Q, 3, {(0, 0, 2): 1}, {}))
    sub, embed = subalgebra_algebra(alg, span(alg, (1, 0, 0), (0, 0, 1)))
    assert sub.dim == 2
    e0 = sub.basis_element(0)
    assert sub.mul_dot(e0, e0) == sub.basis_element(1)
    assert embed.mat_vec(e0) == alg.element((1, 0, 0))


def test_subideal_detection():
    h = heisenberg_zero_dot(GF2)
    assert is_subideal(h, span(h, (0, 0, 1)))          # an ideal
    assert is_subideal(h, span(h, (1, 0, 0), (0, 0, 1)))
    assert is_subideal(h, h.full_space())
    s = two_dim_nonabelian(GF2)
    assert not is_subideal(s, span(s, (0, 1)))         # its closure climbs back up
    assert is_subideal(s, span(s, (1, 0)))


def test_lemma_style_containment_of_power_brackets():
    # [B_A^n, C] inside B_A^{n-1} . [B, C] on a pair with nonzero dot structure
    fe = fe_plus_nilpotent_line(GF3)
    b = fe.full_space()
    c = span(fe, (1, 0), (0, 1))
    bc = subspace_product_bracket(fe, b, c)
    power = b
    prev = None
    for n in range(1, fe.dim + 2):
        lhs = subspace_product_bracket(fe, power, c)
        rhs = bc if n == 1 else subspace_product_dot(fe, prev, bc)
        assert rhs.contains(lhs)
        prev = power
        power = subspace_product_dot(fe, power, b)
