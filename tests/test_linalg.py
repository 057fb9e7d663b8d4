import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from palg.fields import PRIME, RATIONALS, FieldError, FieldSpec
from palg.lattice import enumerate_subspaces
from palg.linalg import (
    Matrix,
    Subspace,
    char_poly,
    fitting_null,
    image,
    kernel,
    poly_eval_matrix,
    reduction_matrix,
    roots_in_field,
    _subspace,
    rref,
    subspace_intersect,
    subspace_sum,
    vec_is_zero,
)

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()

FIELDS = [GF2, GF3, GF5, Q]


def M(field, rows, ncols=None):
    return Matrix.from_rows(field, rows, ncols=ncols)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_field_parsing_and_formatting():
    assert GF5.parse_scalar("7") == 2
    assert GF5.parse_scalar("-1") == 4
    assert GF5.parse_scalar("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert Q.parse_scalar("-4/6") == Fraction(-2, 3)
    assert Q.parse_scalar("+4") == 4 and GF5.parse_scalar("-12/8") == 1
    assert Q.format_scalar(Fraction(-2, 3)) == "-2/3"
    with pytest.raises(FieldError):
        Q.parse_scalar("0.5")
    with pytest.raises(FieldError):
        Q.coerce(0.5)
    with pytest.raises(FieldError):
        FieldSpec.prime(4)
    with pytest.raises(FieldError):
        FieldSpec.prime(101)
    # the cap before primality: trial division of 2^61 - 1 did not finish,
    # and a composite over the cap reports the cap
    for p in (2 ** 61 - 1, 100):
        with pytest.raises(FieldError, match=f"modulus {p} exceeds the cap 97"):
            FieldSpec.prime(p)


@pytest.mark.parametrize("text", ["²", "-²", "1/²", "٣", "1_0", " 1", "1 ", "1/-3", "+-1",
                                  "1/", "/2", "", "1e3"])
def test_only_ascii_digits_parse_as_scalars(text):
    # str.isdigit accepts '²', which int() then rejected with a plain
    # ValueError, and the Arabic-Indic '٣', which int() read as 3; the one
    # grammar is [+-]digits[/digits], with no surrounding space
    with pytest.raises(FieldError, match="not an integer literal"):
        Q.parse_scalar(text)


def test_one_fieldspec_object_per_field():
    for p in (2, 3, 5, 97):
        assert FieldSpec.prime(p) is FieldSpec.prime(p)
        assert FieldSpec(PRIME, p) == FieldSpec.prime(p)
        assert FieldSpec(PRIME, p) is not FieldSpec.prime(p)
    assert FieldSpec.rationals() is FieldSpec.rationals() == FieldSpec(RATIONALS)
    # a value equal to a prime but not an int is checked, not looked up
    for p in (2.0, Fraction(3), True):
        with pytest.raises(FieldError, match="not prime"):
            FieldSpec.prime(p)


def test_prime_field_arithmetic_is_reduced():
    assert GF3.add(2, 2) == 1
    assert GF3.inv(2) == 2
    assert GF3.div(1, 2) == 2
    assert list(GF3.elements()) == [0, 1, 2]
    with pytest.raises(FieldError):
        Q.elements()


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def test_rref_permutation_of_identity():
    assert rref(M(Q, [[0, 1], [1, 0]])) == Matrix.identity(Q, 2)


def test_rref_scaling_normalisation():
    assert rref(M(Q, [[2, 4]])) == M(Q, [[1, 2]])


def test_rref_duplicate_row_collapses_over_gf2():
    assert rref(M(GF2, [[1, 1], [1, 1]])) == M(GF2, [[1, 1]])


@st.composite
def matrices(draw, fields=FIELDS, max_dim=4):
    field = draw(st.sampled_from(fields))
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    if field.is_finite:
        scalars = st.integers(0, field.order - 1)
    else:
        scalars = st.integers(-4, 4).map(Fraction)
    rows = draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return M(field, rows, ncols=ncols)


@st.composite
def square_matrices(draw, fields=FIELDS, max_dim=4):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_dim))
    if field.is_finite:
        scalars = st.integers(0, field.order - 1)
    else:
        scalars = st.integers(-3, 3).map(Fraction)
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return M(field, rows, ncols=n)


@given(matrices())
def test_rref_idempotent_and_row_space_preserved(m):
    reduced = rref(m)
    assert rref(reduced) == reduced
    before = Subspace(m.ncols, reduced)
    for row in m.entries:
        assert before.contains_vector(row)
    # containment both ways: each reduced row is a combination of originals
    original = Subspace(m.ncols, rref(m))
    assert original.contains(before) and before.contains(original)


# ---------------------------------------------------------------------------
# subspace operations
# ---------------------------------------------------------------------------


def test_sum_of_axis_lines():
    e1 = Subspace.from_vectors(Q, 3, [[1, 0, 0]])
    e2 = Subspace.from_vectors(Q, 3, [[0, 1, 0]])
    total = subspace_sum(e1, e2)
    assert total == Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])


def test_intersection_of_coordinate_planes():
    u = Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_vectors(Q, 3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(u, v) == Subspace.from_vectors(Q, 3, [[0, 1, 0]])


@given(matrices(max_dim=4))
def test_intersection_idempotent(m):
    u = Subspace(m.ncols, rref(m))
    assert subspace_intersect(u, u) == u


@given(matrices(max_dim=4), matrices(max_dim=4))
def test_dimension_formula(m1, m2):
    if m1.field != m2.field or m1.ncols != m2.ncols:
        return
    u = Subspace(m1.ncols, rref(m1))
    v = Subspace(m2.ncols, rref(m2))
    total = subspace_sum(u, v)
    meet = subspace_intersect(u, v)
    assert u.dim + v.dim == total.dim + meet.dim
    assert total.contains(u) and total.contains(v)
    assert u.contains(meet) and v.contains(meet)


@given(matrices(max_dim=4))
def test_pivots_are_leading_columns_and_stay_out_of_equality(m):
    s = Subspace(m.ncols, rref(m))
    assert s.pivots == tuple(next(j for j, x in enumerate(row) if x != 0) for row in s.rows())
    # the same space from another spanning set: reversed rows plus their
    # sum; one object per subspace, so it is s itself
    rows = list(reversed(m.entries))
    rows.append(tuple(m.field.add(a, b) for a, b in zip(rows[0], rows[-1])))
    t = Subspace.from_vectors(m.field, m.ncols, rows)
    assert t is s and t == s and hash(t) == hash(s) and t.pivots == s.pivots
    assert "pivots" not in repr(s)


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)])
def test_contains_matches_reduce_only_reference(field, n):
    # enumerated subspaces carry point masks; raw copies built outside the
    # tables do not, so a mixed pair takes the reduce_vector path
    spaces = list(enumerate_subspaces(field, n))
    copies = [_subspace(field, n, s.rows(), s.pivots) for s in spaces]
    assert all(s.mask is not None for s in spaces)
    assert all(c.mask is None for c in copies)
    for big, big_copy in zip(spaces, copies):
        for small, small_copy in zip(spaces, copies):
            expected = all(vec_is_zero(big.reduce_vector(r)) for r in small.rows())
            assert big.contains(small) == expected, (big, small)
            assert big_copy.contains(small) == expected, (big, small)
            assert big.contains(small_copy) == expected, (big, small)


@pytest.mark.parametrize("field,n", [(GF2, 3), (GF3, 2)])
def test_matrix_and_subspace_have_slots_and_no_dict(field, n):
    assert "__slots__" in vars(Matrix) and "__slots__" in vars(Subspace)
    spaces = list(enumerate_subspaces(field, n))
    for s in spaces:
        assert not hasattr(s, "__dict__") and not hasattr(s.basis, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            s.extra = 1  # no instance dict to put it in
    # the enumerated masks survive, and with the pivots stay out of repr;
    # a copy rebuilt from the rows is the enumerated object itself
    assert [s.mask.bit_count() for s in spaces] == [
        (field.order ** s.dim - 1) // (field.order - 1) for s in spaces]
    for s in spaces:
        copy = Subspace.from_vectors(field, n, s.rows())
        assert copy is s and copy.mask == s.mask and copy.pivots == s.pivots
        assert "mask" not in repr(s) and "pivots" not in repr(s)


def test_matrix_power_rejects_a_negative_exponent():
    m = M(GF3, [[1, 1], [0, 1]])
    assert m.pow(0) == Matrix.identity(GF3, 2)
    assert m.pow(3) == M(GF3, [[1, 0], [0, 1]])
    for k in (-1, -2):
        with pytest.raises(ValueError, match="negative"):
            m.pow(k)


def test_mismatched_ambient_or_field_rejected():
    u = Subspace.full(GF3, 2)
    v = Subspace.full(GF3, 3)
    with pytest.raises(ValueError):
        subspace_sum(u, v)
    w = Subspace.full(GF2, 2)
    with pytest.raises(ValueError):
        subspace_intersect(u, w)
    # containment used to answer these silently
    with pytest.raises(ValueError, match="ambient"):
        u.contains(Subspace.from_vectors(GF3, 3, [(1, 0, 0)]))
    with pytest.raises(ValueError, match="field"):
        Subspace.from_vectors(GF3, 2, [(1, 1)]).contains(Subspace.from_vectors(GF5, 2, [(1, 1)]))
    # and so do enumerated subspaces, whose point numberings differ
    gf2_line, gf3_line = (next(s for s in enumerate_subspaces(f, 2) if s.dim == 1)
                          for f in (GF2, GF3))
    with pytest.raises(ValueError, match="field"):
        gf3_line.contains(gf2_line)
    with pytest.raises(ValueError, match="ambient"):
        next(enumerate_subspaces(GF3, 3)).contains(gf3_line)


def test_equal_fields_that_are_distinct_objects_are_compatible():
    # a subspace built over an equal field that is another object is still
    # the one subspace of its value
    u = Subspace.full(FieldSpec.prime(3), 2)
    v = Subspace.from_vectors(FieldSpec(PRIME, 3), 2, [(1, 1)])
    assert v is Subspace.from_vectors(FieldSpec.prime(3), 2, [(1, 1)])
    assert u.contains(v) and not v.contains(u)
    assert subspace_intersect(u, v) is v and subspace_sum(u, v) is u
    # the identity test of fields is only a shortcut before the equality
    # test; the named constructors share one object per field, direct
    # construction not, and a raw copy outside the tables keeps its own
    w = _subspace(FieldSpec(PRIME, 3), 2, ((1, 1),), (0,))
    assert u.field is not w.field
    assert u.contains(w) and not w.contains(u)
    assert subspace_intersect(u, w) is w and subspace_sum(u, w) is u


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)])
def test_a_subspace_holds_its_rows_and_no_matrix(field, n):
    spaces = list(enumerate_subspaces(field, n))
    spaces += [Subspace.span(field, n, s.rows()[::-1]) for s in spaces]
    spaces += [Subspace.zero(field, n), Subspace.full(field, n)]
    assert "basis" not in Subspace.__slots__
    for s in spaces:
        assert not any(isinstance(r, Matrix) for r in gc.get_referents(s)), s
        assert s.basis == Matrix(s.field, s.dim, s.ambient_dim, s.rows())
        assert repr(s) == f"Subspace(ambient_dim={n}, basis={s.basis!r})"
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s
    with pytest.raises(ValueError, match="width"):
        Subspace(3, Matrix(GF3, 0, 2, ()))
    with pytest.raises(ValueError, match="width"):
        Subspace(3, Matrix(GF3, 1, 2, ((1, 0),)))


def test_public_matrix_constructor_keeps_its_shape_check():
    # the trusted internal constructor skips it; Matrix(...) must not
    with pytest.raises(ValueError, match="row count"):
        Matrix(GF3, 2, 2, ((1, 0),))
    with pytest.raises(ValueError, match="ragged"):
        Matrix(GF3, 2, 2, ((1, 0), (0,)))
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_rows(GF3, [[1, 0], [0, 1, 2]])
    # the matrices the trusted path builds pass the check
    m = M(GF3, [[1, 2, 0], [2, 1, 1]])
    for built in (m.transpose(), m.matmul(m.transpose()), rref(m)):
        assert Matrix(built.field, built.nrows, built.ncols, built.entries) == built


# ---------------------------------------------------------------------------
# reduction matrices
# ---------------------------------------------------------------------------

Q_SPACES = [
    (3, []),
    (3, [[1, 2, 3]]),
    (3, [[Fraction(1, 2), 0, -1], [0, 3, Fraction(2, 3)]]),
    (4, [[1, 1, 0, 0], [0, 0, 1, Fraction(-5, 7)]]),
    (4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
]


def _spaces_with_their_vectors():
    """Every subspace of GF(2)^4 and GF(3)^3 and a few of Q^3 and Q^4, each
    with the standard basis and seeded random vectors of its ambient space."""
    rng = random.Random(40)
    finite = [(u, [tuple(rng.randrange(f.modulus) for _ in range(n)) for _ in range(8)])
              for f, n in ((GF2, 4), (GF3, 3)) for u in enumerate_subspaces(f, n)]
    rational = [(Subspace.from_vectors(Q, n, rows),
                 [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
                  for _ in range(8)]) for n, rows in Q_SPACES]
    for u, vectors in finite + rational:
        n = u.ambient_dim
        yield u, [tuple(u.field.from_int(int(i == j)) for j in range(n)) for i in range(n)] + vectors


def test_the_reduction_matrix_reduces_every_vector_as_reduce_vector_does():
    count = 0
    for u, vectors in _spaces_with_their_vectors():
        r = reduction_matrix(u)
        assert (r.field, r.nrows, r.ncols) == (u.field, u.ambient_dim, u.ambient_dim)
        for v in vectors:
            assert r.mat_vec(v) == u.reduce_vector(v)
        count += 1
    assert count == 67 + 28 + len(Q_SPACES)  # the subspaces of GF(2)^4 and GF(3)^3


def test_the_kernel_of_a_reduction_matrix_is_its_subspace():
    for u, _ in _spaces_with_their_vectors():
        assert kernel(reduction_matrix(u)) is u


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def _char_poly_2x2_cofactor(m):
    # det(tI - M) expanded by hand for the oracle
    f = m.field
    a, b = m.entries[0]
    c, d = m.entries[1]
    tr = f.add(a, d)
    det = f.sub(f.mul(a, d), f.mul(b, c))
    return (f.one(), f.neg(tr), det)


def test_char_poly_zero_and_identity():
    assert char_poly(Matrix.zero(Q, 2, 2)) == (Fraction(1), Fraction(0), Fraction(0))
    assert char_poly(Matrix.identity(Q, 3)) == \
        (Fraction(1), Fraction(-3), Fraction(3), Fraction(-1))


def test_char_poly_companion_matrix_against_cofactor_oracle():
    companion = M(Q, [[0, 1], [1, 1]])
    assert char_poly(companion) == _char_poly_2x2_cofactor(companion)
    assert char_poly(companion) == (Fraction(1), Fraction(-1), Fraction(-1))


@given(square_matrices(max_dim=2))
def test_char_poly_matches_cofactor_oracle_2x2(m):
    if m.nrows != 2:
        return
    assert char_poly(m) == _char_poly_2x2_cofactor(m)


def test_char_poly_small_prime_field():
    # nilpotent over GF(2) where division-based schemes break
    m = M(GF2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert char_poly(m) == (1, 0, 0, 0)


@given(square_matrices())
def test_cayley_hamilton(m):
    assert poly_eval_matrix(char_poly(m), m).is_zero()


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(M(Q, [[1, 2, 3], [4, 5, 6]]))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def test_rational_roots_of_t_squared_minus_one():
    poly = (Fraction(1), Fraction(0), Fraction(-1))
    assert roots_in_field(Q, poly) == ((Fraction(-1), 1), (Fraction(1), 1))


def test_no_rational_roots_of_t_squared_plus_one():
    poly = (Fraction(1), Fraction(0), Fraction(1))
    assert roots_in_field(Q, poly) == ()


def test_gf2_roots_by_trial():
    poly = (1, 1, 0)  # t^2 + t
    assert roots_in_field(GF2, poly) == ((0, 1), (1, 1))


def test_root_multiplicities_by_deflation():
    # (t - 1)^2 (t + 2)
    poly = (Fraction(1), Fraction(0), Fraction(-3), Fraction(2))
    assert roots_in_field(Q, poly) == ((Fraction(-2), 1), (Fraction(1), 2))


def test_fractional_rational_root_found():
    # (t - 1/2)(t - 3): monic with fractional coefficients
    poly = (Fraction(1), Fraction(-7, 2), Fraction(3, 2))
    assert roots_in_field(Q, poly) == ((Fraction(1, 2), 1), (Fraction(3), 1))


# ---------------------------------------------------------------------------
# Fitting components
# ---------------------------------------------------------------------------


def fitting_one(m: Matrix) -> Subspace:
    """Image of m^n (n = size): the component complementary to fitting_null."""
    return image(m.pow(m.nrows))


def test_fitting_of_nilpotent_jordan_block():
    m = M(Q, [[0, 1], [0, 0]])
    assert fitting_null(m).is_full()
    assert fitting_one(m).is_zero()


def test_fitting_of_invertible():
    m = M(Q, [[2, 1], [1, 1]])
    assert fitting_null(m).is_zero()
    assert fitting_one(m).is_full()


def test_fitting_of_diagonal_split():
    m = M(Q, [[0, 0], [0, 1]])
    assert fitting_null(m) == Subspace.from_vectors(Q, 2, [[1, 0]])
    assert fitting_one(m) == Subspace.from_vectors(Q, 2, [[0, 1]])


@given(square_matrices())
def test_fitting_splits_the_space(m):
    null = fitting_null(m)
    one = fitting_one(m)
    assert null.dim + one.dim == m.nrows
    assert subspace_intersect(null, one).is_zero()
    assert subspace_sum(null, one).is_full()
    for row in null.rows():
        assert null.contains_vector(m.mat_vec(row))
    for row in one.rows():
        assert one.contains_vector(m.mat_vec(row))


@given(square_matrices())
def test_kernel_and_image_are_what_they_claim(m):
    ker = kernel(m)
    for row in ker.rows():
        assert all(x == 0 for x in m.mat_vec(row))
    img = image(m)
    for j in range(m.ncols):
        assert img.contains_vector(m.column(j))
    assert ker.dim + img.dim == m.ncols


@pytest.mark.parametrize("entry", [5, -1, Fraction(2), True], ids=repr)
def test_the_checked_constructor_refuses_an_unreduced_gf_p_entry(entry):
    # each once gave a second object for span((1, 2, 0)); a stored subspace
    # is found by its entries as base-p digits, so they must be reduced
    line = Subspace.from_vectors(GF3, 3, [(1, 2, 0)])
    with pytest.raises(ValueError, match=r"range\(3\)"):
        Subspace(3, Matrix(GF3, 1, 3, ((1, entry, 0),)))
    assert Subspace(3, Matrix(GF3, 1, 3, ((1, 2, 0),))) is line
    assert Subspace.from_vectors(GF3, 3, [(1, entry, 0)]) is Subspace.from_vectors(
        GF3, 3, [(1, GF3.coerce(entry), 0)])  # from_vectors still reduces what it is given
