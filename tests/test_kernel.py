"""The raw-scalar kernel against the generic FieldSpec arithmetic.

``PoissonAlgebra._mul`` on the sparse table of basis products, the operator
matrices read off the tensors, the ``Matrix`` arithmetic, ``rref`` and
``Subspace.reduce_vector`` compute on the raw scalars: Python ints reduced
``% p`` once per coordinate over GF(p), ``Fraction`` operators over Q.  The
``ref_*`` functions below are their bodies written with the ``FieldSpec``
methods, one call per term, and the operators' reference is the matrix of
basis images (``basis_images`` below) of the generic product; every fast path
must give the same scalars, of the same types, and never a float.  ``Subspace.span`` must give the subspace
``from_vectors`` gives, with a basis the checked constructor accepts, and
``find_axiom_violation``'s table of basis products must report what
evaluating every residual from scratch reports, whatever representatives
the tensor's scalars are written in.
"""

import collections
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from palg.algebra import (
    PoissonAlgebra,
    _right_multiplication,
    direct_sum,
    evaluate_axiom,
    find_axiom_violation,
    tensors_from_maps,
    validate,
)
from palg.corpus import (
    _associative_dots,
    _leibniz_brackets,
    _positions,
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
from palg.fields import FieldSpec
from palg.linalg import Matrix, Subspace, rref, vec_is_zero, vec_sub

GF3 = FieldSpec.prime(3)
FIELDS = [FieldSpec.prime(p) for p in (2, 3, 5, 97)] + [FieldSpec.rationals()]


# ---------------------------------------------------------------------------
# the generic bodies, one FieldSpec call per term
# ---------------------------------------------------------------------------


def ref_mul(f, dim, tensor, x, y):
    out = [f.zero()] * dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        ti = tensor[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coeff = f.mul(xi, yj)
            for k, c in enumerate(ti[j]):
                if c != 0:
                    out[k] = f.add(out[k], f.mul(coeff, c))
    return tuple(out)


def ref_matmul(a, b):
    f = a.field
    cols = [b.column(j) for j in range(b.ncols)]
    rows = []
    for row in a.entries:
        out = []
        for col in cols:
            acc = f.zero()
            for x, y in zip(row, col):
                if x != 0 and y != 0:
                    acc = f.add(acc, f.mul(x, y))
            out.append(acc)
        rows.append(tuple(out))
    return tuple(rows)


def ref_entrywise(a, b, op):
    return tuple(tuple(op(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries))


def ref_scale(c, a):
    return tuple(tuple(a.field.mul(c, x) for x in row) for row in a.entries)


def ref_mat_vec(m, v):
    f = m.field
    out = []
    for row in m.entries:
        acc = f.zero()
        for x, y in zip(row, v):
            if x != 0 and y != 0:
                acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return tuple(out)


def ref_pow(m, k):
    entries = Matrix.identity(m.field, m.nrows).entries
    for _ in range(k):
        entries = ref_matmul(Matrix(m.field, m.nrows, m.ncols, entries), m)
    return entries


def ref_rref(m):
    f = m.field
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.nrows, m.ncols
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, nrows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = f.inv(rows[pivot_row][col])
        if inv != f.one():
            rows[pivot_row] = [f.mul(inv, x) for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return tuple(tuple(r) for r in rows[:pivot_row])


def ref_reduce_vector(s, v):
    f = s.field
    v = list(v)
    for row, piv in zip(s.basis.entries, s.pivots):
        c = v[piv]
        if c != 0:
            for j in range(piv, s.ambient_dim):
                v[j] = f.sub(v[j], f.mul(c, row[j]))
    return tuple(v)


# The residuals as they were before the table of basis products: every
# product evaluated afresh in every residual.

def ref_commutativity(alg, e, i, j):
    return vec_sub(alg.field, alg.mul_dot(e[i], e[j]), alg.mul_dot(e[j], e[i]))


def vec_add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def ref_associativity(alg, e, i, j, k):
    return vec_sub(alg.field, alg.mul_dot(alg.mul_dot(e[i], e[j]), e[k]),
                   alg.mul_dot(e[i], alg.mul_dot(e[j], e[k])))


def ref_alternating(alg, e, i, j):
    if i == j:
        return alg.mul_bracket(e[i], e[i])
    return vec_add(alg.field, alg.mul_bracket(e[i], e[j]), alg.mul_bracket(e[j], e[i]))


def ref_jacobi(alg, e, i, j, k):
    f = alg.field
    res = alg.mul_bracket(alg.mul_bracket(e[i], e[j]), e[k])
    res = vec_add(f, res, alg.mul_bracket(alg.mul_bracket(e[j], e[k]), e[i]))
    return vec_add(f, res, alg.mul_bracket(alg.mul_bracket(e[k], e[i]), e[j]))


def ref_leibniz(alg, e, i, j, k):
    f = alg.field
    rhs = vec_add(f, alg.mul_dot(alg.mul_bracket(e[i], e[k]), e[j]),
                  alg.mul_dot(e[i], alg.mul_bracket(e[j], e[k])))
    return vec_sub(f, alg.mul_bracket(alg.mul_dot(e[i], e[j]), e[k]), rhs)


REF_RESIDUALS = {"commutativity": ref_commutativity, "associativity": ref_associativity,
                 "alternating": ref_alternating, "jacobi": ref_jacobi,
                 "leibniz": ref_leibniz}


def ref_witnesses(n):
    """The report order, written out apart from ``_axiom_witnesses``: every
    pair i < j, every triple, the diagonal, and Jacobi on every i < j < k."""
    r = range(n)
    pairs = [(i, j) for i in r for j in r if i < j]
    triples = [(i, j, k) for i in r for j in r for k in r]
    return ([("commutativity", w) for w in pairs]
            + [("associativity", w) for w in triples]
            + [("alternating", (i, i)) for i in r]
            + [("alternating", w) for w in pairs]
            + [("jacobi", (i, j, k)) for i, j, k in triples if i < j < k]
            + [("leibniz", w) for w in triples])


def ref_find_axiom_violation(alg):
    e = [alg.basis_element(i) for i in range(alg.dim)]
    for axiom, witness in ref_witnesses(alg.dim):
        res = REF_RESIDUALS[axiom](alg, e, *witness)
        if not vec_is_zero(res):
            return axiom, witness, res
    return None


# ---------------------------------------------------------------------------
# strategies and helpers
# ---------------------------------------------------------------------------


def scalars(field):
    """Field elements, zero often; over Q also plain ints."""
    if field.is_finite:
        return st.one_of(st.just(0), st.integers(0, field.modulus - 1))
    return st.one_of(st.just(Fraction(0)), st.integers(-4, 4),
                     st.fractions(min_value=-4, max_value=4, max_denominator=6))


def vectors(field, n):
    return st.tuples(*[scalars(field)] * n)


def grids(field, nrows, ncols):
    return st.tuples(*[vectors(field, ncols)] * nrows)


def tensors(field, n):
    """A dense n x n x n tensor with a few nonzero entries; no axioms."""
    index = st.integers(0, n - 1)
    entries = st.dictionaries(st.tuples(index, index, index), scalars(field), max_size=2 * n)

    def dense(items):
        return tuple(tuple(tuple(items.get((i, j, k), field.zero()) for k in range(n))
                           for j in range(n)) for i in range(n))
    return entries.map(dense)


def alternating_tensors(field, n):
    """A bracket tensor with [e_i, e_i] = 0 and [e_j, e_i] = -[e_i, e_j]."""
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])
    entries = st.dictionaries(st.tuples(pairs, st.integers(0, n - 1)),
                              scalars(field).map(field.coerce), max_size=2 * n)

    def dense(items):
        t = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for ((i, j), k), c in items.items():
            t[i][j][k], t[j][i][k] = c, field.neg(c)
        return tuple(tuple(tuple(line) for line in plane) for plane in t)
    return entries.map(dense)


def typed(value):
    """A nested tuple with every scalar replaced by (type name, value), so
    that equality also compares types; a float anywhere fails the test."""
    if isinstance(value, (tuple, list)):
        return tuple(typed(v) for v in value)
    assert not isinstance(value, float)
    assert isinstance(value, (int, Fraction))
    return (type(value).__name__, value)


def assert_reduced(field, rows):
    """Over GF(p) every output scalar is an int residue in [0, p)."""
    if field.is_finite:
        for row in rows:
            assert all(type(x) is int and 0 <= x < field.modulus for x in row)


DIMS = st.integers(0, 4)


# ---------------------------------------------------------------------------
# the four loops and span
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_mul_matches_the_fieldspec_body(field, data):
    n = data.draw(st.integers(1, 4))
    dot, bracket = data.draw(tensors(field, n)), data.draw(tensors(field, n))
    alg = PoissonAlgebra(field, n, dot, bracket)
    x, y = data.draw(vectors(field, n)), data.draw(vectors(field, n))
    for tensor, product in ((dot, alg.mul_dot), (bracket, alg.mul_bracket)):
        fast = product(x, y)
        assert typed(fast) == typed(ref_mul(field, n, tensor, x, y))
        assert_reduced(field, [fast])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mul_keeps_the_index_error_for_a_vector_longer_than_the_algebra(field):
    alg = zero_algebra(field, 2)
    wide = (field.zero(), field.zero(), field.one())
    one = (field.one(), field.zero())
    for x, y in ((wide, one), (one, wide)):
        with pytest.raises(IndexError):
            alg.mul_dot(x, y)
        with pytest.raises(IndexError):
            ref_mul(field, 2, alg.dot_tensor, x, y)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_matmul_matches_the_fieldspec_body(field, data):
    r, k, c = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = Matrix(field, r, k, data.draw(grids(field, r, k)))
    b = Matrix(field, k, c, data.draw(grids(field, k, c)))
    fast = a.matmul(b)
    assert (fast.nrows, fast.ncols) == (r, c)
    assert typed(fast.entries) == typed(ref_matmul(a, b))
    assert_reduced(field, fast.entries)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_entrywise_arithmetic_and_mat_vec_match_the_fieldspec_bodies(field, data):
    r, c = data.draw(DIMS), data.draw(DIMS)
    a, b = (Matrix(field, r, c, data.draw(grids(field, r, c))) for _ in range(2))
    scalar, v = data.draw(scalars(field)), data.draw(vectors(field, c))
    for fast, reference in ((a.add(b), ref_entrywise(a, b, field.add)),
                            (a.sub(b), ref_entrywise(a, b, field.sub)),
                            (a.scale(scalar), ref_scale(scalar, a))):
        assert (fast.nrows, fast.ncols) == (r, c)
        assert typed(fast.entries) == typed(reference)
        assert_reduced(field, fast.entries)
    fast = a.mat_vec(v)
    assert typed(fast) == typed(ref_mat_vec(a, v))
    assert_reduced(field, [fast])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_entrywise_arithmetic_and_mat_vec_refuse_other_shapes(field):
    a, b = Matrix.zero(field, 2, 3), Matrix.zero(field, 3, 2)
    for call in (lambda: a.add(b), lambda: a.sub(b), lambda: a.add(Matrix.zero(field, 2, 2)),
                 lambda: a.mat_vec((field.zero(),) * 2)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_pow_matches_repeated_fieldspec_products(field, data):
    # entries are field elements, as every matrix palg builds holds
    n, k = data.draw(DIMS), data.draw(st.integers(0, 9))
    m = Matrix(field, n, n, data.draw(st.tuples(*[st.tuples(
        *[scalars(field).map(field.coerce)] * n)] * n)))
    fast = m.pow(k)
    assert (fast.nrows, fast.ncols) == (n, n)
    assert typed(fast.entries) == typed(ref_pow(m, k))
    assert_reduced(field, fast.entries)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_rref_matches_the_fieldspec_body(field, data):
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    m = Matrix(field, r, c, data.draw(grids(field, r, c)))
    fast = rref(m)
    assert fast.ncols == c and fast.nrows == len(fast.entries)
    assert typed(fast.entries) == typed(ref_rref(m))
    assert_reduced(field, fast.entries)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_reduce_vector_matches_the_fieldspec_body(field, data):
    n = data.draw(st.integers(1, 5))
    s = Subspace.from_vectors(field, n, data.draw(st.lists(vectors(field, n), max_size=4)))
    v = data.draw(vectors(field, n))
    fast = s.reduce_vector(v)
    assert typed(fast) == typed(ref_reduce_vector(s, v))
    assert_reduced(field, [fast])
    assert s.contains_vector(v) == vec_is_zero(ref_reduce_vector(s, v))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_span_equals_from_vectors_and_passes_the_checked_constructor(field, data):
    n = data.draw(st.integers(0, 5))
    vecs = data.draw(st.lists(vectors(field, n), max_size=5))
    fast = Subspace.span(field, n, vecs)
    checked = Subspace.from_vectors(field, n, vecs)
    # one object per subspace, which carries a mask once F^n has been
    # enumerated (by an earlier test, say)
    assert fast is checked and fast == checked and hash(fast) == hash(checked)
    assert fast.pivots == checked.pivots
    # the generic elimination, through the constructor that re-checks it
    generic = ref_rref(Matrix(field, len(vecs), n, tuple(vecs)))
    reference = Subspace(n, Matrix(field, len(checked.rows()), n, generic))
    assert reference is fast
    rebuilt = Subspace(n, fast.basis)
    assert rebuilt is fast and rebuilt.pivots == fast.pivots
    # the scalar types of rref's own rows: over Q the table may hold the
    # equal basis as spelt by whatever built it first
    assert typed(rref(Matrix(field, len(vecs), n, tuple(vecs))).entries) == typed(generic)
    assert_reduced(field, fast.rows())


# ---------------------------------------------------------------------------
# validation through the table of basis products
# ---------------------------------------------------------------------------


def _broken_commutativity():
    # x.y = y, y.x = 0: not commutative
    f = GF3
    z = f.zero()
    dot = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    dot[0][1][1] = f.one()
    return PoissonAlgebra(f, 2, tuple(tuple(tuple(line) for line in plane) for plane in dot),
                          zero_algebra(f, 2).bracket_tensor)


NEGATIVE_CONTROLS = [_broken_commutativity()] + [
    xyz_algebra(f, allow_invalid=True) for f in (GF3, FieldSpec.prime(5), FieldSpec.rationals())]


@pytest.mark.parametrize("alg", NEGATIVE_CONTROLS, ids=lambda a: a.name or "broken-comm")
def test_negative_controls_report_the_same_first_violation(alg):
    violation = find_axiom_violation(alg)
    expected = ref_find_axiom_violation(alg)
    assert expected is not None
    assert (violation.axiom, violation.witness) == expected[:2]
    assert typed(violation.residual) == typed(expected[2])
    e = [alg.basis_element(i) for i in range(alg.dim)]
    for axiom, witness in ref_witnesses(alg.dim):
        assert (typed(evaluate_axiom(alg, axiom, witness))
                == typed(REF_RESIDUALS[axiom](alg, e, *witness)))


@pytest.mark.parametrize("alg", enumerate_poisson_structures(2, 2) + curated_corpus(),
                         ids=lambda a: a.name)
def test_valid_algebras_have_no_violation_either_way(alg):
    assert find_axiom_violation(alg) is None
    assert ref_find_axiom_violation(alg) is None


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_random_tensors_report_the_same_first_violation(field, data):
    n = data.draw(st.integers(1, 3))
    dot, bracket = data.draw(tensors(field, n)), data.draw(tensors(field, n))
    alg = PoissonAlgebra(field, n, dot, bracket)
    violation = find_axiom_violation(alg)
    expected = ref_find_axiom_violation(alg)
    if expected is None:
        assert violation is None
    else:
        assert (violation.axiom, violation.witness) == expected[:2]
        assert typed(violation.residual) == typed(expected[2])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_random_lie_brackets_report_the_same_first_violation(field, data):
    # zero dot and an alternating bracket: only Jacobi can fail
    n = data.draw(st.integers(3, 4))
    alg = PoissonAlgebra(field, n, zero_algebra(field, n).dot_tensor,
                         data.draw(alternating_tensors(field, n)))
    violation = find_axiom_violation(alg)
    expected = ref_find_axiom_violation(alg)
    if expected is None:
        assert violation is None
    else:
        assert expected[0] == "jacobi"
        assert (violation.axiom, violation.witness) == expected[:2]
        assert typed(violation.residual) == typed(expected[2])


# ---------------------------------------------------------------------------
# raw tensors: other representatives, edited entries, enumerator candidates
# ---------------------------------------------------------------------------

# Two dim-3 structures whose dot and bracket interact, valid over every
# field here; both are among the dim-3 GF(2) structures.
MIXED = (({(0, 1, 0): 1, (1, 1, 0): 1, (1, 1, 1): 1, (1, 1, 2): 1, (1, 2, 2): 1},
          {(0, 1, 0): 1, (0, 1, 2): 1, (0, 2, 0): 1, (0, 2, 2): 1, (1, 2, 0): 1,
           (1, 2, 2): 1}),
         ({(0, 1, 0): 1, (1, 1, 1): 1, (1, 1, 2): 1, (1, 2, 2): 1},
          {(0, 1, 0): 1, (0, 1, 2): 1, (0, 2, 0): 1, (0, 2, 2): 1}))


@functools.lru_cache(maxsize=None)
def valid_algebras(field):
    """Valid algebras of dim 0 to 4 over the field: dots, brackets, both,
    and sums that move a structure off the first basis indices."""
    mixed = [validate(tensors_from_maps(field, 3, d, b)) for d, b in MIXED]
    line = zero_algebra(field, 1)
    lie = [two_dim_nonabelian(field), heisenberg_zero_dot(field), rotation3(field)]
    out = [zero_algebra(field, 0), idempotent_line(field), fe_plus_nilpotent_line(field),
           *lie, *mixed,
           *(direct_sum(line, a) for a in lie[1:] + mixed),
           *(direct_sum(a, idempotent_line(field)) for a in mixed),
           direct_sum(two_dim_nonabelian(field), fe_plus_nilpotent_line(field))]
    if field.is_finite and field.modulus <= 5:
        out += enumerate_poisson_structures(2, field.modulus)
    return tuple(out)


def relift(field, tensor, mask, shift):
    """The tensor with each entry whose bit is set in ``mask`` written as
    another representative of the same scalar: c + shift * p over GF(p),
    and over Q an integral Fraction as a plain int."""
    n = len(tensor)

    def entry(i, j, k):
        c = tensor[i][j][k]
        if not mask >> ((i * n + j) * n + k) & 1:
            return c
        if field.is_finite:
            return c + shift * field.modulus
        return int(c) if c.denominator == 1 else c
    return tuple(tuple(tuple(entry(i, j, k) for k in range(n)) for j in range(n))
                 for i in range(n))


@st.composite
def raw_algebras(draw, field):
    """A pair of tensors: a valid algebra or random tensors, with up to two
    entries overwritten (with or without their mirror images, so that the
    later identities get tested too) and some entries unreduced."""
    kind = draw(st.sampled_from(("valid", "raw", "shaped")))
    if kind == "raw":
        n = draw(DIMS)
        tensors_ = [draw(tensors(field, n)) if n else () for _ in range(2)]
    else:
        base = draw(st.sampled_from(valid_algebras(field)))
        n, tensors_ = base.dim, [base.dot_tensor, base.bracket_tensor]
    if kind == "shaped" and n:
        # one side replaced by a random commutative dot or alternating
        # bracket, so that the later identities decide
        index = st.integers(0, n - 1)
        entries = draw(st.dictionaries(st.tuples(index, index, index),
                                       scalars(field).filter(bool), min_size=1, max_size=n))
        r = [[[entries.get((i, j, k), field.zero()) for k in range(n)] for j in range(n)]
             for i in range(n)]
        if draw(st.booleans()):
            tensors_[0] = tuple(tuple(r[min(i, j)][max(i, j)] for j in range(n))
                                for i in range(n))
        else:
            tensors_[1] = tuple(tuple(r[i][j] if i < j else tuple(-c for c in r[j][i])
                                      if i > j else (field.zero(),) * n for j in range(n))
                                for i in range(n))
    if n:
        index = st.integers(0, n - 1)
        edits = draw(st.dictionaries(st.tuples(st.integers(0, 1), index, index, index),
                                     scalars(field), max_size=2))
        mirror = draw(st.booleans())
        for (t, i, j, k), c in edits.items():
            grid = [[list(line) for line in plane] for plane in tensors_[t]]
            if mirror:
                grid[j][i][k] = -c if t else c
            grid[i][j][k] = c
            tensors_[t] = tuple(tuple(tuple(line) for line in plane) for plane in grid)
    shift = draw(st.integers(-2, 2))
    dot, bracket = (relift(field, t, draw(st.integers(0, 2 ** n ** 3 - 1)), shift)
                    for t in tensors_)
    return PoissonAlgebra(field, n, dot, bracket)


def assert_same_first_violation(alg):
    """find_axiom_violation reports what evaluating every residual from
    scratch reports; returns the failing axiom, or None."""
    found, expected = find_axiom_violation(alg), ref_find_axiom_violation(alg)
    if expected is None:
        assert found is None
        return None
    assert (found.axiom, found.witness) == expected[:2]
    assert typed(found.residual) == typed(expected[2])
    assert_reduced(alg.field, [found.residual])
    assert typed(evaluate_axiom(alg, found.axiom, found.witness)) == typed(found.residual)
    return found.axiom


def basis_images(alg, linear_map):
    """Matrix of a linear map of the algebra: column j is the image of e_j."""
    cols = [linear_map(alg.basis_element(j)) for j in range(alg.dim)]
    return Matrix(alg.field, alg.dim, alg.dim, tuple(zip(*cols)))


def assert_operators_match_basis_images(alg, a):
    """The four operators of a, read off the tensors, against the matrices of
    basis images of the generic product: a y and [a, y] on the left, x b and
    [x, b] on the right."""
    f, n = alg.field, alg.dim
    for fast, tensor, left in ((alg.p_operator(a), alg.dot_tensor, True),
                               (alg.q_operator(a), alg.bracket_tensor, True),
                               (_right_multiplication(alg, 0, a), alg.dot_tensor, False),
                               (_right_multiplication(alg, 1, a), alg.bracket_tensor, False)):
        if left:
            reference = basis_images(alg, lambda y: ref_mul(f, n, tensor, a, y))
        else:
            reference = basis_images(alg, lambda x: ref_mul(f, n, tensor, x, a))
        assert (fast.nrows, fast.ncols) == (n, n)
        assert typed(fast.entries) == typed(reference.entries)
        assert_reduced(f, fast.entries)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_products_and_operators_on_raw_tensors_match_the_fieldspec_bodies(field, data):
    alg = data.draw(raw_algebras(field))
    x, y = data.draw(vectors(field, alg.dim)), data.draw(vectors(field, alg.dim))
    for tensor, product in ((alg.dot_tensor, alg.mul_dot), (alg.bracket_tensor, alg.mul_bracket)):
        fast = product(x, y)
        assert typed(fast) == typed(ref_mul(field, alg.dim, tensor, x, y))
        assert_reduced(field, [fast])
    assert_operators_match_basis_images(alg, x)


@pytest.mark.parametrize("alg", NEGATIVE_CONTROLS, ids=lambda a: a.name or "broken-comm")
def test_negative_controls_keep_each_operator_on_its_side(alg):
    # neither tensor need be commutative or alternating here, so a x and x a
    # differ and each operator must contract its own index
    f = alg.field
    coords = f.elements() if f.is_finite else (-1, 0, Fraction(1, 2), 2)
    for a in itertools.product(list(coords), repeat=alg.dim):
        assert_operators_match_basis_images(alg, tuple(map(f.coerce, a)))


def test_a_non_commutative_dot_has_different_sides():
    alg = _broken_commutativity()  # e0 . e1 = e1, e1 . e0 = 0
    e0 = alg.basis_element(0)
    assert alg.p_operator(e0).entries == ((0, 0), (0, 1))
    assert _right_multiplication(alg, 0, e0).entries == ((0, 0), (0, 0))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_raw_tensors_report_the_same_first_violation(field, data):
    assert_same_first_violation(data.draw(raw_algebras(field)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_valid_algebras_pass_in_other_representatives(field):
    algebras = valid_algebras(field)
    assert any(a.dim == 4 for a in algebras)
    for alg in algebras:
        everything = 2 ** alg.dim ** 3 - 1
        for shift in (-1, 1, 2):
            raw = PoissonAlgebra(field, alg.dim, relift(field, alg.dot_tensor, everything, shift),
                                 relift(field, alg.bracket_tensor, everything, shift))
            assert find_axiom_violation(raw) is None, alg.name
            assert ref_find_axiom_violation(raw) is None, alg.name


def test_every_dim3_gf2_candidate_gets_one_verdict_both_ways():
    # the enumerator's own candidates: every associative dot with every
    # bracket in its Leibniz kernel, where only Jacobi can fail
    gf2 = FieldSpec.prime(2)
    dot_positions, bracket_positions = _positions(3)
    verdicts = collections.Counter()
    for values in _associative_dots(gf2, 3):
        dot_map = {pos: val for pos, val in zip(dot_positions, values) if val}
        for bracket in _leibniz_brackets(gf2, 3, dot_map, bracket_positions):
            t = tensors_from_maps(gf2, 3, dot_map, dict(zip(bracket_positions, bracket)))
            alg = PoissonAlgebra(gf2, 3, t.dot, t.bracket)
            verdicts[assert_same_first_violation(alg) or "kept"] += 1
    assert verdicts == {"kept": 1408, "jacobi": 392}
