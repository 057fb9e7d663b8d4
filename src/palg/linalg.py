"""Exact dense linear algebra: matrices, canonical subspaces, operators.

Everything here is pure and immutable.  Vectors are plain tuples of scalars;
a :class:`Subspace` is identified with its reduced-row-echelon basis, so two
subspaces are equal iff their basis matrices are identical.  That canonical
form is what makes series stabilisation and lattice deduplication exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .fields import FieldSpec, Scalar

Vector = tuple

# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def zero_vector(field: FieldSpec, n: int) -> Vector:
    z = field.zero()
    return tuple(z for _ in range(n))


def basis_vector(field: FieldSpec, n: int, i: int) -> Vector:
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_add(field: FieldSpec, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field: FieldSpec, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_scale(field: FieldSpec, c: Scalar, u: Vector) -> Vector:
    return tuple(field.mul(c, a) for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """A dense rows x cols grid of exact scalars over one field."""

    field: FieldSpec
    nrows: int
    ncols: int
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != self.nrows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence], ncols: int | None = None) -> "Matrix":
        rows = [tuple(field.coerce(x) for x in row) for row in rows]
        if ncols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = len(rows[0])
        return Matrix(field, len(rows), ncols, tuple(rows))

    @staticmethod
    def zero(field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, nrows, ncols, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows,
                      tuple(self.column(j) for j in range(self.ncols)))

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(tuple(f.mul(c, a) for a in row) for row in self.entries))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        cols = [other.column(j) for j in range(other.ncols)]
        rows = []
        for row in self.entries:
            out = []
            for col in cols:
                acc = f.zero()
                for a, b in zip(row, col):
                    if a != 0 and b != 0:
                        acc = f.add(acc, f.mul(a, b))
                out.append(acc)
            rows.append(tuple(out))
        return Matrix(f, self.nrows, other.ncols, tuple(rows))

    def mat_vec(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        f = self.field
        out = []
        for row in self.entries:
            acc = f.zero()
            for a, b in zip(row, v):
                if a != 0 and b != 0:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def pow(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while k > 0:
            if k & 1:
                result = result.matmul(base)
            base = base.matmul(base)
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.entries)


def stack_rows(field: FieldSpec, matrices: Iterable[Matrix], ncols: int) -> Matrix:
    rows: list = []
    for m in matrices:
        rows.extend(m.entries)
    return Matrix(field, len(rows), ncols, tuple(rows))


# ---------------------------------------------------------------------------
# reduced row echelon form
# ---------------------------------------------------------------------------


def rref(m: Matrix) -> Matrix:
    """The unique reduced row-echelon form with zero rows dropped."""
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
    kept = tuple(tuple(r) for r in rows[:pivot_row])
    return Matrix(f, len(kept), ncols, kept)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n held as a canonical RREF basis (no zero rows)."""

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.ncols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        last = -1
        for i in range(self.basis.nrows):
            row = self.basis.row(i)
            piv = _first_nonzero(row)
            if piv is None:
                raise ValueError("zero row in a subspace basis")
            if piv <= last:
                raise ValueError("pivots not strictly increasing")
            if row[piv] != self.basis.field.one():
                raise ValueError("pivot entry is not one")
            for r in range(self.basis.nrows):
                if r != i and self.basis.entries[r][piv] != 0:
                    raise ValueError("nonzero entry above or below a pivot")
            last = piv

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        m = Matrix.from_rows(field, vectors, ncols=ambient_dim)
        return Subspace(ambient_dim, rref(m))

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(field, 0, ambient_dim, ()))

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim))

    # -- queries -------------------------------------------------------------

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def pivots(self) -> tuple:
        return tuple(_first_nonzero(row) for row in self.basis.entries)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def rows(self) -> tuple:
        return self.basis.entries

    def reduce_vector(self, v: Vector) -> Vector:
        """Eliminate the pivot coordinates of v; result is zero iff v lies here."""
        f = self.field
        v = list(v)
        for row, piv in zip(self.basis.entries, self.pivots):
            c = v[piv]
            if c != 0:
                for j in range(piv, self.ambient_dim):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return tuple(v)

    def contains_vector(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows())

    def coordinates(self, v: Vector) -> Vector:
        """Coefficients of v in this basis; raises if v is not a member."""
        if not self.contains_vector(v):
            raise ValueError("vector outside the subspace")
        return tuple(v[p] for p in self.pivots)


def _first_nonzero(row: Sequence) -> int | None:
    for j, x in enumerate(row):
        if x != 0:
            return j
    return None


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_compatible(u, v)
    stacked = stack_rows(u.field, [u.basis, v.basis], u.ambient_dim)
    return Subspace(u.ambient_dim, rref(stacked))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: reduce [U|U; V|0] and read the intersection off the right block."""
    _check_compatible(u, v)
    f, n = u.field, u.ambient_dim
    z = f.zero()
    rows = [tuple(r) + tuple(r) for r in u.rows()]
    rows += [tuple(r) + tuple(z for _ in range(n)) for r in v.rows()]
    if not rows:
        return Subspace.zero(f, n)
    reduced = rref(Matrix(f, len(rows), 2 * n, tuple(rows)))
    inter_rows = [row[n:] for row in reduced.entries if vec_is_zero(row[:n])]
    return Subspace.from_vectors(f, n, inter_rows)


def quotient_basis(u: Subspace, v: Subspace) -> tuple:
    """Vectors from u's basis completing a basis of v <= u to one of u."""
    _check_compatible(u, v)
    if not u.contains(v):
        raise ValueError("second subspace is not contained in the first")
    reps: list = []
    span = v
    for row in u.rows():
        if not span.contains_vector(row):
            reps.append(row)
            span = subspace_sum(span, Subspace.from_vectors(u.field, u.ambient_dim, [row]))
    return tuple(reps)


def _check_compatible(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if u.field != v.field:
        raise ValueError("field mismatch")


# ---------------------------------------------------------------------------
# kernels and images
# ---------------------------------------------------------------------------


def kernel(m: Matrix) -> Subspace:
    """The null space {v : m v = 0} as a subspace of F^ncols."""
    f = m.field
    reduced = rref(m)
    pivots = [_first_nonzero(row) for row in reduced.entries]
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.ncols) if j not in pivot_set]
    vectors = []
    z, o = f.zero(), f.one()
    for free in free_cols:
        v = [z] * m.ncols
        v[free] = o
        for row, piv in zip(reduced.entries, pivots):
            v[piv] = f.neg(row[free])
        vectors.append(tuple(v))
    return Subspace.from_vectors(f, m.ncols, vectors)


def image(m: Matrix) -> Subspace:
    """The column space of m as a subspace of F^nrows."""
    return Subspace(m.nrows, rref(m.transpose()))


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, highest degree first)
# ---------------------------------------------------------------------------


def poly_mul(field: FieldSpec, a: Sequence, b: Sequence) -> tuple:
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return tuple(out)


def poly_eval_matrix(poly: Sequence, m: Matrix) -> Matrix:
    """Horner evaluation of a polynomial at a square matrix."""
    f = m.field
    n = m.nrows
    acc = Matrix.zero(f, n, n)
    ident = Matrix.identity(f, n)
    for c in poly:
        acc = acc.matmul(m).add(ident.scale(c))
    return acc


def poly_divide_linear(field: FieldSpec, poly: Sequence, r: Scalar) -> tuple:
    """Synthetic division by (t - r); returns (quotient, remainder)."""
    quotient = []
    acc = field.zero()
    for c in poly:
        acc = field.add(field.mul(acc, r), c)
        quotient.append(acc)
    return tuple(quotient[:-1]), quotient[-1]


def char_poly(m: Matrix) -> tuple:
    """Monic characteristic polynomial via the division-free Berkowitz scheme.

    Returns coefficients highest degree first, so the zero 2x2 matrix gives
    (1, 0, 0).  Works over GF(p) even when p <= n because no division by
    ring elements ever happens.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    f = m.field
    n = m.nrows
    if n == 0:
        return (f.one(),)
    return tuple(_berkowitz_vector(m))


def _berkowitz_vector(m: Matrix) -> list:
    f = m.field
    n = m.nrows
    if n == 1:
        return [f.one(), f.neg(m.entries[0][0])]
    a = m.entries[0][0]
    row_r = m.entries[0][1:]
    col_c = tuple(m.entries[i][0] for i in range(1, n))
    sub = Matrix(f, n - 1, n - 1, tuple(row[1:] for row in m.entries[1:]))
    # diagonal values 1, -a, -R C, -R A C, -R A^2 C, ...
    diags = [f.one(), f.neg(a)]
    vec = col_c
    for _ in range(n - 1):
        acc = f.zero()
        for x, y in zip(row_r, vec):
            if x != 0 and y != 0:
                acc = f.add(acc, f.mul(x, y))
        diags.append(f.neg(acc))
        vec = sub.mat_vec(vec)
    prev = _berkowitz_vector(sub)
    out = []
    for i in range(n + 1):
        acc = f.zero()
        for j in range(len(prev)):
            d = i - j
            if 0 <= d < len(diags) and prev[j] != 0 and diags[d] != 0:
                acc = f.add(acc, f.mul(diags[d], prev[j]))
        out.append(acc)
    return out


def roots_in_field(field: FieldSpec, poly: Sequence) -> tuple:
    """All roots of a monic polynomial lying in the field, with multiplicities.

    GF(p) roots come from exhaustive trial; rational roots from the rational
    root theorem after clearing denominators.  Returned sorted, as pairs
    (root, multiplicity).
    """
    poly = tuple(poly)
    if not poly or poly[0] != field.one():
        raise ValueError("expected a monic polynomial")
    if field.is_finite:
        candidates = list(field.elements())
    else:
        candidates = _rational_candidates(poly)
    found = []
    for r in candidates:
        mult = 0
        current = poly
        while len(current) > 1:
            quotient, rem = poly_divide_linear(field, current, r)
            if rem != 0:
                break
            mult += 1
            current = quotient
        if mult:
            found.append((r, mult))
    found.sort(key=lambda pair: pair[0])
    return tuple(found)


def _rational_candidates(poly: Sequence) -> list:
    # Strip powers of t so the trailing coefficient is nonzero, then clear
    # denominators and apply the rational root theorem.
    coeffs = list(poly)
    has_zero_root = False
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        has_zero_root = True
    candidates = {Fraction(0)} if has_zero_root else set()
    if len(coeffs) > 1:
        denoms = [Fraction(c).denominator for c in coeffs]
        scale = 1
        for d in denoms:
            scale = scale * d // _gcd(scale, d)
        ints = [int(Fraction(c) * scale) for c in coeffs]
        lead, trail = abs(ints[0]), abs(ints[-1])
        for p in _divisors(trail):
            for q in _divisors(lead):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
    return sorted(candidates)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Fitting components
# ---------------------------------------------------------------------------


def fitting_null(m: Matrix) -> Subspace:
    """Kernel of m^n (n = size): the generalized null component."""
    if not m.is_square:
        raise ValueError("Fitting decomposition of a non-square matrix")
    if m.nrows == 0:
        return Subspace.zero(m.field, 0)
    return kernel(m.pow(m.nrows))


def fitting_one(m: Matrix) -> Subspace:
    """Image of m^n (n = size): the complementary invertible component."""
    if not m.is_square:
        raise ValueError("Fitting decomposition of a non-square matrix")
    if m.nrows == 0:
        return Subspace.zero(m.field, 0)
    return image(m.pow(m.nrows))
