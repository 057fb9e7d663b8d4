"""Exact dense linear algebra: matrices, canonical subspaces, operators.

Everything here is pure and immutable.  Vectors are plain tuples of scalars;
a :class:`Subspace` holds the rows of its reduced-row-echelon basis, and
there is one ``Subspace`` object per basis: every constructor returns the
object a table per (field, n) holds for that basis.  So two subspaces are
equal iff they are the same object, and equality and hashing are identity.
That canonical form is what makes series stabilisation and lattice
deduplication exact.

The ``Matrix`` arithmetic, ``rref`` and ``Subspace.reduce_vector`` work on
the raw scalars instead of calling the ``FieldSpec`` methods per term: over
GF(p) they compute with Python ints, over Q they apply the ``Fraction``
operators directly.  ``matmul`` and ``mat_vec`` sum a whole dot product, the
entrywise operations form each entry, before its one ``% p``; the
eliminations reduce each entry as they update it, because they test entries
for zero as they go.  The generic ``FieldSpec`` bodies are the tests' oracle.

This module alone builds, ranks and keeps the subspaces of F^n:
:func:`_store` enumerates F^n on first use (``lattice.enumerate_subspaces``
asks for it), and then one store per (field, n) holds every subspace of
F^n, finds one by the position of its basis in the enumeration and answers
most questions about its vectors without elimination (see :class:`_Store`).
It maps every vector of F^n to the bit of its projective point, so
:meth:`Subspace.contains_vector` on a subspace with a point mask is one int
test, and a set of points, as a mask, to the subspace they span, so
:meth:`Subspace.span` ORs its vectors' bits and looks the mask up: a span
depends only on the points its vectors lie on.  That map is a cache in
front of ``rref``, which stays the one elimination routine.  Vectors the
point table does not hold, those over Q, of a (field, n) never enumerated
or of the wrong length, take the elimination path as before.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
import weakref
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .fields import FieldSpec, Scalar, _Frozen

Vector = tuple

# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def zero_vector(field: FieldSpec, n: int) -> Vector:
    z = field.zero()
    return tuple(z for _ in range(n))


@lru_cache(maxsize=1024)
def basis_vector(field: FieldSpec, n: int, i: int) -> Vector:
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_sub(field: FieldSpec, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_scale(field: FieldSpec, c: Scalar, u: Vector) -> Vector:
    return tuple(field.mul(c, a) for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix(_Frozen):
    """A dense rows x cols grid of exact scalars over one field."""

    __slots__ = _fields = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, entries: tuple) -> None:
        if len(entries) != nrows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        _set_field(self, field)
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_entries(self, entries)

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
        return _matrix(self.field, self.ncols, self.nrows,
                       tuple(self.column(j) for j in range(self.ncols)))

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        return self._entrywise(operator.add, other)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._entrywise(operator.sub, other)

    def scale(self, c: Scalar) -> "Matrix":
        return self._entrywise(lambda a, _: c * a, self)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        p = self.field.modulus
        rows = [list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)]
        entries = tuple([tuple([x % p for x in row]) for row in rows] if p else map(tuple, rows))
        return _matrix(self.field, self.nrows, self.ncols, entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        p = f.modulus
        cols = list(zip(*other.entries)) if other.nrows else [()] * other.ncols
        if p:
            rows = tuple([tuple([sum(map(mul, row, col)) % p for col in cols])
                          for row in self.entries])
        else:
            zero = f.zero()
            rows = tuple([tuple([sum((a * b for a, b in zip(row, col) if a and b), zero)
                                 for col in cols])
                          for row in self.entries])
        return _matrix(f, self.nrows, other.ncols, rows)

    def mat_vec(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        p = self.field.modulus
        if p:
            return tuple([sum(map(mul, row, v)) % p for row in self.entries])
        zero = self.field.zero()
        return tuple([sum((a * b for a, b in zip(row, v) if a and b), zero)
                      for row in self.entries])

    def pow(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        if k <= 1:
            return self if k else Matrix.identity(self.field, self.nrows)
        half = self.pow(k >> 1)
        square = half.matmul(half)
        return square.matmul(self) if k & 1 else square

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.entries)


# The slot setters, for the constructors: Matrix.__setattr__ refuses every
# assignment.
_set_field, _set_nrows, _set_ncols, _set_entries = (
    Matrix.__dict__[name].__set__ for name in ("field", "nrows", "ncols", "entries"))


def _matrix(field: FieldSpec, nrows: int, ncols: int, entries: tuple) -> Matrix:
    """``Matrix(...)`` without the shape check, for entries built in this
    package as ``nrows`` rows of ``ncols`` scalars each."""
    m = object.__new__(Matrix)
    _set_field(m, field)
    _set_nrows(m, nrows)
    _set_ncols(m, ncols)
    _set_entries(m, entries)
    return m


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
    p = f.modulus
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
        prow = rows[pivot_row]
        lead = prow[col]
        if p:
            # In place, from col on: the pivot row is zero left of col, as
            # every row from pivot_row down is.
            if lead != 1:
                inv = pow(lead, -1, p)
                for j in range(col, ncols):
                    prow[j] = inv * prow[j] % p
            for r in range(nrows):
                row = rows[r]
                c = row[col]
                if r != pivot_row and c:
                    for j in range(col, ncols):
                        y = prow[j]
                        if y:
                            row[j] = (row[j] - c * y) % p
        else:
            if lead != 1:
                inv = Fraction(1) / lead  # a Fraction even when lead is an int
                prow = rows[pivot_row] = [inv * x for x in prow]
            for r in range(nrows):
                c = rows[r][col]
                if r != pivot_row and c != 0:
                    rows[r] = [x - c * y for x, y in zip(rows[r], prow)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    kept = tuple(tuple(r) for r in rows[:pivot_row])
    return _matrix(f, len(kept), ncols, kept)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace(_Frozen):
    """A subspace of F^n held as its field and its canonical RREF basis rows
    (no zero rows), with no ``Matrix``: ``basis`` builds one on each read.

    There is one object per subspace value: every constructor, the checked
    ``Subspace(n, basis)`` included, returns the object its (field, n) store
    or weak table holds for the basis (see :func:`_canonical`).  So equality
    and hashing are ``object``'s identity tests, at C speed, in place of the
    field comparison of ``_Frozen``, and a subspace held as a cache key
    costs no hashing of its basis.

    ``pivots``, the pivot column of each basis row, is derived from the
    rows when the subspace is built.  ``mask`` is the bitmask of the
    projective points the subspace contains, a point's bit being its
    position in :func:`enumerate_lines` order.  :func:`_store` sets it on
    every subspace of F^n it stores, so once F^n has been enumerated every
    subspace of F^n carries it, whichever way it was built; before that,
    and over Q, it is None.  Neither takes part in repr.

    ``Subspace(n, basis)`` re-checks that the basis is in RREF, each GF(p)
    entry an int in ``range(p)``, for bases from outside.  Code that has just
    built the RREF itself goes through the trusted :func:`_canonical`
    instead: :meth:`span`, which trusts what ``rref`` has produced, and
    :func:`enumerate_lines`.
    """

    __slots__ = ("ambient_dim", "field", "_rows", "pivots", "mask", "__weakref__")
    _fields = ("ambient_dim", "basis")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, ambient_dim: int, basis: Matrix) -> "Subspace":
        if basis.ncols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        s = _subspace(basis.field, ambient_dim, basis.entries, None)
        s.__post_init__()  # looked up per call, so a wrapper set on the class sees it
        return _canonical(basis.field, ambient_dim, basis.entries, s.pivots)

    def __post_init__(self) -> None:
        rows, p = self._rows, self.field.modulus
        if p and any(x.__class__ is not int or not 0 <= x < p for row in rows for x in row):
            raise ValueError(f"basis entry not an int in range({p})")
        pivots = []
        for i, row in enumerate(rows):
            piv = _first_nonzero(row)
            if piv is None:
                raise ValueError("zero row in a subspace basis")
            if pivots and piv <= pivots[-1]:
                raise ValueError("pivots not strictly increasing")
            if row[piv] != self.field.one():
                raise ValueError("pivot entry is not one")
            for r, other in enumerate(rows):
                if r != i and other[piv] != 0:
                    raise ValueError("nonzero entry above or below a pivot")
            pivots.append(piv)
        _set_pivots(self, tuple(pivots))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        return Subspace.span(field, ambient_dim, Matrix.from_rows(field, vectors, ambient_dim).entries)

    @staticmethod
    def span(field: FieldSpec, ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        """The span of vectors whose entries are already field elements.

        ``from_vectors`` without the coercion of every entry.  Neither
        re-checks the basis: ``rref`` has just built it, and the pivots are
        read off its rows.  For internal use only.

        Over an enumerated F^n the span is looked up in its store under the
        OR of its vectors' point bits, and ``rref`` runs only on the first
        span of each such mask.
        """
        rows = tuple(vectors)
        store = _STORES.get((field.modulus, ambient_dim))
        mask = None
        if store is not None:
            points = store.points
            try:
                mask = 0
                for v in rows:
                    mask |= points[v]
            except (KeyError, TypeError):  # not a vector of F^n: eliminate
                mask = None
            else:
                found = store.get(mask)
                if found is not None:
                    return found
        s = _canonical(field, ambient_dim, rref(_matrix(field, len(rows), ambient_dim, rows)).entries)
        if mask is not None:
            store[mask] = s
        return s

    @staticmethod
    @lru_cache(maxsize=1024)
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return _canonical(field, ambient_dim, (), ())

    @staticmethod
    @lru_cache(maxsize=1024)
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        rows = tuple(basis_vector(field, ambient_dim, i) for i in range(ambient_dim))
        return _canonical(field, ambient_dim, rows, tuple(range(ambient_dim)))

    # -- queries -------------------------------------------------------------

    @property
    def basis(self) -> Matrix:
        return _matrix(self.field, len(self._rows), self.ambient_dim, self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def rows(self) -> tuple:
        return self._rows

    def reduce_vector(self, v: Vector) -> Vector:
        """Eliminate the pivot coordinates of v; result is zero iff v lies here."""
        p = self.field.modulus
        n = self.ambient_dim
        v = list(v)
        for row, piv in zip(self._rows, self.pivots):
            c = v[piv]
            if c == 0:
                continue
            if p:
                for j in range(piv, n):
                    v[j] = (v[j] - c * row[j]) % p
            else:
                for j in range(piv, n):
                    v[j] -= c * row[j]
        return tuple(v)

    def contains_vector(self, v: Vector) -> bool:
        """Whether v lies here: the point bit of v inside the mask, when this
        subspace has one and the point table of its F^n holds v; else
        ``reduce_vector``."""
        mask = self.mask
        if mask is not None:
            store = _STORES.get((self.field.modulus, self.ambient_dim))
            if store is not None:
                bit = store.points.get(v) if v.__class__ is tuple else None
                if bit is not None:
                    return bit & mask == bit
        return vec_is_zero(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        # The mask test of _holds, inline when it is sure to apply: masks
        # from tables of another field or dimension may collide, so those
        # pairs go through the compatibility check.
        um, vm = self.mask, other.mask
        if (um is not None and vm is not None and self.ambient_dim == other.ambient_dim
                and self.field is other.field):
            return vm & um == vm
        _check_compatible(self, other)
        return _holds(self, other)

    def coordinates(self, v: Vector) -> Vector:
        """Coefficients of v in this basis; raises if v is not a member."""
        if not self.contains_vector(v):
            raise ValueError("vector outside the subspace")
        return tuple(v[p] for p in self.pivots)


_set_ambient_dim, _set_space_field, _set_rows, _set_pivots, _set_mask = (
    Subspace.__dict__[name].__set__ for name in ("ambient_dim", "field", "_rows", "pivots", "mask"))


def _subspace(field: FieldSpec, ambient_dim: int, rows: tuple, pivots: tuple | None) -> Subspace:
    """A new ``Subspace`` object without the RREF re-check and outside the
    tables: only :func:`_canonical`, which enters it in a table at once,
    ``Subspace(n, basis)``, which checks it first, and :func:`_store`, which
    publishes what it builds as the store of F^n, call it."""
    s = object.__new__(Subspace)
    _set_ambient_dim(s, ambient_dim)
    _set_space_field(s, field)
    _set_rows(s, rows)
    _set_pivots(s, pivots)
    _set_mask(s, None)
    return s


# ---------------------------------------------------------------------------
# the subspace tables: one object per subspace
# ---------------------------------------------------------------------------

# The subspaces of F^n by basis rows, one WeakValueDictionary per (modulus,
# n), the modulus standing for the field (None for Q); and the store of each
# enumerated F^n, which holds every subspace of F^n, so that its weak table
# gains nothing while the store lives.  Tables are never emptied, so an
# object stays the one object of its value as long as it lives.  Entries are
# added, and stores published, under the lock: over Q a lookup runs
# ``Fraction``'s Python ``__hash__`` and ``__eq__``, so two threads could
# otherwise both miss and enter two objects.
_TABLES: dict = {}
_STORES: dict = {}
_LOCK = threading.Lock()
_NONE: dict = {}  # the table of a (field, n) nothing has been built in


class _Store(dict):
    """The enumeration of one F^n, built by :func:`_store`: ``subspaces``
    in its order, their ``masks`` and ``dims``; ``points``, every vector of
    F^n -> the bit of its projective point (the zero vector 0); ``lines``,
    the normalised vector of each point in bit order; ``cells``, each pivot
    tuple -> the position of its Schubert cell and the (row, column, weight)
    of its free entries.  As a dict, a point mask -> the subspace those
    points span: every subspace under its own mask (so a meet of masked
    subspaces is a lookup), and other masks as ``Subspace.span`` meets them;
    threads that miss a span at once all store its one object."""

    __slots__ = ("subspaces", "masks", "dims", "points", "lines", "cells")

    def position(self, rows: tuple, pivots: tuple) -> int:
        """The position of the RREF basis ``rows``, of reduced scalars: its
        cell's start plus its free entries, row by row, as base-q digits,
        the order the enumeration runs them in."""
        position, free = self.cells[pivots or tuple([row.index(1) for row in rows])]
        for r, j, weight in free:
            position += rows[r][j] * weight
        return position


def _canonical(field: FieldSpec, n: int, rows: tuple, pivots: tuple | None = None) -> Subspace:
    """The one subspace of F^n with these rows, just built in RREF by the
    caller (with these pivots, when given): the stored one at its position,
    or the one in the weak table; else built without the RREF re-check and
    entered there, unless another thread entered or published it first."""
    key = (field.modulus, n)
    store = _STORES.get(key)
    if store is None:
        found = _TABLES.get(key, _NONE).get(rows)
        if found is not None:
            return found
        s = _subspace(field, n, rows, pivots or tuple(map(_first_nonzero, rows)))
        with _LOCK:
            store = _STORES.get(key)
            if store is None:
                spaces = _TABLES.get(key)
                if spaces is None:
                    spaces = _TABLES[key] = weakref.WeakValueDictionary()
                return spaces.setdefault(rows, s)
    return store.subspaces[store.position(rows, pivots)]


def _store(field: FieldSpec, n: int) -> _Store:
    """The store of F^n, enumerating F^n on first use; or the store another
    thread published first.

    The subspaces run by pivot-column pattern (one Schubert cell per
    pattern); within a cell the free entries run lexicographically, so the
    order is deterministic and each basis is born in reduced echelon form.
    Each is built raw, outside the tables, with its point mask, built from
    one built earlier: dropping the first basis row r leaves the basis of a
    subspace S' of one dimension less, and the points r adds are r + v for v
    in S', already normalised because v vanishes up to r's pivot.  When the
    store is published, a subspace live in the weak table takes its copy's
    place and mask, to stay the one object of its value.
    """
    key = (field.modulus, n)
    store = _STORES.get(key)
    if store is not None:
        return store
    q = field.order
    elems = list(field.elements())
    # A vector is packed into an int, one field of `width` bits per
    # coordinate: the coordinatewise sum of two reduced vectors never
    # carries, and adding `lift` sets a field's top bit (`tops`) exactly
    # where the coordinate sum is >= q, which `reduce` then subtracts.
    top = (2 * q - 2).bit_length()
    width = top + 1
    lift = sum(((1 << top) - q) << (j * width) for j in range(n))
    tops = sum(1 << (top + j * width) for j in range(n))

    def pack(v) -> int:
        return sum(x << (j * width) for j, x in enumerate(v))

    def reduce(u: int) -> int:
        return u - (((u + lift) & tops) >> top) * q

    lines = tuple(_line_rows(field, n))
    point_bit = {pack(v): 1 << i for i, v in enumerate(lines)}
    s = _subspace(field, n, (), ())
    _set_mask(s, 0)
    subspaces, cells = [s], {(): (0, ())}
    # basis -> (mask, packed elements) for the subspaces of the previous
    # dimension; only those with no pivot in column 0 are kept, because only
    # they are what remains of a later basis without its first row
    spans = {(): (0, [0])}
    for k in range(1, n + 1):
        below, spans = spans, {}
        for pivots in itertools.combinations(range(n), k):
            # A basis with these pivots picks each row independently, so the
            # bases are the product of the row choices; it runs the free
            # entries in the same lexicographic order, and bases share rows.
            free = [[j for j in range(p + 1, n) if j not in pivots] for p in pivots]
            choices = [_rows_with(field, n, p, cols) for p, cols in zip(pivots, free)]
            # the cell's first position and its free entries as base-q digits
            places = [(r, j) for r, cols in enumerate(free) for j in cols]
            cells[pivots] = (len(subspaces), tuple(
                (r, j, q ** d) for d, (r, j) in enumerate(reversed(places))))
            for first in choices[0]:
                packed = pack(first)
                multiples = [pack([c * x % q for x in first]) for c in elems] if pivots[0] else None
                for rest in itertools.product(*choices[1:]):
                    mask, elements = below[rest]
                    for v in elements:
                        u = packed + v  # reduce(u), inlined: this is the hot loop
                        mask |= point_bit[u - (((u + lift) & tops) >> top) * q]
                    basis = (first,) + rest
                    if multiples:
                        spans[basis] = (mask, [reduce(m + v) for m in multiples for v in elements])
                    s = _subspace(field, n, basis, pivots)
                    _set_mask(s, mask)
                    subspaces.append(s)

    store = _Store(zip([s.mask for s in subspaces], subspaces))
    store.masks = tuple(store)  # one subspace per mask, so its keys are the masks in order
    store.dims = tuple(len(s._rows) for s in subspaces)
    store.cells = cells
    store.lines = lines
    store.points = {tuple([c * x % q for x in v]): 1 << i
                    for i, v in enumerate(lines) for c in range(1, q)}
    store.points[(0,) * n] = 0
    with _LOCK:
        if key in _STORES:
            return _STORES[key]
        for s in _TABLES.get(key, _NONE).values():
            i = store.position(s._rows, s.pivots)
            if s._rows == subspaces[i]._rows:  # not a span of too-long rows
                _set_mask(s, store.masks[i])
                store[s.mask] = subspaces[i] = s
        store.subspaces = tuple(subspaces)
        _STORES[key] = store
    return store


def _rows_with(field: FieldSpec, n: int, pivot: int, free) -> list:
    """The rows of F^n with a one at ``pivot`` and any entries at ``free``,
    zero elsewhere, in lexicographic order of those entries."""
    out = []
    for values in itertools.product(field.elements(), repeat=len(free)):
        row = [field.zero()] * n
        row[pivot] = field.one()
        for j, x in zip(free, values):
            row[j] = x
        out.append(tuple(row))
    return out


def _line_rows(field: FieldSpec, n: int):
    """The normalised vector of each projective point of F^n, its first
    nonzero coordinate one: by that coordinate, then lexicographically, the
    order of the point bits."""
    for lead in range(n):
        yield from _rows_with(field, n, lead, range(lead + 1, n))


def enumerate_lines(field: FieldSpec, n: int):
    """The one-dimensional subspaces of F^n, in point-bit order."""
    for row in _line_rows(field, n):
        yield _canonical(field, n, (row,))


def _forget_enumerations() -> None:
    """Drop every store, handing its subspaces back to the weak table of its
    F^n, so those nothing else holds can be freed; the live ones keep their
    masks, which depend only on (field, n) and the subspace.  Until F^n is
    enumerated again, its spans and memberships take the elimination path."""
    with _LOCK:
        for key, store in _STORES.items():
            spaces = _TABLES.setdefault(key, weakref.WeakValueDictionary())
            spaces.update((s._rows, s) for s in store.subspaces)
        _STORES.clear()


def _first_nonzero(row: Sequence) -> int | None:
    for j, x in enumerate(row):
        if x != 0:
            return j
    return None


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """u + v; the larger one itself when one holds the other."""
    _check_compatible(u, v)
    if _holds(u, v):
        return u
    if _holds(v, u):
        return v
    return Subspace.span(u.field, u.ambient_dim, u.rows() + v.rows())


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u meet v; the smaller one itself when one holds the other.  Else,
    when both carry masks, the enumerated subspace whose mask is the meet of
    theirs (from the store), a point lying in both exactly when it lies
    in their meet; else by Zassenhaus: reduce [U|U; V|0] and read the
    intersection off the right block."""
    _check_compatible(u, v)
    um, vm = u.mask, v.mask
    if um is None or vm is None:
        if _holds(u, v):
            return v
        if _holds(v, u):
            return u
    else:
        m = um & vm
        if m == vm:
            return v
        if m == um:
            return u
        store = _STORES.get((u.field.modulus, u.ambient_dim))
        if store is not None:
            return store[m]
    f, n = u.field, u.ambient_dim
    zeros = (f.zero(),) * n
    rows = [r + r for r in u._rows] + [r + zeros for r in v._rows]
    reduced = rref(_matrix(f, len(rows), 2 * n, tuple(rows)))
    inter_rows = [row[n:] for row in reduced.entries if vec_is_zero(row[:n])]
    return Subspace.span(f, n, inter_rows)


def _holds(u: Subspace, v: Subspace) -> bool:
    """Whether u contains v, for subspaces already checked compatible."""
    # Over a finite field a subspace is the union of its points, so
    # containment of the point sets is containment of the subspaces.
    um, vm = u.mask, v.mask
    if um is not None and vm is not None:
        return vm & um == vm
    # Every vector of u leads at one of its pivots, so a row of v leading
    # elsewhere already lies outside.
    up, vp = u.pivots, v.pivots
    if len(up) < len(vp) or not set(up).issuperset(vp):
        return False
    return all(u.contains_vector(r) for r in v.rows())


def _check_compatible(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if u.field is not v.field and u.field != v.field:
        raise ValueError("field mismatch")


# ---------------------------------------------------------------------------
# kernels and images
# ---------------------------------------------------------------------------


def kernel(m: Matrix) -> Subspace:
    """The null space {v : m v = 0} as a subspace of F^ncols: the span of
    :func:`_null_vectors`, so over an enumerated F^ncols only m itself is
    eliminated."""
    return Subspace.span(m.field, m.ncols, _null_vectors(m))


def _null_vectors(m: Matrix) -> list:
    """A basis of the null space of m, not in RREF: for each free column of
    m's RREF, the null vector with 1 there and 0 at the other free columns."""
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
    return vectors


def image(m: Matrix) -> Subspace:
    """The column space of m as a subspace of F^nrows."""
    return Subspace.span(m.field, m.nrows, m.transpose().entries)


def subspace_image(m: Matrix, u: Subspace) -> Subspace:
    """The image m(u) as a subspace of F^nrows: a subspace pushed through a
    quotient projection or a subalgebra embedding."""
    return Subspace.span(m.field, m.nrows, [m.mat_vec(r) for r in u.rows()])


def reduction_matrix(u: Subspace) -> Matrix:
    """The matrix of ``u.reduce_vector``, v -> v reduced mod u, whose kernel
    is u: column i is e_i, less the basis row that leads at i when i is a
    pivot (the rows are zero at each other's pivots)."""
    f, n = u.field, u.ambient_dim
    cols = [basis_vector(f, n, i) for i in range(n)]
    for row, piv in zip(u.rows(), u.pivots):
        cols[piv] = vec_sub(f, cols[piv], row)
    return _matrix(f, n, n, tuple(zip(*cols)))


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
    sub = _matrix(f, n - 1, n - 1, tuple(row[1:] for row in m.entries[1:]))
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
            scale = scale * d // math.gcd(scale, d)
        ints = [int(Fraction(c) * scale) for c in coeffs]
        lead, trail = abs(ints[0]), abs(ints[-1])
        for p in _divisors(trail):
            for q in _divisors(lead):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
    return sorted(candidates)


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

