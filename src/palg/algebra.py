"""The dialgebra data model: two structure-constant tensors and everything
built directly on them.

An algebra carries a commutative "dot" tensor c with e_i . e_j = sum_k
c[i][j][k] e_k and an alternating bracket tensor d.  All five defining
identities (commutativity, associativity, alternating, Jacobi, Leibniz) are
multilinear, so checking them on basis triples is exhaustive; ``validate``
does exactly that and is the only sanctioned constructor.  Direct
construction of :class:`PoissonAlgebra` bypasses the axioms and exists for
negative-control corpora only.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from ._cache import _entry, canonical_tensors, memo
from .fields import FieldSpec, _Frozen
from .linalg import (
    Matrix,
    Subspace,
    _matrix,
    basis_vector,
    kernel,
    reduction_matrix,
    rref,  # unused here; kept because perfbench/test_tracer.py asserts this binding
    stack_rows,
    vec_is_zero,
    vec_sub,
    zero_vector,
)

AXIOMS = ("commutativity", "associativity", "alternating", "jacobi", "leibniz")

# Which products an operation reads, as indexes into ``_products``: both,
# the dot alone, the bracket alone.  The subspace-product cache keys start
# with the selector.  KINDS names each product in defect witnesses.
BOTH, DOT, BRACKET = (0, 1), (0,), (1,)
KINDS = ("dot", "bracket")


class AxiomViolation(Exception):
    """A failed defining identity, with the basis indices that witness it.

    The witness is the tuple of basis indices at which re-evaluating the
    named identity reproduces ``residual`` (two indices for the binary
    identities, three for the ternary ones).
    """

    def __init__(self, axiom: str, witness: tuple, residual: tuple):
        self.axiom = axiom
        self.witness = witness
        self.residual = residual
        super().__init__(f"{axiom} fails at basis indices {witness}: residual {residual}")


class BudgetExceededError(RuntimeError):
    """An enumeration would overrun the stated budget; names the budget."""

    def __init__(self, budget: str, detail: str):
        self.budget = budget
        self.detail = detail
        super().__init__(f"budget {budget} exceeded: {detail}")


class DialgebraTensors(_Frozen):
    """Raw structure constants prior to validation."""

    __slots__ = _fields = ("field", "dim", "dot", "bracket")

    def __init__(self, field: FieldSpec, dim: int, dot: tuple, bracket: tuple) -> None:
        for tensor in (dot, bracket):
            if len(tensor) != dim:
                raise ValueError("tensor has wrong first dimension")
            for plane in tensor:
                if len(plane) != dim:
                    raise ValueError("tensor has wrong second dimension")
                for line in plane:
                    if len(line) != dim:
                        raise ValueError("tensor has wrong third dimension")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "dot", dot)
        object.__setattr__(self, "bracket", bracket)


def tensors_from_maps(field: FieldSpec, dim: int, dot_map: dict, bracket_map: dict) -> DialgebraTensors:
    """Build dense tensors from sparse {(i, j, k): coefficient} maps.

    The dot map is symmetrised and the bracket map antisymmetrised, so only
    the canonical i <= j (dot) and i < j (bracket) entries need be given.
    """
    z = field.zero()
    dot = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    bracket = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in dot_map.items():
        c = field.coerce(c)
        dot[i][j][k] = field.add(dot[i][j][k], c)
        if i != j:
            dot[j][i][k] = field.add(dot[j][i][k], c)
    for (i, j, k), c in bracket_map.items():
        if i == j:
            raise ValueError("bracket entries must have i < j")
        c = field.coerce(c)
        bracket[i][j][k] = field.add(bracket[i][j][k], c)
        bracket[j][i][k] = field.sub(bracket[j][i][k], c)
    freeze = lambda t: tuple(tuple(tuple(line) for line in plane) for plane in t)
    return DialgebraTensors(field, dim, freeze(dot), freeze(bracket))


class PoissonAlgebra(_Frozen):
    """A finite-dimensional dialgebra in a fixed basis.

    Instances produced by :func:`validate` satisfy all five axioms.  The
    class itself performs no axiom checks so that deliberately broken
    tensors can be constructed for negative controls.  It keeps a
    ``__dict__``, where ``_cache`` stashes its reference to the cache entry.
    """

    _fields = ("field", "dim", "dot_tensor", "bracket_tensor", "name", "basis_labels", "meta")

    def __init__(self, field: FieldSpec, dim: int, dot_tensor: tuple, bracket_tensor: tuple,
                 name: str = "", basis_labels: tuple = (), meta: tuple = ()) -> None:
        vars(self).update(field=field, dim=dim, dot_tensor=dot_tensor,
                          bracket_tensor=bracket_tensor, name=name, basis_labels=basis_labels,
                          meta=meta)

    # -- element helpers -----------------------------------------------------

    def zero_element(self) -> tuple:
        return zero_vector(self.field, self.dim)

    def basis_element(self, i: int) -> tuple:
        return basis_vector(self.field, self.dim, i)

    def element(self, coords: Sequence) -> tuple:
        v = tuple(self.field.coerce(c) for c in coords)
        if len(v) != self.dim:
            raise ValueError("coordinate length mismatch")
        return v

    def labels(self) -> tuple:
        if self.basis_labels:
            return self.basis_labels
        return tuple(f"e{i}" for i in range(self.dim))

    # -- metadata -------------------------------------------------------------

    def meta_value(self, key: str):
        for k, v in self.meta:
            if k == key:
                return json.loads(v)
        return None

    def with_meta(self, mapping: dict) -> "PoissonAlgebra":
        merged = dict(self.meta)
        for k, v in mapping.items():
            merged[k] = json.dumps(v, sort_keys=True)
        return PoissonAlgebra(self.field, self.dim, self.dot_tensor, self.bracket_tensor,
                              self.name, self.basis_labels, tuple(sorted(merged.items())))

    def with_name(self, name: str) -> "PoissonAlgebra":
        return PoissonAlgebra(self.field, self.dim, self.dot_tensor, self.bracket_tensor, name,
                              self.basis_labels, self.meta)

    # -- multiplication --------------------------------------------------------

    def mul_dot(self, x: Sequence, y: Sequence) -> tuple:
        return self._mul(_products(self)[0], x, y)

    def mul_bracket(self, x: Sequence, y: Sequence) -> tuple:
        return self._mul(_products(self)[1], x, y)

    def _mul(self, rows: list, x: Sequence, y: Sequence) -> tuple:
        # rows is one tensor of _products.  Raw scalars: over GF(p) the
        # coordinates accumulate as Python ints and are reduced once at the
        # end, over Q they are Fractions from the start.  Indexing the rows
        # keeps the IndexError for a vector longer than the algebra.
        p = self.field.modulus
        out = [0 if p else self.field.zero()] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            ri = rows[i]
            for j, yj in enumerate(y):
                if yj:
                    coeff = xi * yj
                    for k, c in ri[j]:
                        out[k] += coeff * c
        if p:
            return tuple([a % p for a in out])
        return tuple(out)

    # -- left multiplication operators ------------------------------------------

    def p_operator(self, a: Sequence) -> Matrix:
        """Matrix of y -> a . y in the standard basis."""
        return _contraction(self, _products(self)[0], a, left=True)

    def q_operator(self, a: Sequence) -> Matrix:
        """Matrix of y -> [a, y] in the standard basis."""
        return _contraction(self, _products(self)[1], a, left=True)

    # -- ambient spaces ----------------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def tensors(self) -> DialgebraTensors:
        return DialgebraTensors(self.field, self.dim, self.dot_tensor, self.bracket_tensor)


def _products(alg: PoissonAlgebra) -> tuple:
    """``_sparse_products`` built on the first product and kept with the
    cache entry, so loops fetch it once."""
    entry = _entry(alg)
    if not hasattr(entry, "products"):
        entry.products = _sparse_products(alg)
    return entry.products


def _sparse_products(alg: PoissonAlgebra) -> tuple:
    """The dot and bracket tensors with each basis product e_i e_j, rows[i][j],
    listed as its nonzero (k, c) entries on the raw scalars."""
    return tuple([[[(k, c) for k, c in enumerate(line) if c] for line in plane]
                  for plane in t] for t in (alg.dot_tensor, alg.bracket_tensor))


def _contraction(alg: PoissonAlgebra, rows: list, a: Sequence, left: bool) -> Matrix:
    """Matrix of x -> a x (left) or x -> x a on one tensor of _products: entry
    (k, j) is sum_i a_i T[i][j][k] (or T[j][i][k]), reduced once per entry."""
    n, p = alg.dim, alg.field.modulus
    m = [[0 if p else alg.field.zero()] * n for _ in range(n)]
    for i, ai in enumerate(a):
        if ai:
            for j in range(n):
                for k, c in rows[i][j] if left else rows[j][i]:
                    m[k][j] += ai * c
    entries = tuple([tuple([x % p for x in row]) for row in m] if p else map(tuple, m))
    return _matrix(alg.field, n, n, entries)


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------


def validate(tensors: DialgebraTensors, name: str = "", basis_labels: tuple = (),
             meta: tuple = ()) -> PoissonAlgebra:
    """Check all five axioms on basis tuples; return the algebra or raise.

    Multilinearity makes basis verification exhaustive.  The first failing
    identity, in a fixed deterministic order, is reported with its witness
    indices and the nonzero residual vector (``find_axiom_violation``).
    """
    alg = PoissonAlgebra(tensors.field, tensors.dim, tensors.dot, tensors.bracket,
                         name=name, basis_labels=basis_labels, meta=meta)
    violation = find_axiom_violation(alg)
    if violation is not None:
        raise violation
    return alg


def find_axiom_violation(alg: PoissonAlgebra) -> AxiomViolation | None:
    """The first failing identity in ``_axiom_witnesses`` order, or None.

    Each residual is computed on the tensor's raw scalars from its sparse
    basis products and reduced once per coordinate, so no product is
    formed as a vector and any representative of a scalar reads the same.
    """
    t = _SparseProducts(alg)
    for axiom, witness, residual in _axiom_witnesses(alg.dim):
        res = residual(t, *witness)
        if any(res):
            return AxiomViolation(axiom, witness, res)
    return None


def evaluate_axiom(alg: PoissonAlgebra, axiom: str, witness: tuple) -> tuple:
    """Re-evaluate a named identity at basis indices; returns the residual."""
    if axiom not in _RESIDUALS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return _RESIDUALS[axiom](_SparseProducts(alg), *witness)


class _SparseProducts:
    """The basis products of ``_sparse_products``: dot[i][j] is e_i . e_j,
    and dot_col[k][m] is dot[m][k], the entries x . e_k takes from x_m
    (bracket likewise).  unit[i] is e_i in the same form."""

    __slots__ = ("n", "p", "zero", "unit", "dot", "bracket", "dot_col", "bracket_col")

    def __init__(self, alg: PoissonAlgebra) -> None:
        r = range(alg.dim)
        self.n, self.p, self.zero = alg.dim, alg.field.modulus, alg.field.zero()
        self.unit = [[(i, 1)] for i in r]
        self.dot, self.bracket = _sparse_products(alg)  # no cache entry, unlike _products
        self.dot_col = [[self.dot[m][k] for m in r] for k in r]
        self.bracket_col = [[self.bracket[m][k] for m in r] for k in r]

    def residual(self, *terms) -> tuple:
        """The sum over terms (sign, x, rows) of sign * sum_m x_m rows[m],
        accumulated from the field's zero and reduced ``% p`` once per
        coordinate over GF(p)."""
        acc = [self.zero] * self.n
        for sign, x, rows in terms:
            for m, xm in x:
                if sign < 0:
                    xm = -xm
                for k, c in rows[m]:
                    acc[k] += xm * c
        p = self.p
        return tuple([a % p for a in acc]) if p else tuple(acc)


# One residual per identity, evaluated on the sparse basis products t; zero
# iff it holds.  x . e_k reads the column tables, e_i . y the row dot[i].

def _commutativity(t: _SparseProducts, i: int, j: int) -> tuple:
    # e_i . e_j - e_j . e_i
    return t.residual((1, t.unit[i], t.dot_col[j]), (-1, t.unit[j], t.dot_col[i]))


def _associativity(t: _SparseProducts, i: int, j: int, k: int) -> tuple:
    # (e_i . e_j) . e_k - e_i . (e_j . e_k)
    return t.residual((1, t.dot[i][j], t.dot_col[k]), (-1, t.dot[j][k], t.dot[i]))


def _alternating(t: _SparseProducts, i: int, j: int) -> tuple:
    # zero on the diagonal and antisymmetric off it, which together give
    # [x, x] = 0 for every x in every characteristic
    if i == j:
        return t.residual((1, t.unit[i], t.bracket_col[i]))
    return t.residual((1, t.unit[i], t.bracket_col[j]), (1, t.unit[j], t.bracket_col[i]))


def _jacobi(t: _SparseProducts, i: int, j: int, k: int) -> tuple:
    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    br, col = t.bracket, t.bracket_col
    return t.residual((1, br[i][j], col[k]), (1, br[j][k], col[i]), (1, br[k][i], col[j]))


def _leibniz(t: _SparseProducts, i: int, j: int, k: int) -> tuple:
    # [e_i . e_j, e_k] - [e_i, e_k] . e_j - e_i . [e_j, e_k]
    return t.residual((1, t.dot[i][j], t.bracket_col[k]),
                      (-1, t.bracket[i][k], t.dot_col[j]), (-1, t.bracket[j][k], t.dot[i]))


_RESIDUALS = {"commutativity": _commutativity, "associativity": _associativity,
              "alternating": _alternating, "jacobi": _jacobi, "leibniz": _leibniz}


@lru_cache(maxsize=None)
def _axiom_witnesses(n: int) -> tuple:
    """Every (axiom, witness, residual) in the fixed order validation reports.

    Jacobi needs only distinct index triples because the alternating law is
    checked first.
    """
    r = range(n)
    pairs = [(i, j) for i in r for j in range(i + 1, n)]
    order = ([("commutativity", w) for w in pairs]
             + [("associativity", w) for w in itertools.product(r, repeat=3)]
             + [("alternating", (i, i)) for i in r]
             + [("alternating", w) for w in pairs]
             + [("jacobi", w) for w in itertools.combinations(r, 3)]
             + [("leibniz", w) for w in itertools.product(r, repeat=3)])
    return tuple((axiom, w, _RESIDUALS[axiom]) for axiom, w in order)


# ---------------------------------------------------------------------------
# subspace products and closure tests
# ---------------------------------------------------------------------------


def subspace_product_dot(alg: PoissonAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all pairwise dot products of basis vectors of u and v."""
    return _product(alg, DOT, u, v)


def subspace_product_bracket(alg: PoissonAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all pairwise brackets of basis vectors of u and v."""
    return _product(alg, BRACKET, u, v)


def subspace_square(alg: PoissonAlgebra, u: Subspace) -> Subspace:
    """u . u + [u, u]."""
    return _product(alg, BOTH, u, u)


def _product(alg: PoissonAlgebra, products: tuple, u: Subspace, v: Subspace) -> Subspace:
    """Span of the products of u's and v's basis rows under ``products``
    (BOTH, DOT or BRACKET); cached per tensor under ``(products, u, v)``,
    the span itself is _product_span.  ``memo`` written out, without a
    closure per call: the checks ask for products tens of thousands of
    times, mostly hits."""
    entry = _entry(alg)
    key = (products, u, v)
    result = entry.get(key)
    if result is None:
        result = entry[key] = _product_span(alg, products, u, v)
    return result


def _product_span(alg: PoissonAlgebra, products: tuple, u: Subspace, v: Subspace) -> Subspace:
    """The uncached body of ``_product``."""
    tensors = _products(alg)
    prods = [alg._mul(tensors[t], a, b) for t in products for a in u.rows() for b in v.rows()]
    return Subspace.span(alg.field, alg.dim, prods)


def subalgebra_defect(alg: PoissonAlgebra, u: Subspace):
    """A witness (x, y, kind, product) that u is not closed, or None; cached
    per tensor, the search itself is _subalgebra_defect."""
    return memo(alg, ("subalgebra_defect", u), lambda: _subalgebra_defect(alg, u))


def _subalgebra_defect(alg: PoissonAlgebra, u: Subspace):
    return _defect(alg, u, u.rows())


def _defect(alg: PoissonAlgebra, u: Subspace, others: Sequence):
    """The first (a, b, kind, product) with a in u's basis and b in others
    whose dot or bracket leaves u, or None."""
    kinds = tuple(zip(KINDS, _products(alg)))
    for a in u.rows():
        for b in others:
            for kind, rows in kinds:
                p = alg._mul(rows, a, b)
                if not u.contains_vector(p):
                    return (a, b, kind, p)
    return None


def is_subalgebra(alg: PoissonAlgebra, u: Subspace) -> bool:
    return subalgebra_defect(alg, u) is None


def ideal_defect(alg: PoissonAlgebra, u: Subspace):
    """A witness that u fails absorption; commutativity and antisymmetry make
    one-sided products sufficient.  Cached per tensor, the search itself is
    _ideal_defect."""
    return memo(alg, ("ideal_defect", u), lambda: _ideal_defect(alg, u))


def _ideal_defect(alg: PoissonAlgebra, u: Subspace):
    return _defect(alg, u, [alg.basis_element(i) for i in range(alg.dim)])


def is_ideal(alg: PoissonAlgebra, u: Subspace) -> bool:
    return ideal_defect(alg, u) is None


def is_assoc_subalgebra(alg: PoissonAlgebra, u: Subspace) -> bool:
    return all(u.contains_vector(alg.mul_dot(a, b)) for a in u.rows() for b in u.rows())


def is_lie_subalgebra(alg: PoissonAlgebra, u: Subspace) -> bool:
    return all(u.contains_vector(alg.mul_bracket(a, b)) for a in u.rows() for b in u.rows())


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def closure_subalgebra(alg: PoissonAlgebra, seed: Subspace) -> Subspace:
    """Least subalgebra containing the seed."""
    return _close(alg, seed)


def closure_ideal(alg: PoissonAlgebra, seed: Subspace) -> Subspace:
    """Least ideal containing the seed."""
    return _close(alg, seed, alg.full_space())


def _close(alg: PoissonAlgebra, seed: Subspace, against: Subspace | None = None) -> Subspace:
    """Least subspace containing the seed that absorbs both products with
    ``against``, or with itself when ``against`` is None.

    Each round multiplies only a basis of the newly added directions;
    bilinearity, commutativity and antisymmetry cover the rest.  The
    products reduced modulo the space span a complement of it in the next
    space, so their basis is the next frontier, one row per added
    dimension; a round that finds no product outside ends the closure.  A
    masked space reduces only the products its mask does not hold.
    Terminates because the dimension strictly increases.
    """
    space = seed
    frontier = seed.rows()
    dot, bracket = _products(alg)
    while frontier:
        others = (space if against is None else against).rows()
        products = (alg._mul(rows, a, b) for a in frontier for b in others for rows in (dot, bracket))
        if space.mask is not None:
            products = [p for p in products if not space.contains_vector(p)]
        outside = [p for p in map(space.reduce_vector, products) if any(p)]
        if not outside:
            break
        frontier = Subspace.span(alg.field, alg.dim, outside).rows()
        space = Subspace.span(alg.field, alg.dim, space.rows() + frontier)
    return space


# ---------------------------------------------------------------------------
# quotients, subalgebra restriction, direct sums
# ---------------------------------------------------------------------------


class QuotientData(NamedTuple):
    algebra: PoissonAlgebra
    projection: Matrix  # m x n, x -> coordinates of x + I
    lift: Matrix        # n x m, section of the projection
    ideal: Subspace


def quotient_maps(alg: PoissonAlgebra, ideal: Subspace) -> QuotientData:
    """Quotient algebra on the coset representatives e_j, j outside the
    ideal's pivot columns.  The projection is the rows of the ideal's
    reduction matrix at those columns: x reduced mod the ideal, read there."""
    if ideal_defect(alg, ideal) is not None:
        raise ValueError("quotient by a subspace that is not an ideal")
    f, n = alg.field, alg.dim
    pivots = set(ideal.pivots)
    reps = [j for j in range(n) if j not in pivots]
    m = len(reps)
    reduced = reduction_matrix(ideal).entries
    proj = _matrix(f, m, n, tuple(reduced[j] for j in reps))
    q_alg = _induced(alg, ("quotient", ideal), [alg.basis_element(j) for j in reps],
                     proj.mat_vec, f"{alg.name}/[dim {ideal.dim}]" if alg.name else "")
    z = f.zero()
    lift = Matrix(f, n, m, tuple(tuple(f.one() if i == reps[c] else z for c in range(m))
                                 for i in range(n)))
    return QuotientData(q_alg, proj, lift, ideal)


def quotient(alg: PoissonAlgebra, ideal: Subspace) -> tuple:
    """The quotient dialgebra and the natural projection (a homomorphism
    whose kernel is the ideal)."""
    data = quotient_maps(alg, ideal)
    return data.algebra, data.projection


def preimage_subspace(data: QuotientData, w: Subspace) -> Subspace:
    rows = list(data.ideal.rows()) + [data.lift.mat_vec(r) for r in w.rows()]
    return Subspace.span(data.ideal.field, data.ideal.ambient_dim, rows)


def subalgebra_algebra(alg: PoissonAlgebra, u: Subspace) -> tuple:
    """Restrict the structure to a subalgebra; returns (algebra, embedding).

    Coordinates in u come for free from the RREF basis: the coefficient of
    the r-th basis vector is the entry at its pivot column.
    """
    if subalgebra_defect(alg, u) is not None:
        raise ValueError("restriction to a subspace that is not a subalgebra")
    k, pivots, rows = u.dim, u.pivots, u.rows()
    sub = _induced(alg, ("restrict", u), rows, lambda v: tuple(v[p] for p in pivots),
                   f"{alg.name}|[dim {k}]" if alg.name else "")
    embed = Matrix(alg.field, alg.dim, k, tuple(tuple(rows[c][i] for c in range(k))
                                                for i in range(alg.dim)))
    return sub, embed


def _induced(alg: PoissonAlgebra, key: tuple, vectors: Sequence, coords: Callable,
             name: str) -> PoissonAlgebra:
    """The structure on the given vectors: entry [a][b] of each tensor is
    coords of the product of vectors a and b, so coords must read an
    ambient vector in the new basis.  The tensors are cached per parent
    tensor under ``key``, which must determine vectors and coords."""
    dot, bracket = memo(alg, key, lambda: canonical_tensors(alg.field, *(
        tuple(tuple(coords(alg._mul(rows, x, y)) for y in vectors) for x in vectors)
        for rows in _products(alg))))
    return PoissonAlgebra(alg.field, len(vectors), dot, bracket, name=name)


def direct_sum(a: PoissonAlgebra, b: PoissonAlgebra) -> PoissonAlgebra:
    """Block-diagonal tensors; cross products vanish and each summand embeds
    as an ideal."""
    if a.field != b.field:
        raise ValueError("field mismatch in direct sum")
    f = a.field
    n = a.dim + b.dim
    z = f.zero()

    def block(t1, t2):
        out = [[[z] * n for _ in range(n)] for _ in range(n)]
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    out[i][j][k] = t1[i][j][k]
        for i in range(b.dim):
            for j in range(b.dim):
                for k in range(b.dim):
                    out[a.dim + i][a.dim + j][a.dim + k] = t2[i][j][k]
        return tuple(tuple(tuple(line) for line in plane) for plane in out)

    name = f"{a.name}(+){b.name}" if a.name and b.name else ""
    return PoissonAlgebra(f, n, block(a.dot_tensor, b.dot_tensor),
                          block(a.bracket_tensor, b.bracket_tensor), name=name)


# ---------------------------------------------------------------------------
# annihilators and idealisers
# ---------------------------------------------------------------------------


def _right_multiplication(alg: PoissonAlgebra, t: int, b) -> Matrix:
    """Matrix of x -> x . b (t = 0) or x -> [x, b] (t = 1), t an index into
    ``_products``."""
    return _contraction(alg, _products(alg)[t], b, left=False)


def annihilator(alg: PoissonAlgebra, b: Subspace) -> Subspace:
    """Elements with vanishing dot and bracket against all of b; cached per
    tensor, the kernel itself is _annihilator.

    Commutativity and antisymmetry collapse the four defining conditions to
    the two linear systems x . b_j = 0 and [x, b_j] = 0.  The annihilator of
    an ideal is an ideal (Leibniz and Jacobi).
    """
    return memo(alg, ("annihilator", b), lambda: _annihilator(alg, b))


def _annihilator(alg: PoissonAlgebra, b: Subspace) -> Subspace:
    maps = [_right_multiplication(alg, t, row) for row in b.rows() for t in BOTH]
    return _preimage_condition(alg, alg.zero_space(), maps)


def centre(alg: PoissonAlgebra) -> Subspace:
    return annihilator(alg, alg.full_space())


def _preimage_condition(alg: PoissonAlgebra, u: Subspace, maps: Iterable[Matrix]) -> Subspace:
    """Largest subspace X with M x in u for every listed map M (M x = 0 when
    u is zero, with no reduction)."""
    f, n = alg.field, alg.dim
    blocks = list(maps)
    if not u.is_zero():
        reduce_mod = reduction_matrix(u)
        blocks = [reduce_mod.matmul(m) for m in blocks]
    if not blocks:
        return Subspace.full(f, n)
    return kernel(stack_rows(f, blocks, n))


def idealiser(alg: PoissonAlgebra, u: Subspace) -> Subspace:
    """{x : x . u + [x, u] in U for all u in U} (the combined condition)."""
    maps = [_right_multiplication(alg, 0, row).add(_right_multiplication(alg, 1, row))
            for row in u.rows()]
    return _preimage_condition(alg, u, maps)


def lie_idealiser(alg: PoissonAlgebra, u: Subspace) -> Subspace:
    """{x : [x, u] in U for all u in U}; cached per tensor, the kernel itself
    is _lie_idealiser."""
    return memo(alg, ("lie_idealiser", u), lambda: _lie_idealiser(alg, u))


def _lie_idealiser(alg: PoissonAlgebra, u: Subspace) -> Subspace:
    maps = [_right_multiplication(alg, 1, row) for row in u.rows()]
    return _preimage_condition(alg, u, maps)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def is_homomorphism(mapping: Matrix, dom: PoissonAlgebra, cod: PoissonAlgebra) -> bool:
    """True iff both multiplications are preserved on all basis pairs."""
    if mapping.ncols != dom.dim or mapping.nrows != cod.dim:
        raise ValueError("map shape does not match the algebras")
    f = cod.field
    images = [mapping.mat_vec(dom.basis_element(i)) for i in range(dom.dim)]
    for i in range(dom.dim):
        for j in range(dom.dim):
            lhs = mapping.mat_vec(dom.mul_dot(dom.basis_element(i), dom.basis_element(j)))
            if not vec_is_zero(vec_sub(f, lhs, cod.mul_dot(images[i], images[j]))):
                return False
            lhs = mapping.mat_vec(dom.mul_bracket(dom.basis_element(i), dom.basis_element(j)))
            if not vec_is_zero(vec_sub(f, lhs, cod.mul_bracket(images[i], images[j]))):
                return False
    return True


def kernel_of(mapping: Matrix, dom: PoissonAlgebra, cod: PoissonAlgebra) -> Subspace:
    """Kernel of a homomorphism, an ideal of the domain: for x in the kernel
    f(x . y) = f(x) . f(y) = 0 and f([x, y]) = [f(x), f(y)] = 0."""
    if not is_homomorphism(mapping, dom, cod):
        raise ValueError("kernel_of requires a homomorphism")
    return kernel(mapping)


# ---------------------------------------------------------------------------
# subideals
# ---------------------------------------------------------------------------


def is_subideal(alg: PoissonAlgebra, b: Subspace) -> bool:
    """Whether b sits in some chain b = B_0 with B_i an ideal of B_{i+1} up
    to the whole algebra.

    Equivalent criterion: the descending ideal-closure series (close b as an
    ideal inside the previous term, starting from the whole algebra)
    stabilises exactly at b.
    """
    if subalgebra_defect(alg, b) is not None:
        return False
    current = alg.full_space()
    while True:
        nxt = _ideal_closure_within(alg, b, current)
        if nxt == b:
            return True
        if nxt == current:
            return False
        current = nxt


def _ideal_closure_within(alg: PoissonAlgebra, seed: Subspace, ambient: Subspace) -> Subspace:
    """Least subspace containing seed absorbing products with ambient
    (ambient must be a subalgebra containing seed)."""
    return _close(alg, seed, ambient)
