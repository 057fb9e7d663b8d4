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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    basis_vector,
    kernel,
    rref,  # unused here; kept because perfbench/test_tracer.py asserts this binding
    stack_rows,
    subspace_sum,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vector,
)

AXIOMS = ("commutativity", "associativity", "alternating", "jacobi", "leibniz")


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


@dataclass(frozen=True)
class DialgebraTensors:
    """Raw structure constants prior to validation."""

    field: FieldSpec
    dim: int
    dot: tuple
    bracket: tuple

    def __post_init__(self) -> None:
        for tensor in (self.dot, self.bracket):
            if len(tensor) != self.dim:
                raise ValueError("tensor has wrong first dimension")
            for plane in tensor:
                if len(plane) != self.dim:
                    raise ValueError("tensor has wrong second dimension")
                for line in plane:
                    if len(line) != self.dim:
                        raise ValueError("tensor has wrong third dimension")


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


@dataclass(frozen=True)
class PoissonAlgebra:
    """A finite-dimensional dialgebra in a fixed basis.

    Instances produced by :func:`validate` satisfy all five axioms.  The
    class itself performs no axiom checks so that deliberately broken
    tensors can be constructed for negative controls.
    """

    field: FieldSpec
    dim: int
    dot_tensor: tuple
    bracket_tensor: tuple
    name: str = ""
    basis_labels: tuple = ()
    meta: tuple = ()

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
        return replace(self, meta=tuple(sorted(merged.items())))

    def with_name(self, name: str) -> "PoissonAlgebra":
        return replace(self, name=name)

    # -- multiplication --------------------------------------------------------

    def mul_dot(self, x: Sequence, y: Sequence) -> tuple:
        return self._mul(self.dot_tensor, x, y)

    def mul_bracket(self, x: Sequence, y: Sequence) -> tuple:
        return self._mul(self.bracket_tensor, x, y)

    def _mul(self, tensor: tuple, x: Sequence, y: Sequence) -> tuple:
        f = self.field
        out = [f.zero()] * self.dim
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

    # -- left multiplication operators ------------------------------------------

    def p_operator(self, a: Sequence) -> Matrix:
        """Matrix of y -> a . y in the standard basis."""
        cols = [self.mul_dot(a, self.basis_element(j)) for j in range(self.dim)]
        return _matrix_from_columns(self.field, self.dim, cols)

    def q_operator(self, a: Sequence) -> Matrix:
        """Matrix of y -> [a, y] in the standard basis."""
        cols = [self.mul_bracket(a, self.basis_element(j)) for j in range(self.dim)]
        return _matrix_from_columns(self.field, self.dim, cols)

    # -- ambient spaces ----------------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def tensors(self) -> DialgebraTensors:
        return DialgebraTensors(self.field, self.dim, self.dot_tensor, self.bracket_tensor)


def _matrix_from_columns(field: FieldSpec, n: int, cols: Sequence) -> Matrix:
    return Matrix(field, n, n, tuple(tuple(col[i] for col in cols) for i in range(n)))


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------


def validate(tensors: DialgebraTensors, name: str = "", basis_labels: tuple = (),
             meta: tuple = ()) -> PoissonAlgebra:
    """Check all five axioms on basis tuples; return the algebra or raise.

    Multilinearity makes basis verification exhaustive.  The first failing
    identity, in a fixed deterministic order, is reported with its witness
    indices and the nonzero residual vector.
    """
    alg = PoissonAlgebra(tensors.field, tensors.dim, tensors.dot, tensors.bracket,
                         name=name, basis_labels=basis_labels, meta=meta)
    violation = find_axiom_violation(alg)
    if violation is not None:
        raise violation
    return alg


def find_axiom_violation(alg: PoissonAlgebra) -> AxiomViolation | None:
    e = [alg.basis_element(i) for i in range(alg.dim)]
    for axiom, witness, residual in _axiom_witnesses(alg.dim):
        res = residual(alg, e, *witness)
        if not vec_is_zero(res):
            return AxiomViolation(axiom, witness, res)
    return None


def evaluate_axiom(alg: PoissonAlgebra, axiom: str, witness: tuple) -> tuple:
    """Re-evaluate a named identity at basis indices; returns the residual."""
    if axiom not in _RESIDUALS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return _RESIDUALS[axiom](alg, [alg.basis_element(i) for i in range(alg.dim)], *witness)


# One residual per identity, evaluated on the basis e; zero iff it holds.

def _commutativity(alg: PoissonAlgebra, e: list, i: int, j: int) -> tuple:
    return vec_sub(alg.field, alg.mul_dot(e[i], e[j]), alg.mul_dot(e[j], e[i]))


def _associativity(alg: PoissonAlgebra, e: list, i: int, j: int, k: int) -> tuple:
    return vec_sub(alg.field, alg.mul_dot(alg.mul_dot(e[i], e[j]), e[k]),
                   alg.mul_dot(e[i], alg.mul_dot(e[j], e[k])))


def _alternating(alg: PoissonAlgebra, e: list, i: int, j: int) -> tuple:
    # zero on the diagonal and antisymmetric off it, which together give
    # [x, x] = 0 for every x in every characteristic
    if i == j:
        return alg.mul_bracket(e[i], e[i])
    return vec_add(alg.field, alg.mul_bracket(e[i], e[j]), alg.mul_bracket(e[j], e[i]))


def _jacobi(alg: PoissonAlgebra, e: list, i: int, j: int, k: int) -> tuple:
    f = alg.field
    res = alg.mul_bracket(alg.mul_bracket(e[i], e[j]), e[k])
    res = vec_add(f, res, alg.mul_bracket(alg.mul_bracket(e[j], e[k]), e[i]))
    return vec_add(f, res, alg.mul_bracket(alg.mul_bracket(e[k], e[i]), e[j]))


def _leibniz(alg: PoissonAlgebra, e: list, i: int, j: int, k: int) -> tuple:
    f = alg.field
    rhs = vec_add(f, alg.mul_dot(alg.mul_bracket(e[i], e[k]), e[j]),
                  alg.mul_dot(e[i], alg.mul_bracket(e[j], e[k])))
    return vec_sub(f, alg.mul_bracket(alg.mul_dot(e[i], e[j]), e[k]), rhs)


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
# verified subspaces
# ---------------------------------------------------------------------------

VERIFIED_NONE = "none"
VERIFIED_SUBALGEBRA = "subalgebra"
VERIFIED_IDEAL = "ideal"


@dataclass(frozen=True)
class AlgebraSubspace:
    """A subspace tagged with how much closure has been verified."""

    algebra: PoissonAlgebra
    space: Subspace
    verified: str = VERIFIED_NONE


def subspace_product_dot(alg: PoissonAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all pairwise dot products of basis vectors of u and v."""
    prods = [alg.mul_dot(a, b) for a in u.rows() for b in v.rows()]
    return Subspace.from_vectors(alg.field, alg.dim, prods)


def subspace_product_bracket(alg: PoissonAlgebra, u: Subspace, v: Subspace) -> Subspace:
    prods = [alg.mul_bracket(a, b) for a in u.rows() for b in v.rows()]
    return Subspace.from_vectors(alg.field, alg.dim, prods)


def subspace_square(alg: PoissonAlgebra, u: Subspace) -> Subspace:
    return subspace_sum(subspace_product_dot(alg, u, u), subspace_product_bracket(alg, u, u))


def subalgebra_defect(alg: PoissonAlgebra, u: Subspace):
    """A witness (x, y, kind, product) that u is not closed, or None."""
    for a in u.rows():
        for b in u.rows():
            p = alg.mul_dot(a, b)
            if not u.contains_vector(p):
                return (a, b, "dot", p)
            p = alg.mul_bracket(a, b)
            if not u.contains_vector(p):
                return (a, b, "bracket", p)
    return None


def is_subalgebra(alg: PoissonAlgebra, u: Subspace) -> bool:
    return subalgebra_defect(alg, u) is None


def ideal_defect(alg: PoissonAlgebra, u: Subspace):
    """A witness that u fails absorption; commutativity and antisymmetry make
    one-sided products sufficient."""
    for a in u.rows():
        for i in range(alg.dim):
            b = alg.basis_element(i)
            p = alg.mul_dot(a, b)
            if not u.contains_vector(p):
                return (a, b, "dot", p)
            p = alg.mul_bracket(a, b)
            if not u.contains_vector(p):
                return (a, b, "bracket", p)
    return None


def is_ideal(alg: PoissonAlgebra, u: Subspace) -> bool:
    return ideal_defect(alg, u) is None


def is_assoc_subalgebra(alg: PoissonAlgebra, u: Subspace) -> bool:
    return all(u.contains_vector(alg.mul_dot(a, b)) for a in u.rows() for b in u.rows())


def is_lie_subalgebra(alg: PoissonAlgebra, u: Subspace) -> bool:
    return all(u.contains_vector(alg.mul_bracket(a, b)) for a in u.rows() for b in u.rows())


def is_zero_subspace_product(alg: PoissonAlgebra, u: Subspace) -> bool:
    """True when u . u and [u, u] both vanish (a zero subalgebra)."""
    return subspace_square(alg, u).is_zero()


def as_ideal(alg: PoissonAlgebra, u: Subspace) -> AlgebraSubspace:
    defect = ideal_defect(alg, u)
    if defect is not None:
        raise ValueError(f"not an ideal: {defect[2]} product escapes")
    return AlgebraSubspace(alg, u, VERIFIED_IDEAL)


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def closure_subalgebra(alg: PoissonAlgebra, seed: Subspace) -> AlgebraSubspace:
    """Least subalgebra containing the seed."""
    return AlgebraSubspace(alg, _close(alg, seed), VERIFIED_SUBALGEBRA)


def closure_ideal(alg: PoissonAlgebra, seed: Subspace) -> AlgebraSubspace:
    """Least ideal containing the seed."""
    return AlgebraSubspace(alg, _close(alg, seed, alg.full_space()), VERIFIED_IDEAL)


def _close(alg: PoissonAlgebra, seed: Subspace, against: Subspace | None = None) -> Subspace:
    """Least subspace containing the seed that absorbs both products with
    ``against``, or with itself when ``against`` is None.

    Each round multiplies only the newly added directions; bilinearity,
    commutativity and antisymmetry cover the rest.  Terminates because the
    dimension strictly increases.
    """
    space = seed
    frontier = list(seed.rows())
    while frontier:
        others = (space if against is None else against).rows()
        prods = []
        for a in frontier:
            for b in others:
                prods.append(alg.mul_dot(a, b))
                prods.append(alg.mul_bracket(a, b))
        bigger = subspace_sum(space, Subspace.from_vectors(alg.field, alg.dim, prods))
        frontier = [r for r in bigger.rows() if not space.contains_vector(r)]
        space = bigger
    return space


# ---------------------------------------------------------------------------
# quotients, subalgebra restriction, direct sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientData:
    algebra: PoissonAlgebra
    projection: Matrix  # m x n, x -> coordinates of x + I
    lift: Matrix        # n x m, section of the projection
    ideal: Subspace


def quotient_maps(alg: PoissonAlgebra, ideal: Subspace) -> QuotientData:
    """Quotient algebra on the coset representatives e_j, j outside the
    ideal's pivot columns."""
    if ideal_defect(alg, ideal) is not None:
        raise ValueError("quotient by a subspace that is not an ideal")
    f, n = alg.field, alg.dim
    pivots = set(ideal.pivots)
    reps = [j for j in range(n) if j not in pivots]
    m = len(reps)

    def project(v):
        reduced = ideal.reduce_vector(v)
        return tuple(reduced[j] for j in reps)

    z = f.zero()
    dot = [[None] * m for _ in range(m)]
    bracket = [[None] * m for _ in range(m)]
    for a in range(m):
        ea = alg.basis_element(reps[a])
        for b in range(m):
            eb = alg.basis_element(reps[b])
            dot[a][b] = project(alg.mul_dot(ea, eb))
            bracket[a][b] = project(alg.mul_bracket(ea, eb))
    freeze = lambda t: tuple(tuple(tuple(line) for line in plane) for plane in t)
    q_alg = PoissonAlgebra(f, m, freeze(dot), freeze(bracket),
                           name=f"{alg.name}/[dim {ideal.dim}]" if alg.name else "")
    proj = Matrix(f, m, n, tuple(tuple(project(basis_vector(f, n, i))[r] for i in range(n))
                                 for r in range(m)))
    lift = Matrix(f, n, m, tuple(tuple(f.one() if i == reps[c] else z for c in range(m))
                                 for i in range(n)))
    return QuotientData(q_alg, proj, lift, ideal)


def quotient(alg: PoissonAlgebra, ideal: Subspace) -> tuple:
    """The quotient dialgebra and the natural projection (a homomorphism
    whose kernel is the ideal)."""
    data = quotient_maps(alg, ideal)
    return data.algebra, data.projection


def project_subspace(data: QuotientData, u: Subspace) -> Subspace:
    rows = [data.projection.mat_vec(r) for r in u.rows()]
    return Subspace.from_vectors(data.algebra.field, data.algebra.dim, rows)


def preimage_subspace(data: QuotientData, w: Subspace) -> Subspace:
    rows = list(data.ideal.rows()) + [data.lift.mat_vec(r) for r in w.rows()]
    return Subspace.from_vectors(data.ideal.field, data.ideal.ambient_dim, rows)


def subalgebra_algebra(alg: PoissonAlgebra, u: Subspace) -> tuple:
    """Restrict the structure to a subalgebra; returns (algebra, embedding).

    Coordinates in u come for free from the RREF basis: the coefficient of
    the r-th basis vector is the entry at its pivot column.
    """
    if subalgebra_defect(alg, u) is not None:
        raise ValueError("restriction to a subspace that is not a subalgebra")
    f, k = alg.field, u.dim
    pivots = u.pivots
    rows = u.rows()

    def coords(v):
        return tuple(v[p] for p in pivots)

    dot = [[None] * k for _ in range(k)]
    bracket = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            dot[a][b] = coords(alg.mul_dot(rows[a], rows[b]))
            bracket[a][b] = coords(alg.mul_bracket(rows[a], rows[b]))
    freeze = lambda t: tuple(tuple(tuple(line) for line in plane) for plane in t)
    sub = PoissonAlgebra(f, k, freeze(dot), freeze(bracket),
                         name=f"{alg.name}|[dim {k}]" if alg.name else "")
    embed = Matrix(f, alg.dim, k, tuple(tuple(rows[c][i] for c in range(k))
                                        for i in range(alg.dim)))
    return sub, embed


def embed_subspace(embed: Matrix, w: Subspace) -> Subspace:
    """Push a subspace of the restricted algebra back into ambient coordinates."""
    rows = [embed.mat_vec(r) for r in w.rows()]
    return Subspace.from_vectors(embed.field, embed.nrows, rows)


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


def summand_embeddings(a: PoissonAlgebra, b: PoissonAlgebra) -> tuple:
    """The two ideals of direct_sum(a, b) corresponding to the summands."""
    f = a.field
    n = a.dim + b.dim
    first = Subspace.from_vectors(f, n, [basis_vector(f, n, i) for i in range(a.dim)])
    second = Subspace.from_vectors(f, n, [basis_vector(f, n, a.dim + i) for i in range(b.dim)])
    return first, second


# ---------------------------------------------------------------------------
# annihilators and idealisers
# ---------------------------------------------------------------------------


def _left_dot_matrix(alg: PoissonAlgebra, b) -> Matrix:
    """Matrix of x -> x . b."""
    cols = [alg.mul_dot(alg.basis_element(i), b) for i in range(alg.dim)]
    return _matrix_from_columns(alg.field, alg.dim, cols)


def _left_bracket_matrix(alg: PoissonAlgebra, b) -> Matrix:
    """Matrix of x -> [x, b]."""
    cols = [alg.mul_bracket(alg.basis_element(i), b) for i in range(alg.dim)]
    return _matrix_from_columns(alg.field, alg.dim, cols)


def annihilator(alg: PoissonAlgebra, b: Subspace) -> AlgebraSubspace:
    """Elements with vanishing dot and bracket against all of b.

    Commutativity and antisymmetry collapse the four defining conditions to
    the two linear systems x . b_j = 0 and [x, b_j] = 0.  When b is an ideal
    the result is returned verified as one.
    """
    f, n = alg.field, alg.dim
    blocks = []
    for row in b.rows():
        blocks.append(_left_dot_matrix(alg, row))
        blocks.append(_left_bracket_matrix(alg, row))
    if not blocks:
        space = Subspace.full(f, n)
    else:
        space = kernel(stack_rows(f, blocks, n))
    if is_ideal(alg, b) and ideal_defect(alg, space) is None:
        return AlgebraSubspace(alg, space, VERIFIED_IDEAL)
    return AlgebraSubspace(alg, space, VERIFIED_NONE)


def centre(alg: PoissonAlgebra) -> AlgebraSubspace:
    return annihilator(alg, alg.full_space())


def _reduction_matrix(alg: PoissonAlgebra, u: Subspace) -> Matrix:
    """Matrix of v -> v reduced mod u; its kernel is exactly u."""
    cols = [u.reduce_vector(alg.basis_element(i)) for i in range(alg.dim)]
    return _matrix_from_columns(alg.field, alg.dim, cols)


def _preimage_condition(alg: PoissonAlgebra, u: Subspace, maps: Iterable[Matrix]) -> Subspace:
    """Largest subspace X with M x in u for every listed map M."""
    f, n = alg.field, alg.dim
    reduce_mod = _reduction_matrix(alg, u)
    blocks = [reduce_mod.matmul(m) for m in maps]
    if not blocks:
        return Subspace.full(f, n)
    return kernel(stack_rows(f, blocks, n))


def idealiser(alg: PoissonAlgebra, u: Subspace) -> AlgebraSubspace:
    """{x : x . u + [x, u] in U for all u in U} (the combined condition)."""
    maps = [_left_dot_matrix(alg, row).add(_left_bracket_matrix(alg, row)) for row in u.rows()]
    return AlgebraSubspace(alg, _preimage_condition(alg, u, maps), VERIFIED_NONE)


def lie_idealiser(alg: PoissonAlgebra, u: Subspace) -> AlgebraSubspace:
    """{x : [x, u] in U for all u in U}."""
    maps = [_left_bracket_matrix(alg, row) for row in u.rows()]
    return AlgebraSubspace(alg, _preimage_condition(alg, u, maps), VERIFIED_NONE)


def assoc_idealiser(alg: PoissonAlgebra, u: Subspace) -> AlgebraSubspace:
    """{x : x . u in U for all u in U}."""
    maps = [_left_dot_matrix(alg, row) for row in u.rows()]
    return AlgebraSubspace(alg, _preimage_condition(alg, u, maps), VERIFIED_NONE)


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


def kernel_of(mapping: Matrix, dom: PoissonAlgebra, cod: PoissonAlgebra) -> AlgebraSubspace:
    """Kernel of a homomorphism, verified as an ideal of the domain."""
    if not is_homomorphism(mapping, dom, cod):
        raise ValueError("kernel_of requires a homomorphism")
    return as_ideal(dom, kernel(mapping))


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
