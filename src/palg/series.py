"""Descending series and the solvability / nilpotency predicates read off them.

Six series kinds are supported: the two-multiplication derived and lower
central series, and the four single-multiplication variants, read off one
table, ``_KINDS``, by one loop, ``_series``.  A series is computed until
it repeats; the report's last two terms are equal unless the last term is
zero.  All series accept an optional starting subspace so they double as
series of subalgebras in ambient coordinates.

The whole-algebra verdicts (``is_solvable`` and ``is_nilpotent`` without a
start, and ``is_supersolvable``) are cached per (field, dot tensor, bracket
tensor) in the cache the lattice discovery uses, so the many renamed
quotient and subalgebra copies the checks build are decided once.
"""

from __future__ import annotations

from typing import NamedTuple

from ._cache import memo
from .algebra import BOTH, BRACKET, DOT, PoissonAlgebra, _product, quotient_maps, preimage_subspace
from .linalg import Matrix, Subspace, kernel, roots_in_field, char_poly, subspace_intersect, subspace_sum

DERIVED = "derived"
LOWER_CENTRAL = "lower-central"
ASSOC_DERIVED = "assoc-derived"
ASSOC_LOWER = "assoc-lower"
LIE_DERIVED = "lie-derived"
LIE_LOWER = "lie-lower"

# kind -> (products, partner): each step multiplies the last term by
# terms[partner], itself (-1) or the first term (0).
_KINDS = {DERIVED: (BOTH, -1), LOWER_CENTRAL: (BOTH, 0), ASSOC_DERIVED: (DOT, -1),
          ASSOC_LOWER: (DOT, 0), LIE_DERIVED: (BRACKET, -1), LIE_LOWER: (BRACKET, 0)}
SERIES_KINDS = tuple(_KINDS)


class SeriesConsistencyError(RuntimeError):
    """The one-step lower-central recursion disagreed with the full sum.

    For a genuine Poisson algebra the two formulas provably agree, so this
    firing means the input tensors violate the compatibility identity; the
    offending step and both subspaces ride along as a witness.
    """

    def __init__(self, step: int, full: Subspace, shortcut: Subspace):
        self.step = step
        self.full = full
        self.shortcut = shortcut
        super().__init__(f"lower central series inconsistent at step {step}")


class SeriesReport(NamedTuple):
    kind: str
    terms: tuple
    terminates: bool
    step: int

    @property
    def stabilised(self) -> Subspace:
        return self.terms[-1]


def _series(alg: PoissonAlgebra, kind: str, start: Subspace | None) -> SeriesReport:
    """Step from start, the whole algebra when None, until a term is zero or repeats."""
    products, partner = _KINDS[kind]
    terms = [alg.full_space() if start is None else start]
    while not terms[-1].is_zero():
        nxt = _product(alg, products, terms[-1], terms[partner])
        if kind == LOWER_CENTRAL:
            # A^n.A + [A^n, A] against the full sum of the A^i A^{n+1-i}
            full = nxt
            for i in range(len(terms) - 1):
                full = subspace_sum(full, _product(alg, BOTH, terms[i], terms[-1 - i]))
            if full != nxt:
                raise SeriesConsistencyError(len(terms) + 1, full, nxt)
        if nxt == terms[-1]:
            return SeriesReport(kind, (*terms, nxt), False, len(terms) - 1)
        terms.append(nxt)
    return SeriesReport(kind, tuple(terms), True, len(terms) - 1)


def derived_series(alg: PoissonAlgebra, start: Subspace | None = None) -> SeriesReport:
    """A^(n+1) = A^(n).A^(n) + [A^(n), A^(n)] until stabilisation."""
    return _series(alg, DERIVED, start)


def lower_central_series(alg: PoissonAlgebra, start: Subspace | None = None) -> SeriesReport:
    """A^{n+1} = A^n.A + [A^n, A], cross-checked against the full
    convolution sum, which agrees with it for Poisson algebras."""
    return _series(alg, LOWER_CENTRAL, start)


def assoc_derived_series(alg: PoissonAlgebra, start: Subspace | None = None) -> SeriesReport:
    return _series(alg, ASSOC_DERIVED, start)


def assoc_lower_series(alg: PoissonAlgebra, start: Subspace | None = None) -> SeriesReport:
    return _series(alg, ASSOC_LOWER, start)


def lie_derived_series(alg: PoissonAlgebra, start: Subspace | None = None) -> SeriesReport:
    return _series(alg, LIE_DERIVED, start)


def lie_lower_series(alg: PoissonAlgebra, start: Subspace | None = None) -> SeriesReport:
    return _series(alg, LIE_LOWER, start)


def assoc_series(alg: PoissonAlgebra) -> tuple:
    """(derived, lower central) for the dot multiplication alone."""
    return assoc_derived_series(alg), assoc_lower_series(alg)


def lie_series(alg: PoissonAlgebra) -> tuple:
    """(derived, lower central) for the bracket alone."""
    return lie_derived_series(alg), lie_lower_series(alg)


def series_by_kind(alg: PoissonAlgebra, kind: str, start: Subspace | None = None) -> SeriesReport:
    if kind not in _KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    return _series(alg, kind, start)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def is_solvable(alg: PoissonAlgebra, start: Subspace | None = None) -> bool:
    if start is None:
        return memo(alg, "solvable", lambda: derived_series(alg).terminates)
    return derived_series(alg, start).terminates


def is_nilpotent(alg: PoissonAlgebra, start: Subspace | None = None) -> bool:
    if start is None:
        return memo(alg, "nilpotent", lambda: lower_central_series(alg).terminates)
    return lower_central_series(alg, start).terminates


def is_assoc_solvable(alg: PoissonAlgebra, start: Subspace | None = None) -> bool:
    return assoc_derived_series(alg, start).terminates


def is_assoc_nilpotent(alg: PoissonAlgebra, start: Subspace | None = None) -> bool:
    return assoc_lower_series(alg, start).terminates


def is_lie_solvable(alg: PoissonAlgebra, start: Subspace | None = None) -> bool:
    return lie_derived_series(alg, start).terminates


def is_lie_nilpotent(alg: PoissonAlgebra, start: Subspace | None = None) -> bool:
    return lie_lower_series(alg, start).terminates


def derived_length(alg: PoissonAlgebra, start: Subspace | None = None) -> int | None:
    report = derived_series(alg, start)
    return report.step if report.terminates else None


def nilpotency_class(alg: PoissonAlgebra, start: Subspace | None = None) -> int | None:
    report = lower_central_series(alg, start)
    return report.step if report.terminates else None


# ---------------------------------------------------------------------------
# supersolvability
# ---------------------------------------------------------------------------


def is_supersolvable(alg: PoissonAlgebra) -> tuple:
    """(verdict, flag): whether the algebra has a full flag of ideals, one
    per dimension, and the flag listing them by dimension; cached per tensor,
    the search itself is _supersolvable."""
    return memo(alg, "supersolvable", lambda: _supersolvable(alg))


def _supersolvable(alg: PoissonAlgebra) -> tuple:
    """The uncached flag search behind is_supersolvable.

    Any one-dimensional ideal is spanned by a common eigenvector of all the
    left multiplication operators, so candidates are found by intersecting
    one eigenspace per operator, pruning as soon as the running intersection
    dies.  Quotienting by a found line and pulling the rest of the flag back
    is complete: every quotient of a flag algebra again has a full flag.
    The quotient's flag comes through the cached is_supersolvable.
    """
    if alg.dim == 0:
        return True, ()
    line = _common_eigenline(alg)
    if line is None:
        return False, ()
    data = quotient_maps(alg, line)
    ok, qflag = is_supersolvable(data.algebra)
    if not ok:
        return False, ()
    flag = [line] + [preimage_subspace(data, w) for w in qflag]
    return True, tuple(flag)


def _common_eigenline(alg: PoissonAlgebra) -> Subspace | None:
    ops = [alg.p_operator(alg.basis_element(i)) for i in range(alg.dim)]
    ops += [alg.q_operator(alg.basis_element(i)) for i in range(alg.dim)]
    field = alg.field
    full = alg.full_space()

    def search(k: int, space: Subspace) -> Subspace | None:
        if space.is_zero():
            return None
        if k == len(ops):
            vec = space.rows()[0]
            return Subspace.from_vectors(field, alg.dim, [vec])
        matrix = ops[k]
        eigenvalues = [root for root, _ in roots_in_field(field, char_poly(matrix))]
        ident = Matrix.identity(field, alg.dim)
        for value in eigenvalues:
            eigenspace = kernel(matrix.sub(ident.scale(value)))
            candidate = subspace_intersect(space, eigenspace)
            found = search(k + 1, candidate)
            if found is not None:
                return found
        return None

    return search(0, full)
