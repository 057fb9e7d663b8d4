"""Subspace-lattice enumeration over finite fields and the discovery
operations built on it: maximal subalgebras, Frattini subalgebra and ideal,
minimal ideals and socles, radical and nilradical (with independent
brute-force oracles), splittings, idempotents, and the maximal-subalgebra
classification.

Discovery requires a finite field; over the rationals only the verify_*
forms are offered, which check a candidate against the defining linear
conditions and against the ideals reachable by closing basis lines.
Budgets are hard limits: exceeding one raises instead of degrading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    PoissonAlgebra,
    closure_ideal,
    ideal_defect,
    is_assoc_subalgebra,
    is_ideal,
    is_lie_subalgebra,
    is_zero_subspace_product,
    preimage_subspace,
    quotient_maps,
    subalgebra_algebra,
    subspace_product_dot,
    _left_bracket_matrix,
    _left_dot_matrix,
    _reduction_matrix,
)
from .fields import FieldError, FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    kernel,
    stack_rows,
    subspace_intersect,
    subspace_sum,
    vec_is_zero,
    vec_sub,
)
from .series import (
    assoc_lower_series,
    derived_series,
    is_nilpotent,
    lower_central_series,
)


class BudgetExceededError(RuntimeError):
    """An enumeration would overrun the stated budget; names the budget."""

    def __init__(self, budget: str, detail: str):
        self.budget = budget
        self.detail = detail
        super().__init__(f"budget {budget} exceeded: {detail}")


class StructureInconsistencyError(RuntimeError):
    """A structural guarantee failed to verify; impossible for validated
    algebras, and the failure witness is kept for negative controls."""

    def __init__(self, label: str, witness=None):
        self.label = label
        self.witness = witness
        super().__init__(f"structural verification failed: {label}")


@dataclass(frozen=True)
class LatticeBudget:
    max_dim: int = 5
    max_q: int = 3
    max_subspaces: int = 10 ** 6
    max_elements: int = 10 ** 5


DEFAULT_BUDGET = LatticeBudget()


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _check_field_budget(field: FieldSpec, n: int, budget: LatticeBudget, task: str) -> None:
    if not field.is_finite:
        raise FieldError(f"{task} needs a finite field")
    if n > budget.max_dim:
        raise BudgetExceededError("max_dim", f"dimension {n} > {budget.max_dim}")
    if field.order > budget.max_q:
        raise BudgetExceededError("max_q", f"modulus {field.order} > {budget.max_q}")


def _check_enumeration_budget(field: FieldSpec, n: int, budget: LatticeBudget) -> None:
    _check_field_budget(field, n, budget, "subspace enumeration")
    total = count_subspaces(n, field.order)
    if total > budget.max_subspaces:
        raise BudgetExceededError("max_subspaces", f"{total} > {budget.max_subspaces}")


def enumerate_subspaces(field: FieldSpec, n: int, budget: LatticeBudget = DEFAULT_BUDGET):
    """Every subspace of GF(q)^n exactly once, in canonical order.

    Subspaces are keyed by pivot-column pattern (one Schubert cell per
    pattern); within a cell the free entries run lexicographically, so the
    order is deterministic and each basis is born in reduced echelon form.
    """
    _check_enumeration_budget(field, n, budget)
    elems = list(field.elements())
    one = field.one()
    zero = field.zero()
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free_positions = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                              if j not in pivot_set]
            for values in itertools.product(elems, repeat=len(free_positions)):
                rows = [[zero] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = one
                for (i, j), val in zip(free_positions, values):
                    rows[i][j] = val
                yield Subspace(n, Matrix(field, k, n, tuple(tuple(r) for r in rows)))


def enumerate_lines(field: FieldSpec, n: int):
    """The one-dimensional subspaces, via canonical spanning vectors whose
    first nonzero coordinate is one."""
    elems = list(field.elements())
    one = field.one()
    zero = field.zero()
    for lead in range(n):
        tail = n - lead - 1
        for rest in itertools.product(elems, repeat=tail):
            row = [zero] * lead + [one] + list(rest)
            yield Subspace(n, Matrix(field, 1, n, (tuple(row),)))


def enumerate_elements(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET):
    if not alg.field.is_finite:
        raise FieldError("element enumeration needs a finite field")
    total = alg.field.order ** alg.dim
    if total > budget.max_elements:
        raise BudgetExceededError("max_elements", f"{total} > {budget.max_elements}")
    elems = list(alg.field.elements())
    return (tuple(v) for v in itertools.product(elems, repeat=alg.dim))


# ---------------------------------------------------------------------------
# cached lattice profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeProfile:
    """All subspaces of the algebra with closure flags, computed once."""

    subspaces: tuple
    subalgebra_flags: tuple
    assoc_flags: tuple
    lie_flags: tuple
    ideal_flags: tuple

    def subalgebras(self):
        return [s for s, f in zip(self.subspaces, self.subalgebra_flags) if f]

    def ideals(self):
        return [s for s, f in zip(self.subspaces, self.ideal_flags) if f]


@lru_cache(maxsize=256)
def lattice_profile(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> LatticeProfile:
    subspaces = tuple(enumerate_subspaces(alg.field, alg.dim, budget))
    assoc_flags = tuple(is_assoc_subalgebra(alg, s) for s in subspaces)
    lie_flags = tuple(is_lie_subalgebra(alg, s) for s in subspaces)
    sub_flags = tuple(a and b for a, b in zip(assoc_flags, lie_flags))
    ideal_flags = tuple(flag and is_ideal(alg, s) for s, flag in zip(subspaces, sub_flags))
    return LatticeProfile(subspaces, sub_flags, assoc_flags, lie_flags, ideal_flags)


def _maximal_members(candidates) -> list:
    out = []
    for s in candidates:
        if not any(other.dim > s.dim and other.contains(s) for other in candidates if other is not s):
            out.append(s)
    return out


def _maximal(alg: PoissonAlgebra, budget: LatticeBudget, flags: str) -> list:
    """Maximal members among the proper subspaces whose profile flag
    (``subalgebra_flags``, ``assoc_flags`` or ``lie_flags``) is set."""
    profile = lattice_profile(alg, budget)
    proper = [s for s, f in zip(profile.subspaces, getattr(profile, flags))
              if f and s.dim != alg.dim]
    return _maximal_members(proper)


def maximal_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """All maximal members among the proper subalgebras."""
    return _maximal(alg, budget, "subalgebra_flags")


def maximal_assoc_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    return _maximal(alg, budget, "assoc_flags")


def maximal_lie_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    return _maximal(alg, budget, "lie_flags")


# ---------------------------------------------------------------------------
# Frattini subalgebra and ideal
# ---------------------------------------------------------------------------


def _intersect_all(field: FieldSpec, n: int, spaces) -> Subspace:
    spaces = list(spaces)
    if not spaces:
        return Subspace.full(field, n)
    acc = spaces[0]
    for s in spaces[1:]:
        acc = subspace_intersect(acc, s)
    return acc


def ideal_core(alg: PoissonAlgebra, w: Subspace, dot: bool = True, bracket: bool = True) -> Subspace:
    """Largest ideal (dot-ideal, bracket-ideal) of the algebra inside w.

    Fixed-point iteration of W -> {x in W : x.P (and/or) [x,P] inside W};
    each step is one exact kernel computation, and any ideal inside w
    survives every step, so the fixed point is the ideal core.
    """
    f, n = alg.field, alg.dim
    current = w
    while True:
        reduce_mod = _reduction_matrix(alg, current)
        blocks = []
        for i in range(n):
            b = alg.basis_element(i)
            if dot:
                blocks.append(reduce_mod.matmul(_left_dot_matrix(alg, b)))
            if bracket:
                blocks.append(reduce_mod.matmul(_left_bracket_matrix(alg, b)))
        condition = kernel(stack_rows(f, blocks, n)) if blocks else Subspace.full(f, n)
        nxt = subspace_intersect(current, condition)
        if nxt == current:
            return nxt
        current = nxt


def frattini(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> tuple:
    """(F, phi): the intersection of the maximal subalgebras and its ideal core."""
    f_space = _intersect_all(alg.field, alg.dim, maximal_subalgebras(alg, budget))
    return f_space, ideal_core(alg, f_space)


def frattini_assoc(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> tuple:
    f_space = _intersect_all(alg.field, alg.dim, maximal_assoc_subalgebras(alg, budget))
    return f_space, ideal_core(alg, f_space, dot=True, bracket=False)


def frattini_lie(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> tuple:
    f_space = _intersect_all(alg.field, alg.dim, maximal_lie_subalgebras(alg, budget))
    return f_space, ideal_core(alg, f_space, dot=False, bracket=True)


# ---------------------------------------------------------------------------
# minimal ideals and socles
# ---------------------------------------------------------------------------


def minimal_ideals(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """Minimal elements among the ideal closures of all lines.

    Complete because every nonzero ideal contains a line, and closing any
    line inside a minimal ideal recovers that ideal.
    """
    _check_field_budget(alg.field, alg.dim, budget, "minimal-ideal discovery")
    closures = []
    seen = set()
    for line in enumerate_lines(alg.field, alg.dim):
        closed = closure_ideal(alg, line).space
        if closed not in seen:
            seen.add(closed)
            closures.append(closed)
    minimal = _minimal_members(closures)
    minimal.sort(key=_subspace_sort_key)
    return minimal


def _minimal_members(candidates) -> list:
    return [s for s in candidates
            if not any(other.dim < s.dim and s.contains(other) for other in candidates)]


def _subspace_sort_key(s: Subspace):
    return (s.dim, tuple(tuple(_scalar_key(x) for x in row) for row in s.rows()))


def _scalar_key(x):
    # Fraction and int both expose numerator/denominator.
    return (x.numerator, x.denominator) if hasattr(x, "denominator") else (x, 1)


def socle(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    acc = alg.zero_space()
    for b in minimal_ideals(alg, budget):
        acc = subspace_sum(acc, b)
    return acc


def zero_socle(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    acc = alg.zero_space()
    for b in minimal_ideals(alg, budget):
        if is_zero_subspace_product(alg, b):
            acc = subspace_sum(acc, b)
    return acc


# ---------------------------------------------------------------------------
# radical and nilradical
# ---------------------------------------------------------------------------


def radical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Largest solvable ideal, found recursively: quotient by any solvable
    minimal ideal and pull the radical of the quotient back; if no minimal
    ideal is solvable there is no nonzero solvable ideal at all."""
    if alg.dim == 0:
        return alg.zero_space()
    for b in minimal_ideals(alg, budget):
        if derived_series(alg, b).terminates:
            data = quotient_maps(alg, b)
            return preimage_subspace(data, radical(data.algebra, budget))
    return alg.zero_space()


def nilradical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Largest nilpotent ideal, as the sum of every nilpotent ideal in the
    lattice; the sum is re-verified nilpotent and maximal before returning."""
    profile = lattice_profile(alg, budget)
    nil_ideals = [s for s in profile.ideals() if lower_central_series(alg, s).terminates]
    acc = alg.zero_space()
    for s in nil_ideals:
        acc = subspace_sum(acc, s)
    if not lower_central_series(alg, acc).terminates:
        raise StructureInconsistencyError("sum of nilpotent ideals is not nilpotent", acc)
    for s in nil_ideals:
        if not acc.contains(s):
            raise StructureInconsistencyError("nilradical misses a nilpotent ideal", s)
    return acc


def oracle_radical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Brute-force oracle: the unique maximal solvable ideal among all
    enumerated ideals."""
    profile = lattice_profile(alg, budget)
    solvable = [s for s in profile.ideals() if derived_series(alg, s).terminates]
    best = max(solvable, key=lambda s: s.dim)
    for s in solvable:
        if not best.contains(s):
            raise StructureInconsistencyError("solvable ideals have no maximum", (best, s))
    return best


def oracle_nilradical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    profile = lattice_profile(alg, budget)
    nilpotent = [s for s in profile.ideals() if lower_central_series(alg, s).terminates]
    best = max(nilpotent, key=lambda s: s.dim)
    for s in nilpotent:
        if not best.contains(s):
            raise StructureInconsistencyError("nilpotent ideals have no maximum", (best, s))
    return best


def verify_radical(alg: PoissonAlgebra, candidate: Subspace) -> bool:
    """Field-independent verification: an ideal, solvable, and not extendable
    by the ideal closure of any basis line outside it."""
    return _verify_largest(alg, candidate, derived_series)


def verify_nilradical(alg: PoissonAlgebra, candidate: Subspace) -> bool:
    """As verify_radical, with nilpotent in place of solvable."""
    return _verify_largest(alg, candidate, lower_central_series)


def _verify_largest(alg: PoissonAlgebra, candidate: Subspace, series) -> bool:
    """An ideal whose ``series`` terminates, and no ideal closure of the
    candidate plus a basis line outside it still terminates."""
    if ideal_defect(alg, candidate) is not None:
        return False
    if not series(alg, candidate).terminates:
        return False
    for i in range(alg.dim):
        e = alg.basis_element(i)
        if candidate.contains_vector(e):
            continue
        line = Subspace.from_vectors(alg.field, alg.dim, [e])
        bigger = closure_ideal(alg, subspace_sum(candidate, line)).space
        if series(alg, bigger).terminates:
            return False
    return True


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


def splits_over(alg: PoissonAlgebra, b: Subspace,
                budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace | None:
    """A subalgebra complement making the algebra a vector-space direct sum
    with b, or None when no complement closes."""
    profile = lattice_profile(alg, budget)
    want = alg.dim - b.dim
    for s, flag in zip(profile.subspaces, profile.subalgebra_flags):
        if flag and s.dim == want and subspace_intersect(s, b).is_zero():
            return s
    return None


# ---------------------------------------------------------------------------
# idempotents and the Peirce decomposition
# ---------------------------------------------------------------------------


def idempotents(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """All nonzero solutions of x.x = x, in lexicographic coordinate order."""
    out = []
    for v in enumerate_elements(alg, budget):
        if vec_is_zero(v):
            continue
        if alg.mul_dot(v, v) == v:
            out.append(v)
    return out


def peirce(alg: PoissonAlgebra, e) -> tuple:
    """The decomposition (eP, (1-e)P) relative to an idempotent.

    (1-e)P is {x - e.x}; the pieces are verified complementary, the cross
    products eP.(1-e)P are checked to vanish, and the bracket [e, x] is
    checked to vanish for every x, which holds in every characteristic.
    """
    if alg.mul_dot(e, e) != tuple(e):
        raise ValueError("peirce decomposition needs an idempotent")
    p_e = alg.p_operator(e)
    e_part = Subspace.from_vectors(alg.field, alg.dim,
                                   [p_e.mat_vec(alg.basis_element(i)) for i in range(alg.dim)])
    rest = Subspace.from_vectors(
        alg.field, alg.dim,
        [vec_sub(alg.field, alg.basis_element(i), p_e.mat_vec(alg.basis_element(i)))
         for i in range(alg.dim)])
    if not alg.q_operator(e).is_zero():
        raise StructureInconsistencyError("idempotent has a nonzero bracket", e)
    if e_part.dim + rest.dim != alg.dim or not subspace_intersect(e_part, rest).is_zero():
        raise StructureInconsistencyError("peirce pieces are not complementary", (e_part, rest))
    if not subspace_product_dot(alg, e_part, rest).is_zero():
        raise StructureInconsistencyError("peirce cross products do not vanish", (e_part, rest))
    return e_part, rest


def principal_idempotents(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """Idempotents whose complementary Peirce piece is nilpotent for the dot."""
    out = []
    for e in idempotents(alg, budget):
        _, rest = peirce(alg, e)
        if assoc_lower_series(alg, rest).terminates:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# classification by the maximal-subalgebra property
# ---------------------------------------------------------------------------

CLASS_NILPOTENT = "nilpotent"
CLASS_IDEMPOTENT_SPLIT = "Fe-plus-N"
CLASS_FAILS = "fails"


@dataclass(frozen=True)
class Classification:
    kind: str
    idempotent: tuple | None = None
    non_ideal_maximal: Subspace | None = None


def classify_max_ideal_property(alg: PoissonAlgebra,
                                budget: LatticeBudget = DEFAULT_BUDGET) -> Classification:
    """Decide whether all maximal subalgebras are ideals and certify the
    resulting shape: nilpotent, or a line spanned by an idempotent plus the
    nilradical as an algebra direct sum."""
    for m in maximal_subalgebras(alg, budget):
        if not is_ideal(alg, m):
            return Classification(CLASS_FAILS, non_ideal_maximal=m)
    if is_nilpotent(alg):
        return Classification(CLASS_NILPOTENT)
    principal = principal_idempotents(alg, budget)
    if not principal:
        raise StructureInconsistencyError("no principal idempotent in a non-nilpotent algebra")
    e = principal[0]
    nil = nilradical(alg, budget)
    if not _is_idempotent_line_split(alg, e, nil):
        raise StructureInconsistencyError("idempotent line plus nilradical is not a direct sum",
                                          (e, nil))
    return Classification(CLASS_IDEMPOTENT_SPLIT, idempotent=e)


def _is_idempotent_line_split(alg: PoissonAlgebra, e, nil: Subspace) -> bool:
    line = Subspace.from_vectors(alg.field, alg.dim, [e])
    if subspace_sum(line, nil).dim != alg.dim or not subspace_intersect(line, nil).is_zero():
        return False
    for n_row in nil.rows():
        if not vec_is_zero(alg.mul_dot(e, n_row)) or not vec_is_zero(alg.mul_bracket(e, n_row)):
            return False
    return True


# ---------------------------------------------------------------------------
# chief factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiefFactor:
    lower: Subspace
    upper: Subspace
    factor: PoissonAlgebra


def chief_factors(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """One maximal chain of ideals refined so that every factor is a minimal
    ideal of the corresponding quotient."""
    out = []
    current = alg.zero_space()
    while current.dim < alg.dim:
        data = quotient_maps(alg, current)
        mins = minimal_ideals(data.algebra, budget)
        chosen = mins[0]
        factor_alg, _ = subalgebra_algebra(data.algebra, chosen)
        upper = preimage_subspace(data, chosen)
        out.append(ChiefFactor(current, upper, factor_alg))
        current = upper
    return out


# ---------------------------------------------------------------------------
# the aggregated structure report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    algebra_name: str
    radical: Subspace | None
    nilradical: Subspace | None
    socle: Subspace | None
    zero_socle: Subspace | None
    frattini_subalgebra: Subspace | None
    frattini_ideal: Subspace | None
    frattini_assoc: tuple | None
    frattini_lie: tuple | None
    phi_free: bool | None
    splitting: Subspace | None
    classification: str | None
    idempotent: tuple | None
    markers: tuple


def structure_report(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> StructureReport:
    """Full report over a finite field; over the rationals the discovery
    fields are left empty with explicit requires-finite-field markers, except
    where verified metadata supplies a candidate."""
    if alg.field.is_finite:
        rad = radical(alg, budget)
        nil = nilradical(alg, budget)
        soc = socle(alg, budget)
        zsoc = zero_socle(alg, budget)
        f_space, phi = frattini(alg, budget)
        fa = frattini_assoc(alg, budget)
        fl = frattini_lie(alg, budget)
        if not rad.contains(nil):
            raise StructureInconsistencyError("nilradical outside the radical", (rad, nil))
        if not soc.contains(zsoc):
            raise StructureInconsistencyError("zero socle outside the socle", (soc, zsoc))
        if not f_space.contains(phi):
            raise StructureInconsistencyError("frattini ideal outside the subalgebra",
                                              (f_space, phi))
        split = splits_over(alg, zsoc, budget)
        cls = classify_max_ideal_property(alg, budget)
        label = "other" if cls.kind == CLASS_FAILS else cls.kind
        return StructureReport(
            algebra_name=alg.name,
            radical=rad, nilradical=nil, socle=soc, zero_socle=zsoc,
            frattini_subalgebra=f_space, frattini_ideal=phi,
            frattini_assoc=fa, frattini_lie=fl,
            phi_free=phi.is_zero(), splitting=split,
            classification=label, idempotent=cls.idempotent,
            markers=())
    markers = []
    rad = nil = None
    cand = alg.meta_value("radical")
    if cand is not None:
        space = Subspace.from_vectors(alg.field, alg.dim, _parse_rows(alg.field, cand))
        if verify_radical(alg, space):
            rad = space
        else:
            markers.append("metadata-radical-rejected")
    else:
        markers.append("requires-finite-field: radical")
    cand = alg.meta_value("nilradical")
    if cand is not None:
        space = Subspace.from_vectors(alg.field, alg.dim, _parse_rows(alg.field, cand))
        if verify_nilradical(alg, space):
            nil = space
        else:
            markers.append("metadata-nilradical-rejected")
    else:
        markers.append("requires-finite-field: nilradical")
    for missing in ("socle", "zero_socle", "frattini", "splitting", "classification"):
        markers.append(f"requires-finite-field: {missing}")
    return StructureReport(
        algebra_name=alg.name,
        radical=rad, nilradical=nil, socle=None, zero_socle=None,
        frattini_subalgebra=None, frattini_ideal=None,
        frattini_assoc=None, frattini_lie=None,
        phi_free=None, splitting=None, classification=None, idempotent=None,
        markers=tuple(markers))


def _parse_rows(field: FieldSpec, rows) -> list:
    return [[field.parse_scalar(x) if isinstance(x, str) else field.coerce(x) for x in row]
            for row in rows]


# ---------------------------------------------------------------------------
# supersolvability oracle (enumeration-based, used to cross-check the
# eigenvector search in tests)
# ---------------------------------------------------------------------------


def oracle_supersolvable(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> bool:
    profile = lattice_profile(alg, budget)
    ideals_by_dim: dict = {}
    for s in profile.ideals():
        ideals_by_dim.setdefault(s.dim, []).append(s)
    reachable = [alg.zero_space()]
    for dim in range(1, alg.dim + 1):
        nxt = [cand for cand in ideals_by_dim.get(dim, [])
               if any(cand.contains(prev) for prev in reachable)]
        if not nxt:
            return False
        reachable = nxt
    return True
