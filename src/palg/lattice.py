"""Subspace-lattice enumeration over finite fields and the discovery
operations built on it: maximal subalgebras, Frattini subalgebra and ideal,
minimal ideals and socles, radical and nilradical (with independent
brute-force oracles), splittings, idempotents, and the maximal-subalgebra
classification.

The ideal closures of the lines are computed once per algebra and feed the
minimal ideals and both radicals: a minimal ideal is a minimal closure, and
the radical (nilradical) is the sum of the solvable (nilpotent) closures.

Discovery requires a finite field; over the rationals only the verify_*
forms are offered, which check a candidate against the defining linear
conditions and against the ideals reachable by closing basis lines.
Budgets are hard limits: exceeding one raises instead of degrading.

The lattice profile works on point masks: every enumerated subspace
carries the bitmask of its projective points, and the profile keeps the
masks and dimensions beside the subspaces.  Containment in the maximal
scans is then ``m & big == m`` on ints, and the closure flags are bit
tests whose product bits are carried along the enumeration order.  The
enumeration is the store of F^n, which ``linalg`` alone builds, ranks and
keeps (``linalg._store``); this module only reads it.  So every
subspace of F^n, however it is built later (a closure, a kernel, a
product), is the enumerated object, mask included: ``Subspace.contains``
in the minimal-ideal scan and in the checks is an int test too, and
``subspace_intersect`` a lookup.  The subspaces, masks and dimensions
depend on (field, n) alone: ``_enumeration`` reads them from the store,
and each profile checks its own budget before it reads them.

Discovery results are cached in the one per-tensor cache of ``_cache``: the
entry is keyed on (field, dot tensor, bracket tensor), the fields of the
algebra that discovery reads, and each result sits inside it under
(name, budget).  The budget is part of the result's key, not the entry's,
because it decides whether a computation raises; keeping it inside lets the
series verdicts, which read no budget, share the entry instead of taking
cache slots of their own.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from ._cache import cache_clear, cache_info, memo
from .algebra import (
    BOTH,
    BRACKET,
    DOT,
    BudgetExceededError,
    PoissonAlgebra,
    closure_ideal,
    ideal_defect,
    is_ideal,
    preimage_subspace,
    quotient_maps,
    subalgebra_algebra,
    subspace_product_dot,
    subspace_square,
    _preimage_condition,
    _products,
    _right_multiplication,
)
from .fields import FieldError, FieldSpec, _Frozen
from .linalg import (
    Subspace,
    _STORES,
    _store,
    enumerate_lines,
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


class StructureInconsistencyError(RuntimeError):
    """A structural guarantee failed to verify; impossible for validated
    algebras, and the failure witness is kept for negative controls."""

    def __init__(self, label: str, witness=None):
        self.label = label
        self.witness = witness
        super().__init__(f"structural verification failed: {label}")


class LatticeBudget(_Frozen):
    __slots__ = _fields = ("max_dim", "max_q", "max_subspaces", "max_elements")

    def __init__(self, max_dim: int = 5, max_q: int = 3, max_subspaces: int = 10 ** 6,
                 max_elements: int = 10 ** 5) -> None:
        for name, value in zip(self._fields, (max_dim, max_q, max_subspaces, max_elements)):
            # a negative limit would turn every request into a budget overrun
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
            object.__setattr__(self, name, value)


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
    """Every subspace of GF(q)^n exactly once, in canonical order: those of
    the store of F^n, which ``linalg._store`` enumerates on first use (see
    there for the order).  The budget is checked first."""
    _check_enumeration_budget(field, n, budget)
    yield from _store(field, n).subspaces


def enumerate_elements(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET):
    if not alg.field.is_finite:
        raise FieldError("element enumeration needs a finite field")
    total = alg.field.order ** alg.dim
    if total > budget.max_elements:
        raise BudgetExceededError("max_elements", f"{total} > {budget.max_elements}")
    elems = list(alg.field.elements())
    return (tuple(v) for v in itertools.product(elems, repeat=alg.dim))


# ---------------------------------------------------------------------------
# the lattice profile and maximal subalgebras, cached per tensor
# ---------------------------------------------------------------------------


class LatticeProfile(NamedTuple):
    """All subspaces of the algebra with closure flags, computed once.

    ``masks`` and ``dims`` run parallel to ``subspaces``: the point mask and
    the dimension of each, so that scans over the lattice test containment
    on ints without touching the ``Subspace`` objects.
    """

    subspaces: tuple
    masks: tuple
    dims: tuple
    subalgebra_flags: tuple
    assoc_flags: tuple
    lie_flags: tuple
    ideal_flags: tuple

    def subalgebras(self):
        return [s for s, f in zip(self.subspaces, self.subalgebra_flags) if f]

    def ideals(self):
        return [s for s, f in zip(self.subspaces, self.ideal_flags) if f]


def lattice_profile(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> LatticeProfile:
    def compute():
        _check_enumeration_budget(alg.field, alg.dim, budget)
        subspaces, masks, dims = _enumeration(alg.field, alg.dim, budget)
        assoc_flags, lie_flags, ideal_flags = _closure_flags(alg, subspaces)
        sub_flags = tuple(a and b for a, b in zip(assoc_flags, lie_flags))
        return LatticeProfile(subspaces, masks, dims, sub_flags, assoc_flags, lie_flags,
                              ideal_flags)
    return memo(alg, ("profile", budget), compute)


def _enumeration(field: FieldSpec, n: int, budget: LatticeBudget) -> tuple:
    """The subspaces of F^n with their masks and dimensions, from its store;
    a first enumeration is drawn through ``enumerate_subspaces``, so every
    enumeration of F^n passes through it once.  The caller checks its own
    budget first."""
    if (field.modulus, n) not in _STORES:
        for _ in enumerate_subspaces(field, n, budget):
            pass
    store = _store(field, n)
    return store.subspaces, store.masks, store.dims


class _Table(dict):
    """A dict that fills in a missing key with ``fill(key)``."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _closure_flags(alg: PoissonAlgebra, subspaces) -> tuple:
    """The assoc, Lie and ideal flags of the subspaces ``enumerate_subspaces``
    yields, in order, in one pass; ``is_assoc_subalgebra``,
    ``is_lie_subalgebra`` and ``is_ideal`` are the oracles, and an ideal flag
    is set only on a subalgebra.

    A product lies in S iff its point bit lies in S's mask, read from the
    point table of F^n (``linalg._Store``); the zero product has no point,
    so its bit is 0 and it always lies in S.  Every RREF row and every basis
    vector is a normalised point, at position ``bit.bit_length() - 1``, so
    each product is looked up by the positions of its two points,
    ``a * width + b``, and computed once.  S is closed iff the bits of its
    basis-row products all lie in its mask.  S' = S without its first row r
    is yielded earlier, and the OR of the bits of its row products is
    carried from it, so S adds only the products of r with itself and with
    the rows of S': O(k) lookups for a k-dim subspace.  Only subspaces
    with no pivot in column 0 are ever some S', so only they keep a
    complete OR; the rest stop at the first product outside.  The pairs
    stay ordered, so the flags stay exact on tensors that are not
    commutative or alternating.  The ideal test reads, per row, the OR of
    the bits of its products with every basis vector.
    """
    store = _store(alg.field, alg.dim)
    bit, lines = store.points, store.lines
    width = len(lines)
    everywhere = (1 << width) - 1  # complements are taken in it: a negative int is slower

    def products(rows) -> _Table:
        def fill(key: int) -> int:
            a, b = divmod(key, width)
            return bit[alg._mul(rows, lines[a], lines[b])]
        return _Table(fill)

    dot, bracket = map(products, _products(alg))
    basis = [bit[e].bit_length() - 1 for e in map(alg.basis_element, range(alg.dim))]

    def ideal_bits(a: int) -> int:
        aw = a * width
        acc = 0
        for b in basis:
            acc |= dot[aw + b] | bracket[aw + b]
        return acc

    row_ideal = _Table(ideal_bits)

    def new_products(table: _Table, a: int, rest: tuple) -> int:
        aw = a * width
        acc = table[aw + a]
        for b in rest:
            acc |= table[aw + b] | table[b * width + a]
        return acc

    def closed(table: _Table, a: int, rest: tuple, outside: int) -> bool:
        aw = a * width
        if table[aw + a] & outside:
            return False
        for b in rest:
            if table[aw + b] & outside or table[b * width + a] & outside:
                return False
        return True

    # rows of S' -> (point positions of those rows, dot OR, bracket OR)
    carried = {(): ((), 0, 0)}
    assoc_flags, lie_flags, ideal_flags = [], [], []
    for s in subspaces:
        rows = s.rows()
        outside = everywhere ^ s.mask
        if not rows:
            assoc = lie = ideal = True
        else:
            rest, dot_or, bracket_or = carried[rows[1:]]
            a = bit[rows[0]].bit_length() - 1
            if s.pivots[0]:
                dot_or |= new_products(dot, a, rest)
                bracket_or |= new_products(bracket, a, rest)
                carried[rows] = ((a,) + rest, dot_or, bracket_or)
                assoc = not dot_or & outside
                lie = not bracket_or & outside
            else:
                assoc = not dot_or & outside and closed(dot, a, rest, outside)
                lie = not bracket_or & outside and closed(bracket, a, rest, outside)
            ideal = (assoc and lie and not row_ideal[a] & outside
                     and not any(row_ideal[b] & outside for b in rest))
        assoc_flags.append(assoc)
        lie_flags.append(lie)
        ideal_flags.append(ideal)
    return tuple(assoc_flags), tuple(lie_flags), tuple(ideal_flags)


lattice_profile.cache_info = cache_info
lattice_profile.cache_clear = cache_clear


def _maximal_positions(masks, dims, positions) -> list:
    """The positions whose mask lies strictly inside no other position's
    mask, ascending; masks are point masks of one ambient space.

    Visited by decreasing dimension, each position is tested only against
    the maxima of larger dimension found so far: a mask strictly inside
    some other one lies inside a maximal one of larger dimension, which was
    visited earlier.  ``m & big == m`` is containment (``m & ~big``, on a
    negative int, is several times slower), and ``map`` runs the tests
    against all those maxima in one call.
    """
    by_dim: dict = {}
    for i in positions:
        by_dim.setdefault(dims[i], []).append(i)
    maxima: list = []  # the masks of the maxima of larger dimension
    found: list = []
    for d in sorted(by_dim, reverse=True):
        level = [i for i in by_dim[d] if masks[i] not in map(masks[i].__and__, maxima)]
        found += level
        maxima += [masks[i] for i in level]
    return sorted(found)


# The profile flags of the subspaces closed under each choice of products.
_CLOSED = {BOTH: "subalgebra_flags", DOT: "assoc_flags", BRACKET: "lie_flags"}


def _maximal(alg: PoissonAlgebra, budget: LatticeBudget, products: tuple) -> list:
    """Maximal members among the proper subspaces closed under ``products``,
    found on the profile's masks.  The scan is cached under the flag tuple,
    so flags that coincide (all three, on zero products) share one scan; no
    other tag keys a flag tuple, since a flag tuple (True,) equals (1,)."""
    profile = lattice_profile(alg, budget)
    flagged = getattr(profile, _CLOSED[products])

    def scan():
        dims = profile.dims
        members = [i for i, f in enumerate(flagged) if f and dims[i] != alg.dim]
        return tuple(profile.subspaces[i]
                     for i in _maximal_positions(profile.masks, dims, members))
    return list(memo(alg, ("maximal", flagged, budget), scan))


def maximal_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """All maximal members among the proper subalgebras."""
    return _maximal(alg, budget, BOTH)


def maximal_assoc_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    return _maximal(alg, budget, DOT)


def maximal_lie_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    return _maximal(alg, budget, BRACKET)


# ---------------------------------------------------------------------------
# Frattini subalgebra and ideal
# ---------------------------------------------------------------------------


def ideal_core(alg: PoissonAlgebra, w: Subspace, products: tuple = BOTH) -> Subspace:
    """Largest ideal of the algebra inside w for ``products``: for BOTH an
    ideal, for DOT a dot-ideal, for BRACKET a bracket-ideal.

    Fixed-point iteration of W -> {x in W : x . P and/or [x, P] inside W};
    each step is one exact kernel computation, and any such ideal inside w
    survives every step, so the fixed point is the ideal core.
    """
    maps = [_right_multiplication(alg, t, alg.basis_element(i))
            for i in range(alg.dim) for t in products]
    current = w
    while True:
        nxt = subspace_intersect(current, _preimage_condition(alg, current, maps))
        if nxt == current:
            return nxt
        current = nxt


def _frattini(alg: PoissonAlgebra, budget: LatticeBudget, products: tuple) -> tuple:
    """(F, phi) for ``products``: the intersection of the maximal
    subalgebras for them (the whole space when there is none) and its ideal
    core for them."""
    def compute():
        maximal = _maximal(alg, budget, products)
        f_space = functools.reduce(subspace_intersect, maximal or [alg.full_space()])
        return f_space, ideal_core(alg, f_space, products)
    return memo(alg, ("frattini", products, budget), compute)


def frattini(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> tuple:
    """(F, phi): the intersection of the maximal subalgebras and its ideal core."""
    return _frattini(alg, budget, BOTH)


def frattini_assoc(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> tuple:
    return _frattini(alg, budget, DOT)


def frattini_lie(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> tuple:
    return _frattini(alg, budget, BRACKET)


# ---------------------------------------------------------------------------
# minimal ideals and socles
# ---------------------------------------------------------------------------


def minimal_ideals(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> list:
    """Minimal elements among the ideal closures of all lines.

    Complete because every nonzero ideal contains a line, and closing any
    line inside a minimal ideal recovers that ideal.
    """
    def compute():
        _check_field_budget(alg.field, alg.dim, budget, "minimal-ideal discovery")
        closures = _line_ideal_closures(alg)
        return tuple(sorted(_minimal_members(closures), key=lambda s: (s.dim, s.rows())))
    return list(memo(alg, ("minimal_ideals", budget), compute))


def _line_ideal_closures(alg: PoissonAlgebra) -> tuple:
    """The distinct ideal closures of the lines, in order of first
    appearance along ``enumerate_lines``.  Budget-free: every caller checks
    its own budget first."""
    def compute():
        return tuple(dict.fromkeys(closure_ideal(alg, line)
                                   for line in enumerate_lines(alg.field, alg.dim)))
    return memo(alg, "line_ideal_closures", compute)


def _minimal_members(candidates) -> list:
    return [s for s in candidates
            if not any(other.dim < s.dim and s.contains(other) for other in candidates)]


def socle(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    return memo(alg, ("socle", budget), lambda: _sum_all(alg, minimal_ideals(alg, budget)))


def zero_socle(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    return memo(alg, ("zero_socle", budget), lambda: _sum_all(
        alg, [b for b in minimal_ideals(alg, budget) if subspace_square(alg, b).is_zero()]))


def _sum_all(alg: PoissonAlgebra, spaces) -> Subspace:
    return functools.reduce(subspace_sum, spaces, alg.zero_space())


# ---------------------------------------------------------------------------
# radical and nilradical
# ---------------------------------------------------------------------------


def radical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Largest solvable ideal: the sum of the solvable ideal closures of
    lines (see ``_largest_ideal``)."""
    return _largest_ideal(alg, budget, "radical", derived_series, "solvable")


def nilradical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Largest nilpotent ideal: the sum of the nilpotent ideal closures of
    lines (see ``_largest_ideal``)."""
    return _largest_ideal(alg, budget, "nilradical", lower_central_series, "nilpotent")


def _largest_ideal(alg: PoissonAlgebra, budget: LatticeBudget, key: str, series,
                   word: str) -> Subspace:
    """The largest ideal whose ``series`` terminates, as the sum of the line
    closures whose ``series`` terminates; the sum is re-verified before
    returning.

    That is the sum of every such ideal: each ideal is the sum of the ideal
    closures of its lines, and each of those closures is an ideal inside it,
    so its series terminates too.  The sum of two solvable (or two
    nilpotent) ideals is again solvable (nilpotent), so a largest one exists
    and is this sum.  The oracles, the reference, read the whole ideal
    lattice, and this keeps the budget that lattice needs.
    """
    def compute():
        _check_enumeration_budget(alg.field, alg.dim, budget)
        members = [s for s in _line_ideal_closures(alg) if series(alg, s).terminates]
        acc = _sum_all(alg, members)
        if not series(alg, acc).terminates:
            raise StructureInconsistencyError(f"sum of {word} ideals is not {word}", acc)
        for s in members:
            if not acc.contains(s):
                raise StructureInconsistencyError(f"{key} misses a {word} ideal", s)
        return acc
    return memo(alg, (key, budget), compute)


def oracle_radical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Brute-force oracle: the unique maximal solvable ideal among all
    enumerated ideals."""
    return _oracle_largest(alg, budget, derived_series, "solvable")


def oracle_nilradical(alg: PoissonAlgebra, budget: LatticeBudget = DEFAULT_BUDGET) -> Subspace:
    """Brute-force oracle: the unique maximal nilpotent ideal among all
    enumerated ideals."""
    return _oracle_largest(alg, budget, lower_central_series, "nilpotent")


def _oracle_largest(alg: PoissonAlgebra, budget: LatticeBudget, series, word: str) -> Subspace:
    profile = lattice_profile(alg, budget)
    members = [s for s in profile.ideals() if series(alg, s).terminates]
    best = max(members, key=lambda s: s.dim)
    for s in members:
        if not best.contains(s):
            raise StructureInconsistencyError(f"{word} ideals have no maximum", (best, s))
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
        bigger = closure_ideal(alg, subspace_sum(candidate, line))
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


class Classification(NamedTuple):
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


class ChiefFactor(NamedTuple):
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


class StructureReport(NamedTuple):
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
    found, markers = _metadata_radicals(alg)
    for missing in ("socle", "zero_socle", "frattini", "splitting", "classification"):
        markers.append(f"requires-finite-field: {missing}")
    return StructureReport(
        algebra_name=alg.name,
        radical=found.get("radical"), nilradical=found.get("nilradical"),
        socle=None, zero_socle=None,
        frattini_subalgebra=None, frattini_ideal=None,
        frattini_assoc=None, frattini_lie=None,
        phi_free=None, splitting=None, classification=None, idempotent=None,
        markers=tuple(markers))


def _metadata_radicals(alg: PoissonAlgebra) -> tuple:
    """The radicals an algebra's metadata supplies, the one place they are
    read and verified: ``found`` maps "radical" and "nilradical" to each
    candidate that ``verify_radical`` / ``verify_nilradical`` accept, and
    ``markers`` says why a key is missing from it.  Malformed metadata
    raises FieldError.

    Verified once per tensor and metadata: the result is cached under the
    raw metadata strings it reads, and each call gets its own ``found`` and
    ``markers``, which callers may extend."""
    def compute():
        found, markers = {}, []
        for key, verify in (("radical", verify_radical), ("nilradical", verify_nilradical)):
            space = _meta_subspace(alg, key)
            if space is None:
                markers.append(f"requires-finite-field: {key}")
            elif verify(alg, space):
                found[key] = space
            else:
                markers.append(f"metadata-{key}-rejected")
        return found, tuple(markers)
    # the raw strings meta_value would decode, first match as it takes
    raw = tuple(next((v for k, v in alg.meta if k == key), None)
                for key in ("radical", "nilradical"))
    found, markers = memo(alg, ("metadata_radicals", raw), compute)
    return dict(found), list(markers)


def _meta_subspace(alg: PoissonAlgebra, key: str) -> Subspace | None:
    """The span of the basis rows stored under metadata ``key``, or None.
    Metadata is outside input: anything but a list of rows of length
    ``alg.dim`` raises FieldError, as a malformed scalar does."""
    rows = alg.meta_value(key)
    if rows is None:
        return None
    f = alg.field
    try:
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and len(row) == alg.dim for row in rows):
            raise FieldError(f"needs a list of rows of length {alg.dim}")
        if any(isinstance(x, bool) for row in rows for x in row):
            raise FieldError("a boolean is not a scalar")
        return Subspace.from_vectors(f, alg.dim, [
            [f.parse_scalar(x) if isinstance(x, str) else f.coerce(x) for x in row]
            for row in rows])
    except FieldError as exc:
        raise FieldError(f"metadata {key!r}: {exc}") from None


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
