"""A registry of executable structure checks with witness reporting.

Every check takes one algebra (or a pair, for the direct-sum law), quantifies
over the configurations its statement needs - subalgebra pairs, ideals,
elements - and reports pass, fail with a re-evaluatable witness, or
not-applicable when its field requirements are unmet.  Over finite fields
the configurations are enumerated from the subspace lattice; over the
rationals only explicitly known configurations (series terms, 0/1 vectors,
verified metadata candidates) are used, so the rational runs stay sound
without enumeration.

Vacuous passes (no configuration satisfied the hypothesis) are reported
with exercised = 0 so coverage summaries can surface untested hypotheses.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence

from .algebra import (
    PoissonAlgebra,
    annihilator,
    direct_sum,
    find_axiom_violation,
    ideal_defect,
    is_ideal,
    is_subideal,
    lie_idealiser,
    subalgebra_algebra,
    subalgebra_defect,
    quotient_maps,
    subspace_product_dot,
    subspace_product_bracket,
    subspace_square,
)
from .engel import EngelClosureError, engel_assoc_space, engel_lie_space, s_space
from .fields import FieldError, FieldSpec, _Frozen
from .lattice import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    LatticeBudget,
    StructureInconsistencyError,
    classify_max_ideal_property,
    enumerate_elements,
    frattini,
    frattini_lie,
    idempotents,
    lattice_profile,
    maximal_subalgebras,
    minimal_ideals,
    nilradical,
    radical,
    socle,
    splits_over,
    zero_socle,
    CLASS_FAILS,
    _is_idempotent_line_split,
    _meta_subspace,
    _metadata_radicals,
    _minimal_members,
)
from .linalg import Subspace, subspace_image, subspace_intersect, subspace_sum
from .series import (
    SeriesConsistencyError,
    derived_series,
    is_lie_nilpotent,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    is_assoc_nilpotent,
    lower_central_series,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# The quantifier caps, which keep runtime bounded and deterministic: at most
# CONFIG_LIMIT configurations per check per algebra, and at most PAIR_LIMIT
# same-field pairs, in diagonal order, for the per-pair check.
CONFIG_LIMIT = 256
PAIR_LIMIT = 64


class TheoremResult(_Frozen):
    """One row of the report; not a tuple, so that ``json.dump`` hands it to
    ``to_json`` instead of writing it as a list."""

    __slots__ = _fields = ("theorem", "algebra", "status", "exercised", "witness", "detail")

    def __init__(self, theorem: str, algebra: str, status: str, exercised: int = 0,
                 witness: dict | None = None, detail: str = "") -> None:
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "exercised", exercised)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)

    def to_json(self) -> dict:
        out = {"theorem": self.theorem, "algebra": self.algebra, "status": self.status,
               "exercised": self.exercised}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


class TheoremCheck(NamedTuple):
    id: str
    statement: str
    scope: str  # "per-algebra" | "per-pair"
    runner: Callable


# ---------------------------------------------------------------------------
# witness formatting
# ---------------------------------------------------------------------------


def _fmt_vec(field: FieldSpec, v) -> list:
    return [field.format_scalar(x) for x in v]


def _fmt_space(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": [_fmt_vec(s.field, r) for r in s.rows()]}


def _defect_witness(field: FieldSpec, defect: tuple) -> dict:
    """The fields of a closure defect (x, y, product kind, product)."""
    x, y, kind, product = defect
    return {"x": _fmt_vec(field, x), "y": _fmt_vec(field, y), "product_kind": kind,
            "product": _fmt_vec(field, product)}


def _outcome(failures: list, exercised: int, detail: str = "") -> tuple:
    """A runner's verdict (status, exercised, witness, detail), which only
    _run_guarded stamps with the check id and the algebra names: fail with
    the first witness, else pass, "vacuous" when nothing was exercised and
    no detail is given."""
    if failures:
        return FAIL, exercised, failures[0], detail
    return PASS, exercised, None, detail if detail else ("" if exercised else "vacuous")


def _not_applicable(detail: str) -> tuple:
    return NOT_APPLICABLE, 0, None, detail


# ---------------------------------------------------------------------------
# configuration sources
# ---------------------------------------------------------------------------


def _known_subspaces_q(alg: PoissonAlgebra) -> list:
    """Subalgebras available without enumeration: series terms are all
    ideals, hence subalgebras."""
    out = [alg.full_space(), alg.zero_space()]
    for report in (derived_series(alg), lower_central_series(alg)):
        out.extend(report.terms)
    return list(dict.fromkeys(out))


def _subalgebra_configs(alg: PoissonAlgebra, budget: LatticeBudget) -> list:
    if alg.field.is_finite:
        return lattice_profile(alg, budget).subalgebras()
    return _known_subspaces_q(alg)


def _ideal_configs(alg: PoissonAlgebra, budget: LatticeBudget) -> list:
    if alg.field.is_finite:
        return lattice_profile(alg, budget).ideals()
    return [s for s in _known_subspaces_q(alg) if is_ideal(alg, s)]


def _element_configs(alg: PoissonAlgebra, budget: LatticeBudget) -> list:
    if alg.field.is_finite:
        return list(enumerate_elements(alg, budget))
    # all 0/1 coordinate vectors: zero, the basis, and their partial sums
    out = []
    for mask in range(2 ** alg.dim):
        out.append(tuple(alg.field.from_int((mask >> i) & 1) for i in range(alg.dim)))
    return out


def _radical_nilradical(alg: PoissonAlgebra, budget: LatticeBudget):
    """(radical, nilradical) by discovery over finite fields, by verified
    metadata over the rationals; None when neither route applies."""
    if alg.field.is_finite:
        return radical(alg, budget), nilradical(alg, budget)
    found, _ = _metadata_radicals(alg)
    if len(found) < 2:
        return None
    return found["radical"], found["nilradical"]


# ---------------------------------------------------------------------------
# the individual checks
# ---------------------------------------------------------------------------


def _check_axioms(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    violation = find_axiom_violation(alg)
    if violation is None:
        return _outcome([], 1)
    return _outcome([{"axiom": violation.axiom, "indices": list(violation.witness),
                      "residual": _fmt_vec(alg.field, violation.residual)}], 1)


def _check_assoc_power_bracket(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    subs = _subalgebra_configs(alg, budget)
    failures, exercised = [], 0
    powers = {}  # b -> [b, b.b, (b.b).b, ...], extended on first use
    for b, c in itertools.islice(_diagonal_pairs(subs), CONFIG_LIMIT):
        known = powers.setdefault(b, [b])
        for n in range(1, alg.dim + 2):
            if len(known) < n:
                known.append(subspace_product_dot(alg, known[-1], b))
            if known[n - 1].is_zero():
                # lhs = [0, c] = 0 lies in every rhs, here and for every
                # larger n: count those iterations without computing them
                exercised += alg.dim + 2 - n
                break
            lhs = subspace_product_bracket(alg, known[n - 1], c)
            if n == 1:
                bc = rhs = lhs  # [b, c], which n = 1 compares with itself
            else:
                rhs = subspace_product_dot(alg, known[n - 2], bc)
            exercised += 1
            if not rhs.contains(lhs):
                failures.append({"b": _fmt_space(b), "c": _fmt_space(c), "n": n,
                                 "lhs": _fmt_space(lhs), "rhs": _fmt_space(rhs)})
                break
        if failures:
            break
    return _outcome(failures, exercised)


def _check_ideal_dot_product(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    ideals = _ideal_configs(alg, budget)
    failures, exercised = [], 0
    for b, c in itertools.islice(_diagonal_pairs(ideals), CONFIG_LIMIT):
        product = subspace_product_dot(alg, b, c)
        exercised += 1
        defect = ideal_defect(alg, product)
        if defect is not None:
            failures.append({"b": _fmt_space(b), "c": _fmt_space(c),
                             "product": _fmt_space(product),
                             "escape": _fmt_vec(alg.field, defect[3])})
            break
    return _outcome(failures, exercised)


def _check_minimal_in_nilpotent(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    if not alg.field.is_finite:
        return _outcome([], 0, "vacuous: minimal ideals need a finite field")
    mins = minimal_ideals(alg, budget)
    nil_ideals = [s for s in lattice_profile(alg, budget).ideals()
                  if lower_central_series(alg, s).terminates]
    failures, exercised = [], 0
    for b in mins:
        for n in nil_ideals:
            if not n.contains(b):
                continue
            exercised += 1
            ann = annihilator(alg, n)
            if not ann.contains(b):
                failures.append({"minimal": _fmt_space(b), "nilpotent": _fmt_space(n),
                                 "annihilator": _fmt_space(ann)})
    return _outcome(failures, exercised)


def _check_nilpotent_iff_both(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    nil = is_nilpotent(alg)
    both = is_assoc_nilpotent(alg) and is_lie_nilpotent(alg)
    if nil != both:
        return _outcome([{"nilpotent": nil, "assoc_and_lie_nilpotent": both}], 1)
    return _outcome([], 1)


def _check_radical_square(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    pair = _radical_nilradical(alg, budget)
    if pair is None:
        return _not_applicable("radical and nilradical unavailable over Q without metadata")
    rad, nil = pair
    square = subspace_product_dot(alg, rad, rad)
    if nil.contains(square):
        return _outcome([], 1)
    return _outcome([{"radical": _fmt_space(rad), "nilradical": _fmt_space(nil),
                      "radical_dot_square": _fmt_space(square)}], 1)


def _check_radical_square_char0(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    if alg.field.characteristic != 0:
        return _not_applicable("needs characteristic zero")
    pair = _radical_nilradical(alg, budget)
    if pair is None:
        return _not_applicable("radical unavailable without verified metadata")
    rad, _ = pair
    square = subspace_square(alg, rad)
    if lower_central_series(alg, square).terminates:
        return _outcome([], 1)
    return _outcome([{"radical": _fmt_space(rad), "square": _fmt_space(square)}], 1)


def _check_supersolvable_square(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    super_ok, _ = is_supersolvable(alg)
    detail = ("hypothesis restricted to solvable algebras: a flag of ideals alone "
              "admits idempotent lines, whose square is not nilpotent")
    if not (super_ok and is_solvable(alg)):
        return _outcome([], 0, "vacuous; " + detail)
    square = subspace_square(alg, alg.full_space())
    if lower_central_series(alg, square).terminates:
        return _outcome([], 1, detail)
    return _outcome([{"square": _fmt_space(square)}], 1, detail)


def _check_annihilator_in_nilradical(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    pair = _radical_nilradical(alg, budget)
    if pair is None:
        return _not_applicable("radical and nilradical unavailable over Q without metadata")
    rad, nil = pair
    ann_in_rad = subspace_intersect(annihilator(alg, nil), rad)
    if nil.contains(ann_in_rad):
        return _outcome([], 1)
    return _outcome([{"radical": _fmt_space(rad), "nilradical": _fmt_space(nil),
                      "annihilator_in_radical": _fmt_space(ann_in_rad)}], 1)


def _check_engel_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    failures, exercised = [], 0
    for a in _element_configs(alg, budget):
        exercised += 1
        for label, space in (("assoc", engel_assoc_space(alg, a)),
                             ("lie", engel_lie_space(alg, a))):
            defect = subalgebra_defect(alg, space)
            if defect is not None:
                failures.append({"element": _fmt_vec(alg.field, a), "kind": label,
                                 "engel_space": _fmt_space(space),
                                 **_defect_witness(alg.field, defect)})
        if failures:
            break
    return _outcome(failures, exercised)


def _check_self_idealising(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    failures, exercised = [], 0
    if alg.field.is_finite:
        profile = lattice_profile(alg, budget)
        lie_subs = [s for s, f in zip(profile.subspaces, profile.lie_flags) if f]
    else:
        lie_subs = None
    for a in _element_configs(alg, budget):
        e_space = engel_lie_space(alg, a)
        if lie_subs is not None:
            candidates = [u for u in lie_subs if u.contains(e_space)]
        else:
            candidates = [u for u in (e_space, alg.full_space())
                          if subalgebra_defect(alg, u) is None or u.is_full()]
        for u in candidates:
            exercised += 1
            idealiser_space = lie_idealiser(alg, u)
            if idealiser_space != u:
                failures.append({"element": _fmt_vec(alg.field, a),
                                 "subalgebra": _fmt_space(u),
                                 "lie_idealiser": _fmt_space(idealiser_space)})
                break
        if failures:
            break
    return _outcome(failures, exercised)


def _check_eigen_part_closed(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    failures, exercised = [], 0
    for a in _element_configs(alg, budget):
        exercised += 1
        space = s_space(alg, a)
        defect = subalgebra_defect(alg, space)
        if defect is not None:
            failures.append({"element": _fmt_vec(alg.field, a),
                             "eigen_part": _fmt_space(space),
                             **_defect_witness(alg.field, defect)})
            break
    return _outcome(failures, exercised)


def _require_finite(alg: PoissonAlgebra) -> None:
    """Raise the FieldError that ``_run_guarded`` reports as not applicable."""
    if not alg.field.is_finite:
        raise FieldError("lattice discovery needs a finite field")


def _check_frattini_of_subalgebra(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    f_ambient = frattini(alg, budget)[0]
    ideals = _ideal_configs(alg, budget)
    failures, exercised = [], 0
    for c in _subalgebra_configs(alg, budget):
        if exercised >= CONFIG_LIMIT:
            break
        c_alg, embed = subalgebra_algebra(alg, c)
        f_c = subspace_image(embed, frattini(c_alg, budget)[0])
        for b in ideals:
            if not f_c.contains(b):
                continue
            exercised += 1
            if not f_ambient.contains(b):
                failures.append({"subalgebra": _fmt_space(c), "ideal": _fmt_space(b),
                                 "frattini_of_subalgebra": _fmt_space(f_c),
                                 "frattini": _fmt_space(f_ambient)})
    return _outcome(failures, exercised)


def _check_frattini_quotient(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    f_space, phi = frattini(alg, budget)
    failures, exercised = [], 0
    for b in _ideal_configs(alg, budget)[:CONFIG_LIMIT]:
        data = quotient_maps(alg, b)
        f_q, phi_q = frattini(data.algebra, budget)
        f_img = subspace_image(data.projection, f_space)
        phi_img = subspace_image(data.projection, phi)
        exercised += 1
        inside = f_q.contains(f_img) and phi_q.contains(phi_img)
        if not inside or (f_space.contains(b) and (f_img != f_q or phi_img != phi_q)):
            witness = {"ideal": _fmt_space(b), "projected_f": _fmt_space(f_img),
                       "quotient_f": _fmt_space(f_q), "projected_phi": _fmt_space(phi_img),
                       "quotient_phi": _fmt_space(phi_q)}
            if inside:
                witness["clause"] = "equality under B inside F"
            failures.append(witness)
    detail = ("first inclusion read as image of the ideal core inside the core of "
              "the quotient; the displayed right side is taken to mean the "
              "quotient's own core")
    return _outcome(failures, exercised, detail)


def _check_frattini_trivial_quotient(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    f_space, phi = frattini(alg, budget)
    failures, exercised = [], 0
    for r in _ideal_configs(alg, budget)[:CONFIG_LIMIT]:
        data = quotient_maps(alg, r)
        f_q, phi_q = frattini(data.algebra, budget)
        if f_q.is_zero():
            exercised += 1
            if not r.contains(f_space):
                failures.append({"ideal": _fmt_space(r), "frattini": _fmt_space(f_space)})
        if phi_q.is_zero():
            exercised += 1
            if not r.contains(phi):
                failures.append({"ideal": _fmt_space(r), "frattini_ideal": _fmt_space(phi)})
    return _outcome(failures, exercised)


def _check_direct_sum_frattini(a: PoissonAlgebra, b: PoissonAlgebra,
                               budget: LatticeBudget) -> tuple:
    _require_finite(a)
    total = direct_sum(a, b)
    phi_sum = frattini(total, budget)[1]
    phi_a = frattini(a, budget)[1]
    phi_b = frattini(b, budget)[1]
    f = a.field
    zero_b = [f.zero()] * b.dim
    zero_a = [f.zero()] * a.dim
    rows = [tuple(r) + tuple(zero_b) for r in phi_a.rows()]
    rows += [tuple(zero_a) + tuple(r) for r in phi_b.rows()]
    expected = Subspace.from_vectors(f, total.dim, rows)
    if phi_sum == expected:
        return _outcome([], 1)
    return _outcome([{"phi_of_sum": _fmt_space(phi_sum), "expected": _fmt_space(expected)}], 1)


def _check_minimal_supplement(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    subalgebras = _subalgebra_configs(alg, budget)
    full = alg.full_space()
    failures, exercised = [], 0
    for b in _ideal_configs(alg, budget):
        if exercised >= CONFIG_LIMIT:
            break
        # dim(b + u) <= dim b + dim u, so the sum test only runs where it can pass
        supplements = [u for u in subalgebras
                       if b.dim + u.dim >= alg.dim and subspace_sum(b, u) == full]
        for u in _minimal_members(supplements):
            if exercised >= CONFIG_LIMIT:
                break
            exercised += 1
            u_alg, embed = subalgebra_algebra(alg, u)
            phi_u = subspace_image(embed, frattini(u_alg, budget)[1])
            meet = subspace_intersect(b, u)
            if not phi_u.contains(meet):
                failures.append({"ideal": _fmt_space(b), "supplement": _fmt_space(u),
                                 "intersection": _fmt_space(meet),
                                 "phi_of_supplement": _fmt_space(phi_u)})
    return _outcome(failures, exercised)


def _check_zero_ideal_splits(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    phi = frattini(alg, budget)[1]
    failures, exercised = [], 0
    for b in _ideal_configs(alg, budget)[:CONFIG_LIMIT]:
        if not subspace_square(alg, b).is_zero():
            continue
        if not subspace_intersect(b, phi).is_zero():
            continue
        exercised += 1
        if splits_over(alg, b, budget) is None:
            failures.append({"zero_ideal": _fmt_space(b)})
    return _outcome(failures, exercised)


def _check_subideal_factor(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    phi = frattini(alg, budget)[1]
    failures, exercised = [], 0
    for b in lattice_profile(alg, budget).subalgebras():
        if exercised >= CONFIG_LIMIT or failures:
            break
        if not is_subideal(alg, b):
            continue
        b_alg, embed = subalgebra_algebra(alg, b)
        for c, c_inside in _frattini_ideals_of(b_alg, embed, phi, budget):
            if exercised >= CONFIG_LIMIT:
                break
            data = quotient_maps(b_alg, c_inside)
            if is_nilpotent(data.algebra):
                exercised += 1
                if not is_nilpotent(b_alg):
                    failures.append({"subideal": _fmt_space(b), "ideal": _fmt_space(c),
                                     "clause": "nilpotent"})
                    break
            if is_supersolvable(data.algebra)[0]:
                exercised += 1
                if not is_supersolvable(b_alg)[0]:
                    failures.append({"subideal": _fmt_space(b), "ideal": _fmt_space(c),
                                     "clause": "supersolvable"})
                    break
    return _outcome(failures, exercised)


def _frattini_ideals_of(b_alg: PoissonAlgebra, embed, phi: Subspace,
                        budget: LatticeBudget) -> list:
    """The ideals c of the subalgebra b_alg that lie in phi, as pairs
    (c in ambient coordinates, c in b_alg's coordinates), in the order
    enumerate_subspaces gives the ambient subspaces.

    Embedding keeps that order, so no sort is needed: b's RREF rows lead at
    increasing pivots, so the pivots of c map increasingly, and ambient
    columns before b's j-th pivot depend only on the first j coordinates,
    with the j-th coordinate itself at that pivot; rows compare as their
    coordinates do.
    """
    pairs = [(subspace_image(embed, c), c) for c in lattice_profile(b_alg, budget).ideals()]
    return [(c, inside) for c, inside in pairs if phi.contains(c)]


def _check_phi_nilpotent(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    phi = frattini(alg, budget)[1]
    if lower_central_series(alg, phi).terminates:
        return _outcome([], 1)
    return _outcome([{"phi": _fmt_space(phi)}], 1)


def _check_phi_free_split(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    phi = frattini(alg, budget)[1]
    zsoc = zero_socle(alg, budget)
    complement = splits_over(alg, zsoc, budget)
    if phi.is_zero() == (complement is not None):
        return _outcome([], 1)
    return _outcome([{"phi": _fmt_space(phi), "zero_socle": _fmt_space(zsoc),
                      "split_found": complement is not None}], 1)


def _check_phi_free_socle(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    phi = frattini(alg, budget)[1]
    if not phi.is_zero():
        return _outcome([], 0, "vacuous: not phi-free")
    zsoc = zero_socle(alg, budget)
    nil = nilradical(alg, budget)
    ann = annihilator(alg, socle(alg, budget))
    if zsoc == nil == ann:
        return _outcome([], 1)
    return _outcome([{"zero_socle": _fmt_space(zsoc), "nilradical": _fmt_space(nil),
                      "annihilator_of_socle": _fmt_space(ann)}], 1)


def _check_phi_free_shape(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    if not alg.field.is_finite:
        return _check_phi_free_shape_q(alg, budget)
    phi = frattini(alg, budget)[1]
    rad = radical(alg, budget)
    nil = nilradical(alg, budget)
    zsoc = zero_socle(alg, budget)
    split = splits_over(alg, nil, budget)
    rad_dot_sq = subspace_product_dot(alg, rad, rad)
    shape = (nil == zsoc) and (split is not None) and rad_dot_sq.is_zero()
    if phi.is_zero() == shape:
        return _outcome([], 1)
    return _outcome([{"phi": _fmt_space(phi), "nilradical": _fmt_space(nil),
                      "zero_socle": _fmt_space(zsoc), "split_found": split is not None,
                      "radical_dot_square": _fmt_space(rad_dot_sq)}], 1)


def _check_phi_free_shape_q(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    """Characteristic-zero clause on explicitly supplied configurations: with
    a verified radical, complement and nilradical and a phi-free claim, the
    full square of (complement meet radical) must vanish.  The weaker
    dot-square variants are reported in the detail, not asserted."""
    if alg.meta_value("phi_free") is not True:
        return _not_applicable("needs phi_free metadata plus a verified complement over Q")
    comp = _meta_subspace(alg, "complement")
    pair = _radical_nilradical(alg, budget)
    if comp is None or pair is None:
        return _not_applicable("metadata configuration missing or unverifiable")
    rad, nil = pair
    if subalgebra_defect(alg, comp) is not None or \
            not subspace_intersect(comp, nil).is_zero() or \
            subspace_sum(comp, nil).dim != alg.dim:
        return _not_applicable("complement metadata is not a complementary subalgebra")
    meet = subspace_intersect(comp, rad)
    full_square = subspace_square(alg, meet)
    dot_square = subspace_product_dot(alg, meet, meet)
    rad_dot_sq = subspace_product_dot(alg, rad, rad)
    detail = (f"variants: (U meet R) dot-square zero: {dot_square.is_zero()}; "
              f"radical dot-square zero: {rad_dot_sq.is_zero()}")
    if full_square.is_zero():
        return _outcome([], 1, detail)
    return _outcome([{"meet": _fmt_space(meet), "square": _fmt_space(full_square)}], 1, detail)


def _check_solvable_phi_free(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    if not is_solvable(alg):
        return _outcome([], 0, "vacuous: not solvable")
    phi = frattini(alg, budget)[1]
    phi_l = frattini_lie(alg, budget)[1]
    dot_square = subspace_product_dot(alg, alg.full_space(), alg.full_space())
    nil = nilradical(alg, budget)
    failures = []
    if phi.is_zero():
        if not dot_square.is_zero() or not phi_l.is_zero() \
                or splits_over(alg, nil, budget) is None:
            failures.append({"clause": "forward", "dot_square": _fmt_space(dot_square),
                             "phi_lie": _fmt_space(phi_l)})
    if dot_square.is_zero() and phi_l.is_zero() and not phi.is_zero():
        failures.append({"clause": "converse", "phi": _fmt_space(phi)})
    return _outcome(failures, 1)


def _check_nilpotent_iff_phi_square(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    phi = frattini(alg, budget)[1]
    square = subspace_square(alg, alg.full_space())
    nil = is_nilpotent(alg)
    failures = []
    if nil != (phi == square):
        failures.append({"nilpotent": nil, "phi": _fmt_space(phi),
                         "square": _fmt_space(square)})
    elif nil:
        for m in maximal_subalgebras(alg, budget):
            if not is_ideal(alg, m):
                failures.append({"clause": "maximal not ideal", "maximal": _fmt_space(m)})
                break
    return _outcome(failures, 1)


def _check_all_maximal_ideals_lie(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    if not all(is_ideal(alg, m) for m in maximal_subalgebras(alg, budget)):
        return _outcome([], 0, "vacuous: some maximal subalgebra is not an ideal")
    return _outcome([] if is_lie_nilpotent(alg) else [{}], 1)


def _check_max_ideal_classification(alg: PoissonAlgebra, budget: LatticeBudget) -> tuple:
    _require_finite(alg)
    classification = classify_max_ideal_property(alg, budget)
    if classification.kind != CLASS_FAILS:
        return _outcome([], 1, f"shape: {classification.kind}")
    # converse: with a non-ideal maximal subalgebra the algebra must be
    # neither nilpotent nor an idempotent line plus its nilradical
    failures = []
    if is_nilpotent(alg):
        failures.append({"clause": "nilpotent despite non-ideal maximal",
                         "maximal": _fmt_space(classification.non_ideal_maximal)})
    else:
        nil = nilradical(alg, budget)
        for e in idempotents(alg, budget):
            if _is_idempotent_line_split(alg, e, nil):
                failures.append({"clause": "decomposition exists despite non-ideal maximal",
                                 "idempotent": _fmt_vec(alg.field, e)})
                break
    return _outcome(failures, 1, "shape: fails (converse direction exercised)")


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

REGISTRY: tuple = (
    TheoremCheck("Def-1.1", "the five defining identities hold on all basis tuples",
                 "per-algebra", _check_axioms),
    TheoremCheck("Lemma-2.1", "bracket of an associative power against a subalgebra lands in "
                              "the previous power times the mutual bracket",
                 "per-algebra", _check_assoc_power_bracket),
    TheoremCheck("Lemma-2.2", "the dot product of two ideals is an ideal",
                 "per-algebra", _check_ideal_dot_product),
    TheoremCheck("Lemma-2.3", "a minimal ideal inside a nilpotent ideal annihilates it",
                 "per-algebra", _check_minimal_in_nilpotent),
    TheoremCheck("Prop-2.4", "nilpotent iff nilpotent for each multiplication separately",
                 "per-algebra", _check_nilpotent_iff_both),
    TheoremCheck("Thm-2.6", "the dot square of the radical lies in the nilradical",
                 "per-algebra", _check_radical_square),
    TheoremCheck("Cor-2.7", "in characteristic zero the square of the radical is nilpotent",
                 "per-algebra", _check_radical_square_char0),
    TheoremCheck("Prop-2.8", "for solvable algebras with a full flag of ideals the square "
                             "is nilpotent",
                 "per-algebra", _check_supersolvable_square),
    TheoremCheck("Lemma-2.9", "inside the radical, the annihilator of the nilradical stays "
                              "in the nilradical",
                 "per-algebra", _check_annihilator_in_nilradical),
    TheoremCheck("Lemma-2.11", "both generalized null spaces of left multiplication close "
                               "under both products",
                 "per-algebra", _check_engel_subalgebras),
    TheoremCheck("Lemma-2.13", "a Lie subalgebra containing a bracket null component is its "
                               "own Lie idealiser",
                 "per-algebra", _check_self_idealising),
    TheoremCheck("Lemma-2.15", "the in-field generalized eigenspace sum of a bracket operator "
                               "closes under both products",
                 "per-algebra", _check_eigen_part_closed),
    TheoremCheck("Lemma-3.2", "an ideal inside the Frattini subalgebra of a subalgebra lies "
                              "in the ambient Frattini subalgebra",
                 "per-algebra", _check_frattini_of_subalgebra),
    TheoremCheck("Lemma-3.3", "Frattini data projects into, and under containment onto, the "
                              "quotient's Frattini data",
                 "per-algebra", _check_frattini_quotient),
    TheoremCheck("Lemma-3.4", "a quotient with trivial Frattini data bounds the ambient "
                              "Frattini data",
                 "per-algebra", _check_frattini_trivial_quotient),
    TheoremCheck("Thm-3.5", "the Frattini ideal of a direct sum is the sum of the summands'",
                 "per-pair", _check_direct_sum_frattini),
    TheoremCheck("Lemma-3.6", "a minimal supplement to an ideal meets it inside its own "
                              "Frattini ideal",
                 "per-algebra", _check_minimal_supplement),
    TheoremCheck("Lemma-3.7", "a zero ideal missing the Frattini ideal is complemented",
                 "per-algebra", _check_zero_ideal_splits),
    TheoremCheck("Thm-4.2", "nilpotency or a full flag passes from a quotient by a Frattini "
                            "ideal back to the subideal",
                 "per-algebra", _check_subideal_factor),
    TheoremCheck("Cor-4.3", "the Frattini ideal is nilpotent",
                 "per-algebra", _check_phi_nilpotent),
    TheoremCheck("Thm-4.5", "Frattini-free iff the algebra splits over its zero socle",
                 "per-algebra", _check_phi_free_split),
    TheoremCheck("Thm-4.6", "Frattini-free forces zero socle = nilradical = annihilator of "
                            "the socle",
                 "per-algebra", _check_phi_free_socle),
    TheoremCheck("Thm-4.7", "Frattini-free iff the nilradical is the zero socle, is "
                            "complemented, and the radical has zero dot square",
                 "per-algebra", _check_phi_free_shape),
    TheoremCheck("Cor-4.8", "solvable Frattini-free algebras have trivial dot square and "
                            "trivial Lie Frattini ideal, and conversely",
                 "per-algebra", _check_solvable_phi_free),
    TheoremCheck("Thm-4.9", "nilpotent iff the Frattini ideal is the square; then every "
                            "maximal subalgebra is an ideal",
                 "per-algebra", _check_nilpotent_iff_phi_square),
    TheoremCheck("Lemma-4.10", "all maximal subalgebras being ideals forces Lie nilpotency",
                 "per-algebra", _check_all_maximal_ideals_lie),
    TheoremCheck("Thm-4.11", "all maximal subalgebras are ideals iff nilpotent or an "
                             "idempotent line plus the nilradical",
                 "per-algebra", _check_max_ideal_classification),
)

REGISTRY_IDS = tuple(check.id for check in REGISTRY)
_BY_ID = {check.id: check for check in REGISTRY}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _run_guarded(check: TheoremCheck, args: tuple, budget: LatticeBudget) -> TheoremResult:
    """Run the check and stamp its verdict with the check id and the algebra
    names; the errors a check can meet become verdicts too."""
    try:
        verdict = check.runner(*args, budget)
    except BudgetExceededError as exc:
        verdict = _not_applicable(f"budget {exc.budget} exceeded: {exc.detail}")
    except FieldError as exc:
        verdict = _not_applicable(str(exc))
    except SeriesConsistencyError as exc:
        verdict = _outcome([{"error": "lower-central recursion mismatch", "step": exc.step,
                             "full": _fmt_space(exc.full),
                             "shortcut": _fmt_space(exc.shortcut)}], 1)
    except (StructureInconsistencyError, EngelClosureError) as exc:
        verdict = _outcome([{"error": str(exc)}], 1)
    return TheoremResult(check.id, " (+) ".join(a.name for a in args), *verdict)


def check_one(theorem_id: str, algebras,
              budget: LatticeBudget = DEFAULT_BUDGET) -> TheoremResult:
    """Run one named check on an algebra (or a pair for per-pair checks)."""
    if theorem_id not in _BY_ID:
        raise KeyError(f"unknown check {theorem_id!r}")
    check = _BY_ID[theorem_id]
    if isinstance(algebras, PoissonAlgebra):
        algebras = (algebras,)
    expected = 2 if check.scope == "per-pair" else 1
    if len(algebras) != expected:
        raise ValueError(f"{theorem_id} needs {expected} algebra(s)")
    return _run_guarded(check, tuple(algebras), budget)


def run_suite(corpus: Sequence[PoissonAlgebra], theorem_filter: str | None = None,
              budget: LatticeBudget = DEFAULT_BUDGET, jobs: int = 1) -> list:
    """Execute every applicable check over the corpus, deterministically.

    Per-pair checks run over a diagonal-order sample of same-field pairs
    capped at PAIR_LIMIT; the other quantifiers stop at CONFIG_LIMIT.
    Parallel execution only fans out independent pure calls, and results are
    ordered by (registry position, task position) regardless of jobs.  A
    theorem_filter naming no registered check raises ValueError, so a typo
    cannot pass for a clean run.
    """
    check_suite_request(theorem_filter, jobs)
    corpus = _uniquely_named(corpus)
    tasks = []
    for check in REGISTRY:
        if theorem_filter is not None and theorem_filter != check.id:
            continue
        if check.scope == "per-algebra":
            for alg in corpus:
                tasks.append((check, (alg,)))
        else:
            same_field_pairs = ((a, b) for a, b in _diagonal_pairs(corpus)
                                if a.field == b.field)
            for a, b in itertools.islice(same_field_pairs, PAIR_LIMIT):
                tasks.append((check, (a, b)))

    def run(task):
        check, args = task
        return _run_guarded(check, args, budget)

    if jobs > 1:
        # imported here: concurrent.futures (and the logging it loads) would
        # otherwise cost every palg command its import time
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]
    return results


def check_suite_request(theorem_filter: str | None, jobs: int) -> None:
    """Raise ValueError for a worker count that is not an int from 1 to 32
    or a theorem_filter naming no registered check.  The pool starts one
    thread per queued task up to its size, and 32 is ``ThreadPoolExecutor``'s
    own default ceiling.  ``run_suite`` checks both first; ``palg check``
    checks them before it reads the corpus, so a typo fails fast."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or not 1 <= jobs <= 32:
        raise ValueError(f"jobs must be an int from 1 to 32, got {jobs!r}")
    if theorem_filter is not None and theorem_filter not in _BY_ID:
        raise ValueError(f"unknown check {theorem_filter!r}; palg check --list names them")


def _diagonal_pairs(items: Sequence):
    """Deterministic diagonal enumeration of the pairs (items[i], items[j]),
    i <= j, by increasing i + j and then i; lazy, so a caller that stops
    early pays only for the pairs it takes."""
    n = len(items)
    for total in range(2 * n - 1):
        for i in range(max(0, total - n + 1), total // 2 + 1):
            yield items[i], items[total - i]


def _uniquely_named(corpus: Sequence[PoissonAlgebra]) -> list:
    """The corpus with each repeat of a name renamed "name#k", and every
    nameless algebra "unnamed#k" once the empty name repeats: k counts up
    from the name's last suffix, past every name the corpus gives or this
    renaming has assigned.  A name used once is kept."""
    taken = {alg.name for alg in corpus}
    last: dict = {"": 0} if sum(not alg.name for alg in corpus) > 1 else {}
    out = []
    for alg in corpus:
        if alg.name in last:
            base, k = alg.name or "unnamed", last[alg.name] + 1
            while f"{base}#{k}" in taken:
                k += 1
            last[alg.name] = k
            taken.add(f"{base}#{k}")
            alg = alg.with_name(f"{base}#{k}")
        else:
            last[alg.name] = 0
        out.append(alg)
    return out


def summarise(results: Sequence[TheoremResult]) -> dict:
    counts = {"pass": 0, "fail": 0, "not-applicable": 0, "vacuous": 0}
    for r in results:
        counts[r.status] += 1
        if r.status == PASS and r.exercised == 0:
            counts["vacuous"] += 1
    return counts
