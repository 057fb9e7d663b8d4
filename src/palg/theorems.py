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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

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
    embed_subspace,
    quotient_maps,
    project_subspace,
    subspace_product_dot,
    subspace_product_bracket,
    subspace_square,
)
from .engel import EngelClosureError, engel_assoc_space, engel_lie_space, s_space
from .fields import FieldError, FieldSpec
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
    verify_nilradical,
    verify_radical,
    zero_socle,
    CLASS_FAILS,
    _is_idempotent_line_split,
)
from .linalg import Subspace, subspace_intersect, subspace_sum
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


@dataclass(frozen=True)
class TheoremResult:
    theorem: str
    algebra: str
    status: str
    exercised: int = 0
    witness: dict | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"theorem": self.theorem, "algebra": self.algebra, "status": self.status,
               "exercised": self.exercised}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class TheoremCheck:
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


def _outcome(alg: PoissonAlgebra, check_id: str, failures: list, exercised: int,
             detail: str = "") -> TheoremResult:
    if failures:
        return TheoremResult(check_id, alg.name, FAIL, exercised, failures[0], detail)
    return TheoremResult(check_id, alg.name, PASS, exercised, None,
                         detail if detail else ("" if exercised else "vacuous"))


# ---------------------------------------------------------------------------
# configuration sources
# ---------------------------------------------------------------------------


def _known_subspaces_q(alg: PoissonAlgebra) -> list:
    """Subalgebras available without enumeration: series terms are all
    ideals, hence subalgebras."""
    out = [alg.full_space(), alg.zero_space()]
    for report in (derived_series(alg), lower_central_series(alg)):
        out.extend(report.terms)
    unique = []
    for s in out:
        if s not in unique:
            unique.append(s)
    return unique


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


def _meta_subspace(alg: PoissonAlgebra, key: str) -> Subspace | None:
    rows = alg.meta_value(key)
    if rows is None:
        return None
    parsed = [[alg.field.parse_scalar(x) if isinstance(x, str) else alg.field.coerce(x)
               for x in row] for row in rows]
    return Subspace.from_vectors(alg.field, alg.dim, parsed)


def _radical_nilradical(alg: PoissonAlgebra, budget: LatticeBudget):
    """(radical, nilradical) by discovery over finite fields, by verified
    metadata over the rationals; None when neither route applies."""
    if alg.field.is_finite:
        return radical(alg, budget), nilradical(alg, budget)
    rad, nil = _meta_subspace(alg, "radical"), _meta_subspace(alg, "nilradical")
    if rad is None or nil is None:
        return None
    if not verify_radical(alg, rad) or not verify_nilradical(alg, nil):
        return None
    return rad, nil


# ---------------------------------------------------------------------------
# the individual checks
# ---------------------------------------------------------------------------


def _check_axioms(alg: PoissonAlgebra, budget: LatticeBudget, limit: int) -> TheoremResult:
    violation = find_axiom_violation(alg)
    if violation is None:
        return TheoremResult("Def-1.1", alg.name, PASS, 1)
    witness = {"axiom": violation.axiom, "indices": list(violation.witness),
               "residual": _fmt_vec(alg.field, violation.residual)}
    return TheoremResult("Def-1.1", alg.name, FAIL, 1, witness)


def _check_assoc_power_bracket(alg: PoissonAlgebra, budget: LatticeBudget,
                               limit: int) -> TheoremResult:
    subs = _subalgebra_configs(alg, budget)
    failures, exercised = [], 0
    for b, c in itertools.islice(_diagonal_pairs(subs), limit):
        bc = subspace_product_bracket(alg, b, c)
        power = b
        for n in range(1, alg.dim + 2):
            lhs = subspace_product_bracket(alg, power, c)
            rhs = bc if n == 1 else subspace_product_dot(alg, prev_power, bc)
            exercised += 1
            if not rhs.contains(lhs):
                failures.append({"b": _fmt_space(b), "c": _fmt_space(c), "n": n,
                                 "lhs": _fmt_space(lhs), "rhs": _fmt_space(rhs)})
                break
            prev_power = power
            power = subspace_product_dot(alg, power, b)
        if failures:
            break
    return _outcome(alg, "Lemma-2.1", failures, exercised)


def _check_ideal_dot_product(alg: PoissonAlgebra, budget: LatticeBudget,
                             limit: int) -> TheoremResult:
    ideals = _ideal_configs(alg, budget)
    failures, exercised = [], 0
    for b, c in itertools.islice(_diagonal_pairs(ideals), limit):
        product = subspace_product_dot(alg, b, c)
        exercised += 1
        defect = ideal_defect(alg, product)
        if defect is not None:
            failures.append({"b": _fmt_space(b), "c": _fmt_space(c),
                             "product": _fmt_space(product),
                             "escape": _fmt_vec(alg.field, defect[3])})
            break
    return _outcome(alg, "Lemma-2.2", failures, exercised)


def _check_minimal_in_nilpotent(alg: PoissonAlgebra, budget: LatticeBudget,
                                limit: int) -> TheoremResult:
    if not alg.field.is_finite:
        return TheoremResult("Lemma-2.3", alg.name, PASS, 0,
                             detail="vacuous: minimal ideals need a finite field")
    mins = minimal_ideals(alg, budget)
    nil_ideals = [s for s in lattice_profile(alg, budget).ideals()
                  if lower_central_series(alg, s).terminates]
    failures, exercised = [], 0
    for b in mins:
        for n in nil_ideals:
            if not n.contains(b):
                continue
            exercised += 1
            ann = annihilator(alg, n).space
            if not ann.contains(b):
                failures.append({"minimal": _fmt_space(b), "nilpotent": _fmt_space(n),
                                 "annihilator": _fmt_space(ann)})
    return _outcome(alg, "Lemma-2.3", failures, exercised)


def _check_nilpotent_iff_both(alg: PoissonAlgebra, budget: LatticeBudget,
                              limit: int) -> TheoremResult:
    nil = is_nilpotent(alg)
    both = is_assoc_nilpotent(alg) and is_lie_nilpotent(alg)
    if nil != both:
        witness = {"nilpotent": nil, "assoc_and_lie_nilpotent": both}
        return TheoremResult("Prop-2.4", alg.name, FAIL, 1, witness)
    return TheoremResult("Prop-2.4", alg.name, PASS, 1)


def _check_radical_square(alg: PoissonAlgebra, budget: LatticeBudget,
                          limit: int) -> TheoremResult:
    pair = _radical_nilradical(alg, budget)
    if pair is None:
        return TheoremResult("Thm-2.6", alg.name, NOT_APPLICABLE, 0,
                             detail="radical and nilradical unavailable over Q without metadata")
    rad, nil = pair
    square = subspace_product_dot(alg, rad, rad)
    if nil.contains(square):
        return TheoremResult("Thm-2.6", alg.name, PASS, 1)
    witness = {"radical": _fmt_space(rad), "nilradical": _fmt_space(nil),
               "radical_dot_square": _fmt_space(square)}
    return TheoremResult("Thm-2.6", alg.name, FAIL, 1, witness)


def _check_radical_square_char0(alg: PoissonAlgebra, budget: LatticeBudget,
                                limit: int) -> TheoremResult:
    if alg.field.characteristic != 0:
        return TheoremResult("Cor-2.7", alg.name, NOT_APPLICABLE, 0,
                             detail="needs characteristic zero")
    pair = _radical_nilradical(alg, budget)
    if pair is None:
        return TheoremResult("Cor-2.7", alg.name, NOT_APPLICABLE, 0,
                             detail="radical unavailable without verified metadata")
    rad, _ = pair
    square = subspace_square(alg, rad)
    if lower_central_series(alg, square).terminates:
        return TheoremResult("Cor-2.7", alg.name, PASS, 1)
    return TheoremResult("Cor-2.7", alg.name, FAIL, 1,
                         {"radical": _fmt_space(rad), "square": _fmt_space(square)})


def _check_supersolvable_square(alg: PoissonAlgebra, budget: LatticeBudget,
                                limit: int) -> TheoremResult:
    super_ok, _ = is_supersolvable(alg)
    detail = ("hypothesis restricted to solvable algebras: a flag of ideals alone "
              "admits idempotent lines, whose square is not nilpotent")
    if not (super_ok and is_solvable(alg)):
        return TheoremResult("Prop-2.8", alg.name, PASS, 0, detail="vacuous; " + detail)
    square = subspace_square(alg, alg.full_space())
    if lower_central_series(alg, square).terminates:
        return TheoremResult("Prop-2.8", alg.name, PASS, 1, detail=detail)
    return TheoremResult("Prop-2.8", alg.name, FAIL, 1, {"square": _fmt_space(square)}, detail)


def _check_annihilator_in_nilradical(alg: PoissonAlgebra, budget: LatticeBudget,
                                     limit: int) -> TheoremResult:
    pair = _radical_nilradical(alg, budget)
    if pair is None:
        return TheoremResult("Lemma-2.9", alg.name, NOT_APPLICABLE, 0,
                             detail="radical and nilradical unavailable over Q without metadata")
    rad, nil = pair
    ann_in_rad = subspace_intersect(annihilator(alg, nil).space, rad)
    if nil.contains(ann_in_rad):
        return TheoremResult("Lemma-2.9", alg.name, PASS, 1)
    return TheoremResult("Lemma-2.9", alg.name, FAIL, 1,
                         {"radical": _fmt_space(rad), "nilradical": _fmt_space(nil),
                          "annihilator_in_radical": _fmt_space(ann_in_rad)})


def _check_engel_subalgebras(alg: PoissonAlgebra, budget: LatticeBudget,
                             limit: int) -> TheoremResult:
    failures, exercised = [], 0
    for a in _element_configs(alg, budget):
        exercised += 1
        for label, space in (("assoc", engel_assoc_space(alg, a)),
                             ("lie", engel_lie_space(alg, a))):
            defect = subalgebra_defect(alg, space)
            if defect is not None:
                failures.append({"element": _fmt_vec(alg.field, a), "kind": label,
                                 "engel_space": _fmt_space(space),
                                 "x": _fmt_vec(alg.field, defect[0]),
                                 "y": _fmt_vec(alg.field, defect[1]),
                                 "product_kind": defect[2],
                                 "product": _fmt_vec(alg.field, defect[3])})
        if failures:
            break
    return _outcome(alg, "Lemma-2.11", failures, exercised)


def _check_self_idealising(alg: PoissonAlgebra, budget: LatticeBudget,
                           limit: int) -> TheoremResult:
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
            idealiser_space = lie_idealiser(alg, u).space
            if idealiser_space != u:
                failures.append({"element": _fmt_vec(alg.field, a),
                                 "subalgebra": _fmt_space(u),
                                 "lie_idealiser": _fmt_space(idealiser_space)})
                break
        if failures:
            break
    return _outcome(alg, "Lemma-2.13", failures, exercised)


def _check_eigen_part_closed(alg: PoissonAlgebra, budget: LatticeBudget,
                             limit: int) -> TheoremResult:
    failures, exercised = [], 0
    for a in _element_configs(alg, budget):
        exercised += 1
        space = s_space(alg, a)
        defect = subalgebra_defect(alg, space)
        if defect is not None:
            failures.append({"element": _fmt_vec(alg.field, a),
                             "eigen_part": _fmt_space(space),
                             "x": _fmt_vec(alg.field, defect[0]),
                             "y": _fmt_vec(alg.field, defect[1]),
                             "product_kind": defect[2],
                             "product": _fmt_vec(alg.field, defect[3])})
            break
    return _outcome(alg, "Lemma-2.15", failures, exercised)


def _require_finite(alg: PoissonAlgebra, check_id: str) -> TheoremResult | None:
    if not alg.field.is_finite:
        return TheoremResult(check_id, alg.name, NOT_APPLICABLE, 0,
                             detail="lattice discovery needs a finite field")
    return None


def _check_frattini_of_subalgebra(alg: PoissonAlgebra, budget: LatticeBudget,
                                  limit: int) -> TheoremResult:
    na = _require_finite(alg, "Lemma-3.2")
    if na:
        return na
    f_ambient = frattini(alg, budget)[0]
    ideals = _ideal_configs(alg, budget)
    failures, exercised = [], 0
    for c in _subalgebra_configs(alg, budget):
        if exercised >= limit:
            break
        c_alg, embed = subalgebra_algebra(alg, c)
        f_c = embed_subspace(embed, frattini(c_alg, budget)[0])
        for b in ideals:
            if not f_c.contains(b):
                continue
            exercised += 1
            if not f_ambient.contains(b):
                failures.append({"subalgebra": _fmt_space(c), "ideal": _fmt_space(b),
                                 "frattini_of_subalgebra": _fmt_space(f_c),
                                 "frattini": _fmt_space(f_ambient)})
    return _outcome(alg, "Lemma-3.2", failures, exercised)


def _check_frattini_quotient(alg: PoissonAlgebra, budget: LatticeBudget,
                             limit: int) -> TheoremResult:
    na = _require_finite(alg, "Lemma-3.3")
    if na:
        return na
    f_space, phi = frattini(alg, budget)
    failures, exercised = [], 0
    for b in _ideal_configs(alg, budget)[:limit]:
        data = quotient_maps(alg, b)
        f_q, phi_q = frattini(data.algebra, budget)
        f_img = project_subspace(data, f_space)
        phi_img = project_subspace(data, phi)
        exercised += 1
        if not f_q.contains(f_img) or not phi_q.contains(phi_img):
            failures.append({"ideal": _fmt_space(b), "projected_f": _fmt_space(f_img),
                             "quotient_f": _fmt_space(f_q),
                             "projected_phi": _fmt_space(phi_img),
                             "quotient_phi": _fmt_space(phi_q)})
            continue
        if f_space.contains(b) and (f_img != f_q or phi_img != phi_q):
            failures.append({"ideal": _fmt_space(b), "projected_f": _fmt_space(f_img),
                             "quotient_f": _fmt_space(f_q),
                             "projected_phi": _fmt_space(phi_img),
                             "quotient_phi": _fmt_space(phi_q),
                             "clause": "equality under B inside F"})
    detail = ("first inclusion read as image of the ideal core inside the core of "
              "the quotient; the displayed right side is taken to mean the "
              "quotient's own core")
    return _outcome(alg, "Lemma-3.3", failures, exercised, detail)


def _check_frattini_trivial_quotient(alg: PoissonAlgebra, budget: LatticeBudget,
                                     limit: int) -> TheoremResult:
    na = _require_finite(alg, "Lemma-3.4")
    if na:
        return na
    f_space, phi = frattini(alg, budget)
    failures, exercised = [], 0
    for r in _ideal_configs(alg, budget)[:limit]:
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
    return _outcome(alg, "Lemma-3.4", failures, exercised)


def _check_direct_sum_frattini(a: PoissonAlgebra, b: PoissonAlgebra,
                               budget: LatticeBudget, limit: int) -> TheoremResult:
    name = f"{a.name} (+) {b.name}"
    if not a.field.is_finite:
        return TheoremResult("Thm-3.5", name, NOT_APPLICABLE, 0,
                             detail="lattice discovery needs a finite field")
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
        return TheoremResult("Thm-3.5", name, PASS, 1)
    return TheoremResult("Thm-3.5", name, FAIL, 1,
                         {"phi_of_sum": _fmt_space(phi_sum), "expected": _fmt_space(expected)})


def _check_minimal_supplement(alg: PoissonAlgebra, budget: LatticeBudget,
                              limit: int) -> TheoremResult:
    na = _require_finite(alg, "Lemma-3.6")
    if na:
        return na
    subalgebras = _subalgebra_configs(alg, budget)
    full = alg.full_space()
    failures, exercised = [], 0
    for b in _ideal_configs(alg, budget):
        if exercised >= limit:
            break
        supplements = [u for u in subalgebras if subspace_sum(b, u) == full]
        for u in supplements:
            if any(other.dim < u.dim and u.contains(other) for other in supplements):
                continue  # not minimal
            if exercised >= limit:
                break
            exercised += 1
            u_alg, embed = subalgebra_algebra(alg, u)
            phi_u = embed_subspace(embed, frattini(u_alg, budget)[1])
            meet = subspace_intersect(b, u)
            if not phi_u.contains(meet):
                failures.append({"ideal": _fmt_space(b), "supplement": _fmt_space(u),
                                 "intersection": _fmt_space(meet),
                                 "phi_of_supplement": _fmt_space(phi_u)})
    return _outcome(alg, "Lemma-3.6", failures, exercised)


def _check_zero_ideal_splits(alg: PoissonAlgebra, budget: LatticeBudget,
                             limit: int) -> TheoremResult:
    na = _require_finite(alg, "Lemma-3.7")
    if na:
        return na
    phi = frattini(alg, budget)[1]
    failures, exercised = [], 0
    for b in _ideal_configs(alg, budget)[:limit]:
        if not subspace_square(alg, b).is_zero():
            continue
        if not subspace_intersect(b, phi).is_zero():
            continue
        exercised += 1
        if splits_over(alg, b, budget) is None:
            failures.append({"zero_ideal": _fmt_space(b)})
    return _outcome(alg, "Lemma-3.7", failures, exercised)


def _check_subideal_factor(alg: PoissonAlgebra, budget: LatticeBudget,
                           limit: int) -> TheoremResult:
    na = _require_finite(alg, "Thm-4.2")
    if na:
        return na
    phi = frattini(alg, budget)[1]
    profile = lattice_profile(alg, budget)
    failures, exercised = [], 0
    for b in profile.subalgebras():
        if exercised >= limit or failures:
            break
        if not is_subideal(alg, b):
            continue
        b_alg, embed = subalgebra_algebra(alg, b)
        pivots = b.pivots
        for c in profile.subspaces:
            if exercised >= limit:
                break
            if not (phi.contains(c) and b.contains(c)):
                continue
            if any(not c.contains_vector(alg.mul_dot(x, y))
                   or not c.contains_vector(alg.mul_bracket(x, y))
                   for x in c.rows() for y in b.rows()):
                continue  # not an ideal of b
            c_inside = Subspace.from_vectors(b_alg.field, b_alg.dim,
                                             [tuple(r[p] for p in pivots) for r in c.rows()])
            data = quotient_maps(b_alg, c_inside)
            if lower_central_series(data.algebra).terminates:
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
    return _outcome(alg, "Thm-4.2", failures, exercised)


def _check_phi_nilpotent(alg: PoissonAlgebra, budget: LatticeBudget,
                         limit: int) -> TheoremResult:
    na = _require_finite(alg, "Cor-4.3")
    if na:
        return na
    phi = frattini(alg, budget)[1]
    if lower_central_series(alg, phi).terminates:
        return TheoremResult("Cor-4.3", alg.name, PASS, 1)
    return TheoremResult("Cor-4.3", alg.name, FAIL, 1, {"phi": _fmt_space(phi)})


def _check_phi_free_split(alg: PoissonAlgebra, budget: LatticeBudget,
                          limit: int) -> TheoremResult:
    na = _require_finite(alg, "Thm-4.5")
    if na:
        return na
    phi = frattini(alg, budget)[1]
    zsoc = zero_socle(alg, budget)
    complement = splits_over(alg, zsoc, budget)
    if phi.is_zero() == (complement is not None):
        return TheoremResult("Thm-4.5", alg.name, PASS, 1)
    return TheoremResult("Thm-4.5", alg.name, FAIL, 1,
                         {"phi": _fmt_space(phi), "zero_socle": _fmt_space(zsoc),
                          "split_found": complement is not None})


def _check_phi_free_socle(alg: PoissonAlgebra, budget: LatticeBudget,
                          limit: int) -> TheoremResult:
    na = _require_finite(alg, "Thm-4.6")
    if na:
        return na
    phi = frattini(alg, budget)[1]
    if not phi.is_zero():
        return TheoremResult("Thm-4.6", alg.name, PASS, 0, detail="vacuous: not phi-free")
    zsoc = zero_socle(alg, budget)
    nil = nilradical(alg, budget)
    ann = annihilator(alg, socle(alg, budget)).space
    if zsoc == nil == ann:
        return TheoremResult("Thm-4.6", alg.name, PASS, 1)
    return TheoremResult("Thm-4.6", alg.name, FAIL, 1,
                         {"zero_socle": _fmt_space(zsoc), "nilradical": _fmt_space(nil),
                          "annihilator_of_socle": _fmt_space(ann)})


def _check_phi_free_shape(alg: PoissonAlgebra, budget: LatticeBudget,
                          limit: int) -> TheoremResult:
    if not alg.field.is_finite:
        return _check_phi_free_shape_q(alg)
    phi = frattini(alg, budget)[1]
    rad = radical(alg, budget)
    nil = nilradical(alg, budget)
    zsoc = zero_socle(alg, budget)
    split = splits_over(alg, nil, budget)
    rad_dot_sq = subspace_product_dot(alg, rad, rad)
    shape = (nil == zsoc) and (split is not None) and rad_dot_sq.is_zero()
    if phi.is_zero() == shape:
        return TheoremResult("Thm-4.7", alg.name, PASS, 1)
    return TheoremResult("Thm-4.7", alg.name, FAIL, 1,
                         {"phi": _fmt_space(phi), "nilradical": _fmt_space(nil),
                          "zero_socle": _fmt_space(zsoc),
                          "split_found": split is not None,
                          "radical_dot_square": _fmt_space(rad_dot_sq)})


def _check_phi_free_shape_q(alg: PoissonAlgebra) -> TheoremResult:
    """Characteristic-zero clause on explicitly supplied configurations: with
    a verified radical, complement and nilradical and a phi-free claim, the
    full square of (complement meet radical) must vanish.  The weaker
    dot-square variants are reported in the detail, not asserted."""
    if alg.meta_value("phi_free") is not True:
        return TheoremResult("Thm-4.7", alg.name, NOT_APPLICABLE, 0,
                             detail="needs phi_free metadata plus a verified complement over Q")
    rad = _meta_subspace(alg, "radical")
    comp = _meta_subspace(alg, "complement")
    nil = _meta_subspace(alg, "nilradical")
    if rad is None or comp is None or nil is None or not verify_radical(alg, rad) \
            or not verify_nilradical(alg, nil):
        return TheoremResult("Thm-4.7", alg.name, NOT_APPLICABLE, 0,
                             detail="metadata configuration missing or unverifiable")
    if subalgebra_defect(alg, comp) is not None or \
            not subspace_intersect(comp, nil).is_zero() or \
            subspace_sum(comp, nil).dim != alg.dim:
        return TheoremResult("Thm-4.7", alg.name, NOT_APPLICABLE, 0,
                             detail="complement metadata is not a complementary subalgebra")
    meet = subspace_intersect(comp, rad)
    full_square = subspace_square(alg, meet)
    dot_square = subspace_product_dot(alg, meet, meet)
    rad_dot_sq = subspace_product_dot(alg, rad, rad)
    detail = (f"variants: (U meet R) dot-square zero: {dot_square.is_zero()}; "
              f"radical dot-square zero: {rad_dot_sq.is_zero()}")
    if full_square.is_zero():
        return TheoremResult("Thm-4.7", alg.name, PASS, 1, detail=detail)
    return TheoremResult("Thm-4.7", alg.name, FAIL, 1,
                         {"meet": _fmt_space(meet), "square": _fmt_space(full_square)}, detail)


def _check_solvable_phi_free(alg: PoissonAlgebra, budget: LatticeBudget,
                             limit: int) -> TheoremResult:
    na = _require_finite(alg, "Cor-4.8")
    if na:
        return na
    if not is_solvable(alg):
        return TheoremResult("Cor-4.8", alg.name, PASS, 0, detail="vacuous: not solvable")
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
    return _outcome(alg, "Cor-4.8", failures, 1)


def _check_nilpotent_iff_phi_square(alg: PoissonAlgebra, budget: LatticeBudget,
                                    limit: int) -> TheoremResult:
    na = _require_finite(alg, "Thm-4.9")
    if na:
        return na
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
    return _outcome(alg, "Thm-4.9", failures, 1)


def _check_all_maximal_ideals_lie(alg: PoissonAlgebra, budget: LatticeBudget,
                                  limit: int) -> TheoremResult:
    na = _require_finite(alg, "Lemma-4.10")
    if na:
        return na
    if not all(is_ideal(alg, m) for m in maximal_subalgebras(alg, budget)):
        return TheoremResult("Lemma-4.10", alg.name, PASS, 0,
                             detail="vacuous: some maximal subalgebra is not an ideal")
    if is_lie_nilpotent(alg):
        return TheoremResult("Lemma-4.10", alg.name, PASS, 1)
    return TheoremResult("Lemma-4.10", alg.name, FAIL, 1, {})


def _check_max_ideal_classification(alg: PoissonAlgebra, budget: LatticeBudget,
                                    limit: int) -> TheoremResult:
    na = _require_finite(alg, "Thm-4.11")
    if na:
        return na
    classification = classify_max_ideal_property(alg, budget)
    if classification.kind != CLASS_FAILS:
        return TheoremResult("Thm-4.11", alg.name, PASS, 1,
                             detail=f"shape: {classification.kind}")
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
    return _outcome(alg, "Thm-4.11", failures, 1,
                    detail="shape: fails (converse direction exercised)")


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


def _run_guarded(check: TheoremCheck, args: tuple, budget: LatticeBudget,
                 limit: int) -> TheoremResult:
    names = " (+) ".join(a.name for a in args)
    try:
        return check.runner(*args, budget, limit)
    except BudgetExceededError as exc:
        return TheoremResult(check.id, names, NOT_APPLICABLE, 0,
                             detail=f"budget {exc.budget} exceeded: {exc.detail}")
    except FieldError as exc:
        return TheoremResult(check.id, names, NOT_APPLICABLE, 0, detail=str(exc))
    except SeriesConsistencyError as exc:
        witness = {"error": "lower-central recursion mismatch", "step": exc.step,
                   "full": _fmt_space(exc.full), "shortcut": _fmt_space(exc.shortcut)}
        return TheoremResult(check.id, names, FAIL, 1, witness)
    except (StructureInconsistencyError, EngelClosureError) as exc:
        return TheoremResult(check.id, names, FAIL, 1, {"error": str(exc)})


def check_one(theorem_id: str, algebras, budget: LatticeBudget = DEFAULT_BUDGET,
              config_limit: int = 256) -> TheoremResult:
    """Run one named check on an algebra (or a pair for per-pair checks)."""
    if theorem_id not in _BY_ID:
        raise KeyError(f"unknown check {theorem_id!r}")
    check = _BY_ID[theorem_id]
    if isinstance(algebras, PoissonAlgebra):
        algebras = (algebras,)
    expected = 2 if check.scope == "per-pair" else 1
    if len(algebras) != expected:
        raise ValueError(f"{theorem_id} needs {expected} algebra(s)")
    return _run_guarded(check, tuple(algebras), budget, config_limit)


def run_suite(corpus: Sequence[PoissonAlgebra], theorem_filter: str | None = None,
              budget: LatticeBudget = DEFAULT_BUDGET, jobs: int = 1,
              config_limit: int = 256, pair_limit: int = 64) -> list:
    """Execute every applicable check over the corpus, deterministically.

    Per-pair checks run over a diagonal-order sample of same-field pairs
    capped at pair_limit; all other quantifier caps come from config_limit.
    Parallel execution only fans out independent pure calls, and results are
    ordered by (registry position, task position) regardless of jobs.
    """
    corpus = _uniquely_named(corpus)
    tasks = []
    for check in REGISTRY:
        if theorem_filter and theorem_filter != check.id:
            continue
        if check.scope == "per-algebra":
            for alg in corpus:
                tasks.append((check, (alg,)))
        else:
            same_field_pairs = [(a, b) for a, b in _diagonal_pairs(corpus)
                                if a.field == b.field]
            for a, b in same_field_pairs[:pair_limit]:
                tasks.append((check, (a, b)))

    def run(task):
        check, args = task
        return _run_guarded(check, args, budget, config_limit)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]
    return results


def _diagonal_pairs(items: Sequence):
    """Deterministic diagonal enumeration of the pairs (items[i], items[j]), i <= j."""
    for total in range(2 * len(items) - 1):
        for i in range(len(items)):
            j = total - i
            if i <= j < len(items):
                yield items[i], items[j]


def _uniquely_named(corpus: Sequence[PoissonAlgebra]) -> list:
    seen: dict = {}
    out = []
    for alg in corpus:
        name = alg.name or "unnamed"
        if name in seen:
            seen[name] += 1
            alg = alg.with_name(f"{name}#{seen[name]}")
        else:
            seen[name] = 0
        out.append(alg)
    return out


def summarise(results: Sequence[TheoremResult]) -> dict:
    counts = {"pass": 0, "fail": 0, "not-applicable": 0, "vacuous": 0}
    for r in results:
        counts[r.status] += 1
        if r.status == PASS and r.exercised == 0:
            counts["vacuous"] += 1
    return counts
