import json
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from palg.algebra import (
    BRACKET,
    DOT,
    PoissonAlgebra,
    direct_sum,
    is_assoc_subalgebra,
    is_ideal,
    is_lie_subalgebra,
    is_subideal,
    subalgebra_algebra,
    subspace_product_dot,
    tensors_from_maps,
)
from palg.corpus import (
    curated_corpus,
    enumerate_poisson_structures,
    heisenberg_zero_dot,
    idempotent_line,
    two_dim_nonabelian,
    xyz_algebra,
    zero_algebra,
)
from palg.fields import FieldSpec
from palg.lattice import DEFAULT_BUDGET, LatticeBudget, frattini, lattice_profile
from palg import _cache, algebra, series, theorems
from palg.linalg import Subspace, subspace_image
from palg.theorems import (
    NOT_APPLICABLE,
    PASS,
    REGISTRY,
    REGISTRY_IDS,
    check_one,
    run_suite,
    summarise,
)

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()

# the complete list of numbered statements with executable content; the
# proofs themselves, and externally imported facts used inside them, have no
# entries, and Def-1.1 carries the axioms of the structure itself
EXPECTED_IDS = (
    "Def-1.1",
    "Lemma-2.1", "Lemma-2.2", "Lemma-2.3", "Prop-2.4", "Thm-2.6", "Cor-2.7",
    "Prop-2.8", "Lemma-2.9", "Lemma-2.11", "Lemma-2.13", "Lemma-2.15",
    "Lemma-3.2", "Lemma-3.3", "Lemma-3.4", "Thm-3.5", "Lemma-3.6", "Lemma-3.7",
    "Thm-4.2", "Cor-4.3", "Thm-4.5", "Thm-4.6", "Thm-4.7", "Cor-4.8",
    "Thm-4.9", "Lemma-4.10", "Thm-4.11",
)


def test_registry_is_complete_and_minimal():
    assert REGISTRY_IDS == EXPECTED_IDS
    assert len({c.id for c in REGISTRY}) == len(REGISTRY)


def test_check_one_against_named_algebras():
    res = check_one("Thm-4.9", heisenberg_zero_dot(GF2))
    assert res.status == PASS and res.exercised == 1
    res = check_one("Thm-4.11", idempotent_line(GF2))
    assert res.status == PASS and "Fe-plus-N" in res.detail
    res = check_one("Cor-2.7", zero_algebra(GF2, 2))
    assert res.status == NOT_APPLICABLE
    res = check_one("Cor-2.7", zero_algebra(Q, 2).with_meta({
        "radical": [["1", "0"], ["0", "1"]], "nilradical": [["1", "0"], ["0", "1"]]}))
    assert res.status == PASS
    with pytest.raises(KeyError):
        check_one("Thm-9.9", zero_algebra(GF2, 1))
    with pytest.raises(ValueError):
        check_one("Thm-3.5", zero_algebra(GF2, 1))


def test_pair_check_on_direct_sums():
    res = check_one("Thm-3.5", (heisenberg_zero_dot(GF2), two_dim_nonabelian(GF2)))
    assert res.status == PASS


@pytest.mark.parametrize("bad", [0, -4, 1.5, True])
def test_run_suite_rejects_jobs_below_one(bad):
    # jobs=0 and jobs=-4 used to run serially without a word
    with pytest.raises(ValueError, match="jobs"):
        run_suite([two_dim_nonabelian(GF3)], theorem_filter="Prop-2.4", jobs=bad)


def test_run_suite_rejects_more_than_32_jobs():
    # the pool starts a thread per queued task up to its size, so a large
    # jobs would start that many threads on a large corpus
    with pytest.raises(ValueError, match="jobs must be an int from 1 to 32"):
        run_suite([two_dim_nonabelian(GF3)], theorem_filter="Prop-2.4", jobs=33)
    assert len(run_suite([two_dim_nonabelian(GF3)], theorem_filter="Prop-2.4", jobs=32)) == 1


@pytest.mark.parametrize("bad", ["Bogus", "prop-2.4", "Prop-2.4 ", ""])
def test_run_suite_rejects_an_unknown_check_id(bad):
    # an unknown id used to filter every check out and return no results
    with pytest.raises(ValueError, match=repr(bad)):
        run_suite([two_dim_nonabelian(GF3)], theorem_filter=bad)


def test_the_quantifier_caps_are_constants():
    # the caps are fixed, so a call that tries to set one fails at once
    assert (theorems.CONFIG_LIMIT, theorems.PAIR_LIMIT) == (256, 64)
    with pytest.raises(TypeError, match="config_limit"):
        check_one("Lemma-3.3", two_dim_nonabelian(GF3), config_limit=0)
    with pytest.raises(TypeError, match="pair_limit"):
        run_suite([two_dim_nonabelian(GF3)], theorem_filter="Thm-3.5", pair_limit=0)


def test_zero_limits_are_accepted(monkeypatch):
    # the runners read the caps when they run, so zero truncates to nothing
    algs = [two_dim_nonabelian(GF3), heisenberg_zero_dot(GF3)]
    monkeypatch.setattr(theorems, "PAIR_LIMIT", 0)
    assert run_suite(algs, theorem_filter="Thm-3.5") == []
    monkeypatch.setattr(theorems, "PAIR_LIMIT", 2)
    assert len(run_suite(algs, theorem_filter="Thm-3.5")) == 2
    monkeypatch.setattr(theorems, "CONFIG_LIMIT", 0)
    res = check_one("Lemma-3.3", two_dim_nonabelian(GF3))
    assert res.status == PASS and res.exercised == 0


def _diagonal_pairs_by_double_loop(items):
    """Test oracle: the diagonal order as a scan of every i on every diagonal."""
    for total in range(2 * len(items) - 1):
        for i in range(len(items)):
            j = total - i
            if i <= j < len(items):
                yield items[i], items[j]


@pytest.mark.parametrize("n", range(13))
def test_diagonal_pairs_keep_the_double_loop_order(n):
    items = list(range(n))
    assert list(theorems._diagonal_pairs(items)) == list(_diagonal_pairs_by_double_loop(items))


def test_the_suite_draws_only_the_pairs_it_keeps(monkeypatch):
    # 40 algebras alternating GF(2) and GF(3): the same-field pairs are the
    # ones of equal parity, and the 64th is found long before the 820th pair
    corpus = [alg for two_three in zip(enumerate_poisson_structures(2, 2)[:20],
                                       enumerate_poisson_structures(2, 3)[:20])
              for alg in two_three]
    same_field = [k for k, (a, b) in enumerate(_diagonal_pairs_by_double_loop(corpus))
                  if a.field == b.field]
    drawn = []
    diagonal_pairs = theorems._diagonal_pairs

    def counting(items):
        for pair in diagonal_pairs(items):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(theorems, "_diagonal_pairs", counting)
    monkeypatch.setattr(theorems, "_run_guarded", lambda check, args, budget: args)
    tasks = run_suite(corpus, theorem_filter="Thm-3.5")
    assert len(tasks) == theorems.PAIR_LIMIT
    assert len(drawn) == same_field[theorems.PAIR_LIMIT - 1] + 1 < len(corpus) * 41 // 2
    assert tasks == [pair for pair in drawn if pair[0].field == pair[1].field]


def test_suite_over_zero_corpus_all_pass():
    corpus = [zero_algebra(GF2, n) for n in range(1, 4)]
    results = run_suite(corpus)
    counts = summarise(results)
    assert counts["fail"] == 0
    assert counts["pass"] > 0


def test_vacuous_passes_are_flagged():
    # the idempotent line is not solvable, so the flag-square check is vacuous
    res = check_one("Prop-2.8", idempotent_line(GF2))
    assert res.status == PASS and res.exercised == 0


def test_not_applicable_over_rationals_for_lattice_checks():
    res = check_one("Thm-4.5", zero_algebra(Q, 2))
    assert res.status == NOT_APPLICABLE


def test_budget_overrun_is_reported_not_raised():
    res = check_one("Thm-4.5", zero_algebra(GF2, 3), budget=LatticeBudget(max_dim=2))
    assert res.status == NOT_APPLICABLE and "max_dim" in res.detail


def test_metadata_driven_q_checks():
    s = two_dim_nonabelian(Q).with_meta({
        "radical": [["1", "0"], ["0", "1"]],
        "nilradical": [["1", "0"]],
        "phi_free": True,
        "complement": [["0", "1"]],
    })
    for check_id in ("Thm-2.6", "Cor-2.7", "Lemma-2.9", "Thm-4.7"):
        res = check_one(check_id, s)
        assert res.status == PASS, (check_id, res.detail)
    assert "dot-square" in check_one("Thm-4.7", s).detail


# ---------------------------------------------------------------------------
# negative controls: violating tensors must make checks fail with witnesses
# ---------------------------------------------------------------------------


def _broken(field, dim, dot_entries, bracket_entries, symmetrise=True):
    if symmetrise:
        tensors = tensors_from_maps(field, dim, dot_entries, bracket_entries)
        return PoissonAlgebra(field, dim, tensors.dot, tensors.bracket, name="broken")
    z = field.zero()
    dot = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in dot_entries.items():
        dot[i][j][k] = field.coerce(c)
    bracket = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in bracket_entries.items():
        bracket[i][j][k] = field.coerce(c)
    freeze = lambda t: tuple(tuple(tuple(l) for l in p) for p in t)
    return PoissonAlgebra(field, dim, freeze(dot), freeze(bracket), name="broken")


AXIOM_VIOLATORS = {
    "commutativity": _broken(GF3, 2, {(0, 1, 0): 1}, {}, symmetrise=False),
    "associativity": _broken(GF3, 2, {(0, 1, 0): 1}, {}),
    "alternating": _broken(GF3, 2, {}, {(0, 0, 1): 1}, symmetrise=False),
    "jacobi": _broken(GF5, 3, {}, {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 0): -1}),
    "leibniz": xyz_algebra(GF5, allow_invalid=True),
}


@pytest.mark.parametrize("axiom", sorted(AXIOM_VIOLATORS))
def test_each_axiom_violator_fails_at_least_one_check(axiom):
    from palg.algebra import evaluate_axiom
    from palg.linalg import vec_is_zero
    alg = AXIOM_VIOLATORS[axiom]
    budget = LatticeBudget(max_q=5)
    results = run_suite([alg], budget=budget)
    failures = [r for r in results if r.status == "fail"]
    assert failures, f"no check failed for the {axiom} violator"
    axiom_failures = [r for r in failures if r.theorem == "Def-1.1"]
    assert axiom_failures and axiom_failures[0].witness["axiom"] == axiom
    witness = axiom_failures[0].witness
    residual = evaluate_axiom(alg, witness["axiom"], tuple(witness["indices"]))
    assert [alg.field.format_scalar(x) for x in residual] == witness["residual"]
    assert not vec_is_zero(residual)


def test_leibniz_violator_breaks_a_genuine_theorem():
    bad = xyz_algebra(GF5, allow_invalid=True)
    budget = LatticeBudget(max_q=5)
    results = run_suite([bad], budget=budget)
    by_id = {r.theorem: r for r in results}
    res = by_id["Lemma-2.11"]
    assert res.status == "fail"
    witness = res.witness
    # re-evaluate: the witnessed product escapes the witnessed subspace
    f = bad.field
    parse_vec = lambda v: tuple(f.parse_scalar(x) for x in v)
    space = Subspace.from_vectors(f, bad.dim,
                                  [parse_vec(r) for r in witness["engel_space"]["basis"]])
    x, y = parse_vec(witness["x"]), parse_vec(witness["y"])
    product = bad.mul_dot(x, y) if witness["product_kind"] == "dot" else bad.mul_bracket(x, y)
    assert product == parse_vec(witness["product"])
    assert space.contains_vector(x) and space.contains_vector(y)
    assert not space.contains_vector(product)


def test_xyz_structure_constants_have_the_advertised_shape_anyway():
    # the discovery machinery still reports the intended radical/nilradical
    # shape on the inconsistent tensors; only validation separates them
    from palg.lattice import nilradical, radical
    bad = xyz_algebra(GF5, allow_invalid=True)
    budget = LatticeBudget(max_q=5)
    rad = radical(bad, budget)
    nil = nilradical(bad, budget)
    assert rad.is_full()
    assert nil == Subspace.from_vectors(GF5, 3, [[1, 0, 0], [0, 0, 1]])
    square = subspace_product_dot(bad, rad, rad)
    assert square == Subspace.from_vectors(GF5, 3, [[0, 0, 1]])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_suite_is_deterministic_across_jobs():
    corpus = curated_corpus()[:8]
    one = run_suite(corpus, jobs=1)
    four = run_suite(corpus, jobs=4)
    assert [r.to_json() for r in one] == [r.to_json() for r in four]
    again = run_suite(corpus, jobs=1)
    assert json.dumps([r.to_json() for r in one]) == json.dumps([r.to_json() for r in again])


def test_threads_fill_the_discovery_cache_safely():
    # four workers start on an empty cache and switch often, so they race to
    # fill the same entries; a lost or mixed-up entry would change a result
    corpus = curated_corpus()[:8]
    serial = [r.to_json() for r in run_suite(corpus, jobs=1)]
    lattice_profile.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = [r.to_json() for r in run_suite(corpus, jobs=4)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_duplicate_names_are_disambiguated():
    corpus = [zero_algebra(GF2, 1), zero_algebra(GF2, 1)]
    results = run_suite(corpus, theorem_filter="Prop-2.4")
    assert len({r.algebra for r in results}) == 2


def test_generated_names_avoid_the_given_ones():
    # ["a", "a", "a#1"] used to come out as ["a", "a#1", "a#1"]
    names = ("a", "a", "a#1", "a", "", "", "unnamed")
    corpus = [zero_algebra(GF2, 1).with_name(name) for name in names]
    results = run_suite(corpus, theorem_filter="Prop-2.4")
    assert [r.algebra for r in results] == ["a", "a#2", "a#1", "a#3", "unnamed#1", "unnamed#2",
                                            "unnamed"]


@pytest.mark.parametrize("names, expected", [
    (("", "", ""), ["unnamed#1", "unnamed#2", "unnamed#3"]),
    (("", "unnamed#1", ""), ["unnamed#2", "unnamed#1", "unnamed#3"]),
    (("x", ""), ["x", ""]),
    (("",), [""]),
])
def test_a_repeated_empty_name_is_replaced_on_every_copy(names, expected):
    # the first nameless algebra used to keep "" beside "unnamed#1", ...
    corpus = [zero_algebra(GF2, 1).with_name(name) for name in names]
    results = run_suite(corpus, theorem_filter="Prop-2.4")
    assert [r.algebra for r in results] == expected


# ---------------------------------------------------------------------------
# per-ideal properties computed once
# ---------------------------------------------------------------------------


def _record_calls(monkeypatch, module, name, key):
    """Wrap module.<name>, recording key(*args) of each call that key does
    not map to None."""
    original = getattr(module, name)
    seen = []

    def recording(*args, **kwargs):
        k = key(*args, **kwargs)
        if k is not None:
            seen.append(k)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


def _tensors(alg, *rest):
    return alg.field, alg.dot_tensor, alg.bracket_tensor


def _whole_algebra_tensors(alg, start=None):
    return _tensors(alg) if start is None else None


# what Thm-4.2's is_nilpotent and is_supersolvable compute when not cached
SERIES_WORK = ((series, "lower_central_series", _whole_algebra_tensors),
               (series, "_supersolvable", _tensors))


# the uncached bodies behind Lemma-2.3's annihilators and Lemma-2.13's Lie
# idealisers, keyed on (tensor, argument)
ANNIHILATOR_WORK = ((algebra, "_annihilator", lambda alg, b: (*_tensors(alg), b)),)
IDEALISER_WORK = ((algebra, "_lie_idealiser", lambda alg, u: (*_tensors(alg), u)),)


# Each algebra below has a nilpotent ideal (Lemma-2.3), a Lie subalgebra
# containing several elements' Engel spaces (Lemma-2.13) or a subideal
# (Thm-4.2) that several counted pairs share, so computing the property per
# pair would call it more than once for one argument.  All three read the
# per-tensor cache, so the annihilators, the Lie idealisers and Thm-4.2's
# nilpotency and flag searches are counted where they run, from a cold
# cache: once per (tensor, argument).
@pytest.mark.parametrize("theorem_id,alg,patched", [
    ("Lemma-2.3", zero_algebra(GF3, 2), ANNIHILATOR_WORK),
    ("Lemma-2.3", zero_algebra(GF2, 3), ANNIHILATOR_WORK),
    ("Thm-4.2", heisenberg_zero_dot(GF3), SERIES_WORK),
    ("Thm-4.2", heisenberg_zero_dot(GF2), SERIES_WORK),
    ("Lemma-2.13", zero_algebra(GF2, 2), IDEALISER_WORK),
    ("Lemma-2.13", two_dim_nonabelian(GF3), IDEALISER_WORK),
], ids=lambda p: p if isinstance(p, str) else getattr(p, "name", None))
def test_per_ideal_properties_are_computed_once(monkeypatch, theorem_id, alg, patched):
    expected = check_one(theorem_id, alg)
    _cache.cache_clear()
    seen = {name: _record_calls(monkeypatch, module, name, key) for module, name, key in patched}
    assert check_one(theorem_id, alg) == expected
    for name, keys in seen.items():
        assert keys, name
        assert max(Counter(keys).values()) == 1, name


# Lemma-2.1 multiplies each subalgebra b into its dot powers b, b.b,
# (b.b).b, ...; every pair (b, c) reads them, and each algebra below has
# several pairs per b.  The per-tensor cache multiplies each equal (u, v)
# once, counted from a cold cache where the product is formed.
@pytest.mark.parametrize("alg", [zero_algebra(GF3, 2), heisenberg_zero_dot(GF3),
                                 idempotent_line(GF3), two_dim_nonabelian(GF2)],
                         ids=lambda a: a.name)
def test_dot_powers_are_computed_once_per_subalgebra(monkeypatch, alg):
    expected = check_one("Lemma-2.1", alg)
    _cache.cache_clear()
    seen = _record_calls(monkeypatch, algebra, "_product_span",
                         lambda alg, products, u, v: (*_tensors(alg), u, v) if products == DOT else None)
    assert check_one("Lemma-2.1", alg) == expected
    assert seen
    assert max(Counter(seen).values()) == 1


def _lemma_2_1_every_iteration(alg) -> tuple:
    """Test oracle: Lemma-2.1's loop without the stop at a zero power, every
    n up to dim + 1 computed; (exercised, iterations at a zero power, first
    failing (b, c, n) or None)."""
    def dot(alg, u, v):
        return algebra._product_span(alg, DOT, u, v)

    def bracket(alg, u, v):
        return algebra._product_span(alg, BRACKET, u, v)

    subs = theorems._subalgebra_configs(alg, DEFAULT_BUDGET)
    exercised = trivial = 0
    for b, c in list(theorems._diagonal_pairs(subs))[:theorems.CONFIG_LIMIT]:
        bc = bracket(alg, b, c)
        powers = [b]
        for n in range(1, alg.dim + 2):
            if len(powers) < n:
                powers.append(dot(alg, powers[-1], b))
            lhs = bracket(alg, powers[n - 1], c)
            rhs = bc if n == 1 else dot(alg, powers[n - 2], bc)
            exercised += 1
            trivial += powers[n - 1].is_zero()
            if not rhs.contains(lhs):
                return exercised, trivial, (b, c, n)
    return exercised, trivial, None


# Once b^(n-1) is 0, lhs = [0, c] = 0 lies in every rhs: those iterations
# are counted in `exercised` but form no product and ask the cache nothing.
@pytest.mark.parametrize("alg", [zero_algebra(GF3, 2), heisenberg_zero_dot(GF3),
                                 idempotent_line(GF3), two_dim_nonabelian(GF2),
                                 heisenberg_zero_dot(Q)],
                         ids=lambda a: a.name)
def test_lemma_2_1_counts_the_iterations_after_a_zero_power_without_products(
        monkeypatch, alg):
    exercised, trivial, failure = _lemma_2_1_every_iteration(alg)
    assert trivial > 0
    _cache.cache_clear()
    zero_args = [_record_calls(monkeypatch, theorems, name,
                               lambda alg, u, v: u if u.is_zero() else None)
                 for name in ("subspace_product_dot", "subspace_product_bracket")]
    result = check_one("Lemma-2.1", alg)
    assert (result.status, result.exercised) == (PASS, exercised) and failure is None
    assert zero_args == [[], []]


# ---------------------------------------------------------------------------
# Thm-4.2 over the ideals of each subideal, and one flag search per tensor
# ---------------------------------------------------------------------------

# Every valid structure of dim 1-2 over GF(2) and GF(3), then the finite
# curated algebras of dim <= 3.
SUBIDEAL_CORPUS = [alg for n, q in ((1, 2), (1, 3), (2, 2), (2, 3))
                   for alg in enumerate_poisson_structures(n, q)] + [
    a for a in curated_corpus() if a.field.is_finite and a.dim <= 3]


def _pairs_by_subspace_walk(alg, budget, phi):
    """Test oracle: Thm-4.2's (b, c) pairs found by walking every subspace c
    of the lattice and testing, inline, that it lies in phi and b and is an
    ideal of b; with c in b's coordinates read off b's pivot columns."""
    profile = lattice_profile(alg, budget)
    for b in profile.subalgebras():
        if not is_subideal(alg, b):
            continue
        for c in profile.subspaces:
            if not (phi.contains(c) and b.contains(c)):
                continue
            if any(not c.contains_vector(alg.mul_dot(x, y))
                   or not c.contains_vector(alg.mul_bracket(x, y))
                   for x in c.rows() for y in b.rows()):
                continue
            inside = Subspace.from_vectors(alg.field, b.dim,
                                           [tuple(r[p] for p in b.pivots) for r in c.rows()])
            yield b, c, inside


def _pairs_by_ideals_of_b(alg, budget, phi):
    for b in lattice_profile(alg, budget).subalgebras():
        if not is_subideal(alg, b):
            continue
        b_alg, embed = subalgebra_algebra(alg, b)
        for c, inside in theorems._frattini_ideals_of(b_alg, embed, phi, budget):
            assert subspace_image(embed, inside) == c
            yield b, c, inside


@pytest.mark.parametrize("alg,budget", [(a, DEFAULT_BUDGET) for a in SUBIDEAL_CORPUS] + [
    (a, LatticeBudget(max_q=5)) for a in AXIOM_VIOLATORS.values()],
    ids=lambda p: getattr(p, "name", None))
def test_subideal_candidates_match_the_subspace_walk(alg, budget):
    # phi as Thm-4.2 uses it, and the whole space, so that every ideal of b
    # is a candidate and the order is tested on more than a few per b
    for phi in (frattini(alg, budget)[1], alg.full_space()):
        expected = list(_pairs_by_subspace_walk(alg, budget, phi))
        assert list(_pairs_by_ideals_of_b(alg, budget, phi)) == expected


# The profile's closure flags, bit tests on point masks, against the flag
# tests they replace, on a corpus holding the lattice tests' SMALL_FINITE;
# two of the violators have products that depend on the order of a pair,
# and the dim-5 sum is as large as the analyze workload's algebras.
@pytest.mark.parametrize("alg,budget", [(a, DEFAULT_BUDGET) for a in SUBIDEAL_CORPUS] + [
    (a, LatticeBudget(max_q=5)) for a in AXIOM_VIOLATORS.values()] + [
    (direct_sum(heisenberg_zero_dot(GF3), two_dim_nonabelian(GF3)), DEFAULT_BUDGET)],
    ids=lambda p: getattr(p, "name", None))
def test_profile_flags_match_the_flag_tests(alg, budget):
    _assert_profile_flags_match(alg, budget)


def _assert_profile_flags_match(alg, budget=DEFAULT_BUDGET):
    profile = lattice_profile(alg, budget)
    for s, assoc, lie, sub, ideal in zip(profile.subspaces, profile.assoc_flags,
                                         profile.lie_flags, profile.subalgebra_flags,
                                         profile.ideal_flags):
        expected = is_assoc_subalgebra(alg, s), is_lie_subalgebra(alg, s)
        assert (assoc, lie) == expected, s
        assert sub == all(expected), s
        assert ideal == (sub and is_ideal(alg, s)), s


def _noncommutative_tensors(field, n):
    """A sparse tensor whose e0 e1 and e1 e0 differ in the e2 coordinate by
    1 - 0, so it is neither commutative nor alternating."""
    index = st.integers(0, n - 1)
    entries = st.dictionaries(st.tuples(index, index, index),
                              st.sampled_from(list(field.elements())), max_size=2 * n)

    def dense(items):
        items = {**items, (0, 1, 2): field.one(), (1, 0, 2): field.zero()}
        return tuple(tuple(tuple(items.get((i, j, k), field.zero()) for k in range(n))
                           for j in range(n)) for i in range(n))
    return entries.map(dense)


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
@given(data=st.data())
def test_profile_flags_match_the_flag_tests_on_noncommutative_tensors(field, data):
    # the products carried along the enumeration are taken on ordered pairs
    _assert_profile_flags_match(PoissonAlgebra(field, 3, data.draw(_noncommutative_tensors(field, 3)),
                                               data.draw(_noncommutative_tensors(field, 3))))


def test_each_tensor_gets_one_flag_search(monkeypatch):
    keys = Counter()
    search = series._supersolvable

    def counting(alg):
        keys[(alg.field, alg.dot_tensor, alg.bracket_tensor)] += 1
        return search(alg)

    monkeypatch.setattr(series, "_supersolvable", counting)
    run_suite(SUBIDEAL_CORPUS)
    assert keys and set(keys.values()) == {1}
    assert lattice_profile.cache_info().currsize == lattice_profile.cache_info().misses
