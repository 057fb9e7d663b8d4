"""Work the suite does once: the induced structures per (tensor, subspace),
the subspace enumeration per (field, n), and sums, meets and closure rounds
that add nothing.  Each shortcut is checked against the code it replaces."""

import itertools
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from palg import _cache, algebra, lattice, linalg
from palg.algebra import (
    _close,
    _preimage_condition,
    _right_multiplication,
    annihilator,
    closure_ideal,
    closure_subalgebra,
    is_subideal,
    quotient_maps,
    subalgebra_algebra,
)
from palg.corpus import curated_corpus, enumerate_poisson_structures
from palg.fields import FieldSpec
from palg.lattice import BudgetExceededError, LatticeBudget, lattice_profile
from palg.linalg import (
    Matrix,
    Subspace,
    _matrix,
    kernel,
    reduction_matrix,
    rref,
    stack_rows,
    subspace_intersect,
    subspace_sum,
    vec_is_zero,
)
from palg.theorems import run_suite

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()
FIELDS = [GF2, GF3, GF5, Q]

SMALL = enumerate_poisson_structures(2, 2) + [a for a in curated_corpus() if a.dim <= 3]


def _named(name):
    return next(a for a in curated_corpus() if a.name == name)


# -- references: the bodies the shortcuts replace ---------------------------


def _restricted_tensors(alg, u):
    """The tensors of alg restricted to the subalgebra u, in u's basis."""
    rows = u.rows()
    return tuple(tuple(tuple(u.coordinates(mul(x, y)) for y in rows) for x in rows)
                 for mul in (alg.mul_dot, alg.mul_bracket))


def _quotient_tensors(alg, ideal):
    """The tensors of alg / ideal on the cosets of the non-pivot e_j."""
    reps = [j for j in range(alg.dim) if j not in ideal.pivots]
    cosets = [alg.basis_element(j) for j in reps]

    def read(v):
        reduced = ideal.reduce_vector(v)
        return tuple(reduced[j] for j in reps)
    return tuple(tuple(tuple(read(mul(x, y)) for y in cosets) for x in cosets)
                 for mul in (alg.mul_dot, alg.mul_bracket))


def _zassenhaus(u, v):
    """The intersection read off the RREF of [U|U; V|0]."""
    f, n = u.field, u.ambient_dim
    rows = [tuple(r) + tuple(r) for r in u.rows()]
    rows += [tuple(r) + (f.zero(),) * n for r in v.rows()]
    if not rows:
        return Subspace.zero(f, n)
    reduced = rref(_matrix(f, len(rows), 2 * n, tuple(rows)))
    return Subspace.span(f, n, [row[n:] for row in reduced.entries if vec_is_zero(row[:n])])


def _naive_closure(alg, seed, against=None):
    """Span the seed with every product of its basis with against's (or its
    own) until nothing changes."""
    space = seed
    while True:
        others = (space if against is None else against).rows()
        prods = [mul(a, b) for a in space.rows() for b in others
                 for mul in (alg.mul_dot, alg.mul_bracket)]
        bigger = Subspace.span(alg.field, alg.dim, space.rows() + tuple(prods))
        if bigger == space:
            return space
        space = bigger


# -- the suite corpus: each induced structure and enumeration once ----------


def test_the_suite_computes_each_induced_structure_and_enumeration_once(monkeypatch):
    keys, computed, enumerated = {}, [], []
    induced, canonical_tensors = algebra._induced, algebra.canonical_tensors
    enumerate_subspaces = lattice.enumerate_subspaces

    def recording_induced(alg, key, *args):
        keys.setdefault((alg.field, alg.dot_tensor, alg.bracket_tensor) + key, alg)
        return induced(alg, key, *args)

    def counting_tensors(*args):  # called once per computation
        computed.append(1)
        return canonical_tensors(*args)

    def counting_enumeration(field, n, budget):
        enumerated.append((field, n))
        return enumerate_subspaces(field, n, budget)

    monkeypatch.setattr(algebra, "_induced", recording_induced)
    monkeypatch.setattr(algebra, "canonical_tensors", counting_tensors)
    monkeypatch.setattr(lattice, "enumerate_subspaces", counting_enumeration)
    run_suite(inputs.suite_corpus())
    kinds = [key[3] for key in keys]
    assert (kinds.count("restrict"), kinds.count("quotient")) == (1197, 927)
    assert len(computed) == len(keys)
    assert len(enumerated) == len(set(enumerated)) == 11
    # every cached structure is the one the replaced body builds
    for (_, _, _, kind, space), alg in keys.items():
        if kind == "restrict":
            sub, _ = subalgebra_algebra(alg, space)
            assert (sub.dot_tensor, sub.bracket_tensor) == _restricted_tensors(alg, space)
        else:
            q = quotient_maps(alg, space).algebra
            assert (q.dot_tensor, q.bracket_tensor) == _quotient_tensors(alg, space)
    assert len(computed) == len(keys)  # the second pass computed nothing


# -- induced structures -------------------------------------------------------


@pytest.mark.parametrize("alg", [a for a in SMALL if a.field.is_finite], ids=lambda a: a.name)
def test_each_subspace_has_its_own_induced_structure(alg):
    profile = lattice_profile(alg)
    subalgebras, ideals = profile.subalgebras(), profile.ideals()
    for _ in range(2):  # cold, then warm
        for u in subalgebras:
            sub, embed = subalgebra_algebra(alg, u)
            assert (sub.dot_tensor, sub.bracket_tensor) == _restricted_tensors(alg, u)
            assert embed.ncols == u.dim
        for ideal in ideals:
            data = quotient_maps(alg, ideal)
            assert (data.algebra.dot_tensor, data.algebra.bracket_tensor) == \
                _quotient_tensors(alg, ideal)
            assert data.ideal is ideal


def test_distinct_subspaces_do_not_share_a_result_and_equal_tensors_are_one_object():
    alg = _named("fe-plus-n-gf3")
    subs = lattice_profile(alg).subalgebras()
    built = [subalgebra_algebra(alg, u)[0] for u in subs]
    shapes = {(b.dot_tensor, b.bracket_tensor) for b in built}
    assert len(shapes) > 2  # the subalgebras do not all look alike
    for u, b in zip(subs, built):
        assert (b.dot_tensor, b.bracket_tensor) == _restricted_tensors(alg, u)
    first = {}
    for b in built:
        pair = first.setdefault((b.dot_tensor, b.bracket_tensor), b)
        assert pair.dot_tensor is b.dot_tensor and pair.bracket_tensor is b.bracket_tensor


def test_two_names_on_one_tensor_keep_their_own_names():
    alg = _named("heisenberg-gf3")
    other = alg.with_name("renamed")
    centre = Subspace.from_vectors(GF3, 3, [(0, 0, 1)])
    a, b = subalgebra_algebra(alg, centre)[0], subalgebra_algebra(other, centre)[0]
    assert (a.name, b.name) == ("heisenberg-gf3|[dim 1]", "renamed|[dim 1]")
    assert a.dot_tensor is b.dot_tensor and a.bracket_tensor is b.bracket_tensor
    qa, qb = quotient_maps(alg, centre).algebra, quotient_maps(other, centre).algebra
    assert (qa.name, qb.name) == ("heisenberg-gf3/[dim 1]", "renamed/[dim 1]")
    assert qa.dim == 2 and qa.bracket_tensor != a.bracket_tensor
    nameless = subalgebra_algebra(alg.with_name(""), centre)[0]
    assert nameless.name == "" and nameless.dot_tensor is a.dot_tensor


def test_a_defective_subspace_raises_every_time_and_stores_nothing():
    alg = _named("heisenberg-gf3")
    x_line = Subspace.from_vectors(GF3, 3, [(1, 0, 0)])  # not an ideal
    xy_plane = Subspace.from_vectors(GF3, 3, [(1, 0, 0), (0, 1, 0)])  # not a subalgebra
    for _ in range(2):
        with pytest.raises(ValueError):
            quotient_maps(alg, x_line)
        with pytest.raises(ValueError):
            subalgebra_algebra(alg, xy_plane)
    entry = _cache._entry(alg)
    assert ("quotient", x_line) not in entry and ("restrict", xy_plane) not in entry


# -- the shared enumeration ---------------------------------------------------


def test_tensors_of_one_dimension_share_the_enumeration():
    a, b = enumerate_poisson_structures(2, 3)[:2]
    assert a.dot_tensor != b.dot_tensor or a.bracket_tensor != b.bracket_tensor
    pa, pb = lattice_profile(a), lattice_profile(b)
    assert pa.subspaces is pb.subspaces and pa.masks is pb.masks and pa.dims is pb.dims
    assert len(pa.subspaces) == lattice.count_subspaces(2, 3)


@pytest.mark.parametrize("tight", [LatticeBudget(max_subspaces=27), LatticeBudget(max_dim=2),
                                   LatticeBudget(max_q=2)], ids=repr)
def test_a_tight_budget_raises_after_a_generous_one_filled_the_enumeration(tight):
    first, second = _named("heisenberg-gf3"), _named("zero-d3-gf3")
    assert (first.dim, second.dim) == (3, 3)
    assert len(lattice_profile(first, LatticeBudget()).subspaces) == 28
    assert linalg._STORES
    for alg in (first, second):  # the same tensor, and another of the same (field, n)
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                lattice_profile(alg, tight)
    assert len(lattice_profile(second, LatticeBudget()).subspaces) == 28


def test_a_second_enumeration_of_a_stored_space_builds_nothing(monkeypatch):
    lattice_profile.cache_clear()
    built = [0]
    raw = linalg._subspace

    def counted(*args):
        built[0] += 1
        return raw(*args)
    monkeypatch.setattr(linalg, "_subspace", counted)
    first = list(lattice.enumerate_subspaces(GF2, 5))
    # one raw build per subspace, the zero space included, however many are live
    assert built == [lattice.count_subspaces(5, 2)] == [374]
    second = list(lattice.enumerate_subspaces(GF2, 5))
    assert built == [374]
    assert len(second) == len(first) and all(s is t for s, t in zip(first, second))
    # the budget is still checked first
    with pytest.raises(BudgetExceededError):
        next(lattice.enumerate_subspaces(GF2, 5, LatticeBudget(max_dim=4)))


def test_threads_filling_the_enumeration_at_once_all_read_it_whole():
    # the --jobs threads share the store: a race may enumerate twice, but
    # every profile must read a complete, correct enumeration
    algebras = enumerate_poisson_structures(2, 3)[:12]
    expected = list(lattice.enumerate_subspaces(GF3, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            lattice_profile.cache_clear()
            results = {}
            threads = [threading.Thread(target=lambda a=a: results.setdefault(
                id(a), lattice_profile(a))) for a in algebras]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == len(algebras)
            assert all(list(p.subspaces) == expected for p in results.values())
            assert list(linalg._STORES) == [(3, 2)]
    finally:
        sys.setswitchinterval(interval)


def test_cache_clear_empties_the_enumeration(monkeypatch):
    calls = []
    original = lattice.enumerate_subspaces
    monkeypatch.setattr(lattice, "enumerate_subspaces",
                        lambda *args: calls.append(args[:2]) or original(*args))
    alg = _named("heisenberg-gf2")
    before = lattice_profile(alg).subspaces
    assert calls == [(GF2, 3)] and linalg._STORES
    lattice_profile.cache_clear()
    assert linalg._STORES == {} and lattice_profile.cache_info().currsize == 0
    after = lattice_profile(alg).subspaces
    assert calls == [(GF2, 3)] * 2
    assert after == before and after is not before


# -- sums and meets of nested subspaces --------------------------------------


def _random_subspace(rng, field, n, rows):
    def scalar():
        if field.is_finite:
            return rng.randrange(field.order)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Subspace.span(field, n, [tuple(scalar() for _ in range(n)) for _ in range(rows)])


def _random_pairs(field):
    """Nested pairs (v spanned by combinations of u's rows, both ways round),
    equal pairs and unrelated pairs of subspaces of F^n, n <= 4."""
    rng = random.Random(f"pairs-{field}")
    pairs = []
    for _ in range(60):
        n = rng.randint(1, 4)
        u = _random_subspace(rng, field, n, rng.randint(0, n))
        coeffs = _random_subspace(rng, field, max(u.dim, 1), rng.randint(0, u.dim))
        inside = Subspace.span(field, n, [
            tuple(sum((c * x for c, x in zip(comb, col)), field.zero()) for col in zip(*u.rows()))
            for comb in coeffs.rows()] if u.dim else [])
        if field.is_finite:
            inside = Subspace.span(field, n, [tuple(x % field.order for x in r)
                                              for r in inside.rows()])
        other = _random_subspace(rng, field, n, rng.randint(0, n))
        copy = Subspace.from_vectors(field, n, u.rows())
        pairs += [(u, inside), (inside, u), (u, copy), (u, other)]
    return pairs


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sum_and_meet_match_span_and_zassenhaus(field):
    nested = 0
    for u, v in _random_pairs(field):
        total, meet = subspace_sum(u, v), subspace_intersect(u, v)
        assert total == Subspace.span(field, u.ambient_dim, u.rows() + v.rows())
        assert meet == _zassenhaus(u, v)
        if u.contains(v):
            nested += 1
            assert total is u and meet is v
        elif v.contains(u):
            assert total is v and meet is u
    assert nested > 60


@pytest.mark.parametrize("field,n", [(GF2, 3), (GF3, 2)], ids=str)
def test_sum_and_meet_of_enumerated_subspaces(field, n):
    # every pair, masked: containment is read off the point masks
    spaces = list(lattice.enumerate_subspaces(field, n))
    for u, v in itertools.product(spaces, repeat=2):
        assert subspace_sum(u, v) == Subspace.span(field, n, u.rows() + v.rows())
        assert subspace_intersect(u, v) == _zassenhaus(u, v)


def test_the_ambient_spaces_are_built_once():
    for field, n in itertools.product(FIELDS, range(4)):
        assert Subspace.full(field, n) is Subspace.full(field, n)
        assert Subspace.zero(field, n) is Subspace.zero(field, n)
        assert Subspace.full(field, n) == Subspace(n, Matrix.identity(field, n))
        assert Subspace.zero(field, n) == Subspace(n, Matrix(field, 0, n, ()))


# -- closures -----------------------------------------------------------------


def _seeds(alg):
    if alg.field.is_finite:
        return list(lattice.enumerate_subspaces(alg.field, alg.dim))
    rng = random.Random(f"seeds-{alg.name}")
    return [_random_subspace(rng, alg.field, alg.dim, k) for k in range(alg.dim + 1)
            for _ in range(3)]


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_early_exit_closure_matches_the_naive_fixed_point(alg):
    full = alg.full_space()
    subalgebras = [s for s in _seeds(alg) if closure_subalgebra(alg, s) == s]
    for seed in _seeds(alg):
        assert closure_subalgebra(alg, seed) == _naive_closure(alg, seed)
        assert closure_ideal(alg, seed) == _naive_closure(alg, seed, full)
        for ambient in subalgebras:
            if ambient.contains(seed):
                assert _close(alg, seed, ambient) == _naive_closure(alg, seed, ambient)
        naive_subideal = closure_subalgebra(alg, seed) == seed and \
            _naive_subideal(alg, seed)
        assert is_subideal(alg, seed) == naive_subideal


def test_a_closure_multiplies_one_row_per_dimension_it_spans(monkeypatch):
    # the seed's rows, then after each round a basis of what the round added:
    # the frontier rows of a closure are a basis of its result
    frames, mul, close = [], algebra.PoissonAlgebra._mul, algebra._close
    counts = []

    def recording_mul(self, rows, x, y):
        if frames:
            frames[-1].add(x)
        return mul(self, rows, x, y)

    def recording_close(alg, seed, against=None):
        frames.append(set())
        try:
            result = close(alg, seed, against)
        finally:
            multiplied = frames.pop()
        products = against is None or not against.is_zero()
        counts.append((len(multiplied), result.dim if products else 0,
                       result.dim - seed.dim))
        assert result == _naive_closure(alg, seed, against)
        return result

    monkeypatch.setattr(algebra.PoissonAlgebra, "_mul", recording_mul)
    monkeypatch.setattr(algebra, "_close", recording_close)
    run_suite(inputs.suite_corpus())
    assert all(multiplied == spanned for multiplied, spanned, _ in counts)
    assert sum(added for _, _, added in counts) > 0


def _naive_subideal(alg, b):
    current = alg.full_space()
    while True:
        nxt = _naive_closure(alg, b, current)
        if nxt == b:
            return True
        if nxt == current:
            return False
        current = nxt


# -- the preimage kernel and Subspace equality --------------------------------


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_annihilator_and_preimage_match_the_stacked_kernels(alg):
    f, n = alg.field, alg.dim
    for b in _seeds(alg):
        blocks = [m for row in b.rows()
                  for m in (_right_multiplication(alg, 0, row), _right_multiplication(alg, 1, row))]
        expected = kernel(stack_rows(f, blocks, n)) if blocks else Subspace.full(f, n)
        assert annihilator(alg, b) == expected
        reduce_mod = reduction_matrix(b)
        reduced = [reduce_mod.matmul(m) for m in blocks]
        expected = kernel(stack_rows(f, reduced, n)) if reduced else Subspace.full(f, n)
        assert _preimage_condition(alg, b, blocks) == expected


def test_subspace_equality_keeps_the_field_and_the_hash_contract():
    # one object per subspace: a basis spelt with ints and one spelt with
    # Fractions over Q are equal values, so they are one object
    ints = Subspace.span(Q, 2, [(1, 2)])
    fractions = Subspace.span(Q, 2, [(Fraction(1), Fraction(2))])
    assert ints is fractions and ints == fractions and hash(ints) == hash(fractions)
    assert ints.rows() == ((Fraction(1), Fraction(2)),)
    for a, b in [(GF2, GF3), (GF2, Q)]:
        assert Subspace.zero(a, 2) != Subspace.zero(b, 2)
        assert Subspace.full(a, 2) != Subspace.full(b, 2)
    assert Subspace.zero(GF2, 2) != Subspace.zero(GF2, 3)
    line = Subspace.span(GF3, 2, [(1, 2)])
    assert line == Subspace.from_vectors(FieldSpec.prime(3), 2, [(2, 1)])
    assert line != Subspace.span(GF3, 2, [(1, 1)])
    assert line != line.basis and line != (1, 2) and not line == None  # noqa: E711
