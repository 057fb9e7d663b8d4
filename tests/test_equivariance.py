"""Basis changes commute with every basis-free answer.

For g in GL(n, q), transport A to B = g.A, the algebra on the same space
with x . y read as g(g^-1 x . g^-1 y) (bracket likewise), so that x -> g x
is an isomorphism A -> B.  Every result defined by the structure alone then
moves with g: f(B, g.args) = g.f(A, args).  A result that read the basis,
such as a line or a pivot the code happens to start from, breaks this on
some algebra below.
"""

import functools
import random

import pytest

from palg.algebra import (
    DialgebraTensors,
    annihilator,
    centre,
    closure_ideal,
    closure_subalgebra,
    direct_sum,
    idealiser,
    is_subalgebra,
    lie_idealiser,
    validate,
)
from palg.corpus import curated_corpus, enumerate_poisson_structures
from palg.engel import engel, s_k_split
from palg.lattice import (
    frattini,
    frattini_assoc,
    frattini_lie,
    maximal_assoc_subalgebras,
    maximal_lie_subalgebras,
    maximal_subalgebras,
    minimal_ideals,
    nilradical,
    radical,
    socle,
    splits_over,
    zero_socle,
)
from palg.linalg import Matrix, Subspace, kernel, rref, subspace_intersect
from palg.series import SERIES_KINDS, series_by_kind


@functools.cache
def _dim3_gf2():
    return enumerate_poisson_structures(3, 2, cap=2**27)


SOURCES = {
    "curated-finite": lambda: [a for a in curated_corpus() if a.field.is_finite],
    "exhaustive-dim-le-2": lambda: [a for n, q in ((1, 2), (1, 3), (2, 2), (2, 3))
                                    for a in enumerate_poisson_structures(n, q)],
    "dim-3-gf2-sample": lambda: random.Random(3).sample(_dim3_gf2(), 40),
}


def _random_vector(rng, field, n):
    return tuple(rng.randrange(field.order) for _ in range(n))


def _random_invertible(rng, field, n) -> Matrix:
    while True:
        g = Matrix.from_rows(field, [_random_vector(rng, field, n) for _ in range(n)], ncols=n)
        if kernel(g).is_zero():
            return g


def _inverse(g: Matrix) -> Matrix:
    """The right half of rref([g | I])."""
    f, n = g.field, g.nrows
    identity = Matrix.identity(f, n)
    reduced = rref(Matrix.from_rows(f, [g.row(i) + identity.row(i) for i in range(n)]))
    return Matrix.from_rows(f, [row[n:] for row in reduced.entries], ncols=n)


def transport(alg, g: Matrix):
    """B = g.A, validated, and the map S -> g.S on subspaces."""
    h = _inverse(g)
    columns = [h.column(j) for j in range(alg.dim)]
    dot, bracket = (tuple(tuple(g.mat_vec(mul(x, y)) for y in columns) for x in columns)
                    for mul in (alg.mul_dot, alg.mul_bracket))
    moved = validate(DialgebraTensors(alg.field, alg.dim, dot, bracket))

    def move(u: Subspace) -> Subspace:
        return Subspace.span(u.field, u.ambient_dim, [g.mat_vec(r) for r in u.rows()])

    return moved, move


def _seeds(rng, alg) -> list:
    """The zero and full spaces, each basis line, and a few seeded spans."""
    f, n = alg.field, alg.dim
    spans = [[alg.basis_element(i)] for i in range(n)]
    spans += [[_random_vector(rng, f, n) for _ in range(k)] for k in (1, 1, 2, 2)]
    return [alg.zero_space(), alg.full_space()] + [Subspace.span(f, n, vs) for vs in spans]


def _subspace_results(alg, seeds, elements) -> dict:
    """Every basis-free subspace answer for the algebra, by a label."""
    out = {"centre": centre(alg), "radical": radical(alg), "nilradical": nilradical(alg),
           "socle": socle(alg), "zero_socle": zero_socle(alg)}
    for label, pair in (("frattini", frattini), ("frattini_assoc", frattini_assoc),
                        ("frattini_lie", frattini_lie)):
        out[label, "F"], out[label, "phi"] = pair(alg)
    for kind in SERIES_KINDS:
        for pos, term in enumerate(series_by_kind(alg, kind).terms):
            out[kind, pos] = term
    for pos, seed in enumerate(seeds):
        out["closure_subalgebra", pos] = closure_subalgebra(alg, seed)
        out["closure_ideal", pos] = closure_ideal(alg, seed)
        out["annihilator", pos] = annihilator(alg, seed)
        out["idealiser", pos] = idealiser(alg, seed)
        out["lie_idealiser", pos] = lie_idealiser(alg, seed)
    for pos, a in enumerate(elements):
        pair = engel(alg, a)
        split = s_k_split(alg, a)
        out["engel_assoc", pos], out["engel_lie", pos] = pair.engel_assoc, pair.engel_lie
        out["s_part", pos], out["k_part", pos] = split.s_part, split.k_part
    return out


# The ideals asked whether they split: splits_over returns a complement, not
# the complement, so only its existence has to move with the basis.
SPLIT_OVER = ("centre", "radical", "nilradical", "socle", "zero_socle", ("frattini", "phi"))


def _complement_found(alg, b) -> bool:
    """Whether splits_over finds a complement to b, checked to be a
    subalgebra complement when it does."""
    c = splits_over(alg, b)
    if c is not None:
        assert is_subalgebra(alg, c) and c.dim + b.dim == alg.dim
        assert subspace_intersect(c, b).is_zero()
    return c is not None


@pytest.mark.parametrize("source", SOURCES)
def test_basis_free_results_move_with_the_basis(source):
    algebras = SOURCES[source]()
    assert algebras
    for index, alg in enumerate(algebras):
        rng = random.Random(index)
        g = _random_invertible(rng, alg.field, alg.dim)
        moved, move = transport(alg, g)
        seeds = _seeds(rng, alg)
        elements = [alg.zero_element()] + [_random_vector(rng, alg.field, alg.dim)
                                           for _ in range(3)]
        before = _subspace_results(alg, seeds, elements)
        after = _subspace_results(moved, [move(s) for s in seeds],
                                  [g.mat_vec(a) for a in elements])
        assert after.keys() == before.keys(), alg.name
        for label, space in before.items():
            assert after[label] == move(space), (alg.name, label)
        for spaces in (minimal_ideals, maximal_subalgebras, maximal_assoc_subalgebras,
                       maximal_lie_subalgebras):
            assert set(spaces(moved)) == {move(s) for s in spaces(alg)}, (alg.name, spaces)
        for label in SPLIT_OVER:
            assert _complement_found(moved, after[label]) == \
                _complement_found(alg, before[label]), (alg.name, label)


def _block_sum(u: Subspace, v: Subspace) -> Subspace:
    """u (+) v inside A (+) B, for u in A and v in B."""
    f, m, n = u.field, u.ambient_dim, v.ambient_dim
    rows = [tuple(r) + (f.zero(),) * n for r in u.rows()]
    rows += [(f.zero(),) * m + tuple(r) for r in v.rows()]
    return Subspace.span(f, m + n, rows)


def test_radicals_and_socle_add_over_direct_sums():
    """f(A (+) B) = f(A) (+) f(B) for the radical, nilradical and socle.

    Write L = A (+) B.  The cross products vanish, so an ideal of A is an
    ideal of L, and the projection p_A: L -> A is a surjective homomorphism.

    Radical and nilradical.  R(A) (+) R(B) is a solvable ideal of L: as an
    algebra it is the direct product of R(A) and R(B), whose derived series
    are the sums of theirs.  So it lies in R(L).  Conversely p_A(R(L)) is an
    ideal of A and a homomorphic image of a solvable algebra, hence
    solvable, so it lies in R(A); likewise for B.  Then
    R(L) <= p_A(R(L)) (+) p_B(R(L)) <= R(A) (+) R(B).  The nilradical is the
    same argument with nilpotent (lower central series) for solvable.

    Socle.  An ideal of L inside A is an ideal of A, so a minimal ideal of A
    is a minimal ideal of L, and soc(A) (+) soc(B) <= soc(L).  Conversely let
    M be a minimal ideal of L.  If M meet A != 0, it is an ideal of L inside
    M, so M <= A and M is a minimal ideal of A; likewise for B.  Otherwise
    M meet A = M meet B = 0: then A.M and [A, M] lie in A meet M = 0, and
    likewise for B, so L annihilates M.  Every line of M is then
    an ideal, so M = F m is a line, and m = a + b with a in A and b in B.
    Since L.m = 0, A.a = [A, a] = 0 and the lines F a and F b (where
    nonzero) are minimal ideals of A and of B.  So m lies in
    soc(A) (+) soc(B), and soc(L) <= soc(A) (+) soc(B).
    """
    algebras = SOURCES["curated-finite"]()
    pairs = [(a, b) for i, a in enumerate(algebras) for b in algebras[i:]
             if a.field == b.field and a.dim + b.dim <= 5]
    assert len(pairs) == 62
    for a, b in pairs:
        total = direct_sum(a, b)
        for f in (radical, nilradical, socle):
            assert f(total) == _block_sum(f(a), f(b)), (a.name, b.name, f.__name__)
