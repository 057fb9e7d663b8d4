"""Engel subalgebras, the eigenvalue split of the bracket operator, and the
two operator identities they rest on.

For a fixed element a, the Engel subspaces are the generalized null spaces
of left dot multiplication P_a and left bracket multiplication Q_a.  The
split pair collects the generalized eigenspaces of Q_a for eigenvalues lying
in the ground field (kernel of f(Q_a) where f gathers those eigenvalues with
their multiplicities) together with the complementary stable image.

Over GF(p) the split is the Fitting decomposition of M = Q_a^p - Q_a: the
eigenvalue part is ker M^n and the rest im M^n (n = dim).  Proof: t^p - t
is the product of t - lambda over all lambda in GF(p), so over an algebraic
closure M acts on each generalized eigenspace V_mu of Q_a with the single
eigenvalue mu^p - mu, zero iff mu lies in GF(p).  Hence ker M^n is the sum
of the V_mu with mu in the field, which is ker f(Q_a), and im M^n the sum of
the others, which is im f(Q_a).  Over Q the characteristic polynomial stays
(Berkowitz, then rational roots); it is the tests' oracle for GF(p) too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._cache import memo
from .algebra import PoissonAlgebra, subalgebra_defect
from .linalg import (
    Matrix,
    Subspace,
    char_poly,
    fitting_null,
    image,
    kernel,
    poly_eval_matrix,
    poly_mul,
    roots_in_field,
    subspace_intersect,
    vec_scale,
    vec_sub,
)


class EngelClosureError(RuntimeError):
    """An Engel or eigenvalue-split subspace failed to close; only possible
    when the input tensors are not actually a Poisson algebra."""

    def __init__(self, label: str, witness):
        self.label = label
        self.witness = witness
        super().__init__(f"{label} is not closed under both multiplications")


class EngelPair(NamedTuple):
    element: tuple
    engel_assoc: Subspace
    engel_lie: Subspace


class SplitPair(NamedTuple):
    element: tuple
    s_part: Subspace
    k_part: Subspace


def _per_point(alg: PoissonAlgebra, key: str, a, compute) -> Subspace:
    """compute(point) cached under (key, point), point = a scaled to first
    nonzero coordinate 1.  Exact: for lambda != 0, P_{lambda a} = lambda P_a,
    Q_{lambda a} = lambda Q_a and (lambda Q)^p - lambda Q = lambda (Q^p - Q)
    keep their generalized eigenspaces, and lambda mu is in the field iff mu is."""
    f = alg.field
    a = tuple(map(f.coerce, a))
    lead = next((c for c in a if c), 1)
    point = a if lead == 1 else vec_scale(f, f.inv(lead), a)
    return memo(alg, (key, point), lambda: compute(point))


def engel_assoc_space(alg: PoissonAlgebra, a) -> Subspace:
    """Generalized null space of P_a, cached per projective point."""
    return _per_point(alg, "engel_assoc", a, lambda b: fitting_null(alg.p_operator(b)))


def engel_lie_space(alg: PoissonAlgebra, a) -> Subspace:
    """Generalized null space of Q_a, cached per projective point."""
    return _per_point(alg, "engel_lie", a, lambda b: fitting_null(alg.q_operator(b)))


def engel(alg: PoissonAlgebra, a) -> EngelPair:
    """Both Engel subalgebras of a, verified closed."""
    assoc, lie = engel_assoc_space(alg, a), engel_lie_space(alg, a)
    for label, space in (("engel-assoc", assoc), ("engel-lie", lie)):
        defect = subalgebra_defect(alg, space)
        if defect is not None:
            raise EngelClosureError(label, defect)
    return EngelPair(tuple(a), assoc, lie)


def _split_polynomial(f, q: Matrix) -> tuple:
    poly = (f.one(),)
    for value, mult in roots_in_field(f, char_poly(q)):
        factor = (f.one(), f.neg(value))
        for _ in range(mult):
            poly = poly_mul(f, poly, factor)
    return poly


def _split_matrix(alg: PoissonAlgebra, q: Matrix) -> Matrix:
    """(q^p - q)^n over GF(p), f(q) over Q: kernel s_space, image k_part."""
    f = alg.field
    if f.is_finite:
        return q.pow(f.modulus).sub(q).pow(alg.dim)
    return poly_eval_matrix(_split_polynomial(f, q), q)


def s_space(alg: PoissonAlgebra, a) -> Subspace:
    """Kernel of f(Q_a), the field's generalized eigenspaces; cached per point."""
    return _per_point(alg, "s_space", a, lambda b: kernel(_split_matrix(alg, alg.q_operator(b))))


def s_k_split(alg: PoissonAlgebra, a) -> SplitPair:
    """The verified eigenvalue split of Q_a.

    Checks that the two pieces are complementary, both stable under Q_a,
    and that the eigenvalue part closes under both multiplications.
    """
    q = alg.q_operator(a)
    split = _split_matrix(alg, q)
    s, k = kernel(split), image(split)
    if not subspace_intersect(s, k).is_zero() or s.dim + k.dim != alg.dim:
        raise EngelClosureError("eigenvalue split", (s, k))
    for space in (s, k):
        for row in space.rows():
            if not space.contains_vector(q.mat_vec(row)):
                raise EngelClosureError("eigenvalue split stability", row)
    defect = subalgebra_defect(alg, s)
    if defect is not None:
        raise EngelClosureError("eigenvalue part", defect)
    return SplitPair(tuple(a), s, k)


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------


def check_pa_bracket_identity(alg: PoissonAlgebra, a, x, y, n: int) -> tuple:
    """Residual of P_a^n([x,y]) = [P_a^n(x), y] - n P_a^{n-1}(x) . [y, a].

    Identically zero in a valid Poisson algebra; n = 1 is the compatibility
    identity itself rearranged.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    f = alg.field
    p = alg.p_operator(a)
    pn = p.pow(n)
    pn1 = p.pow(n - 1)
    lhs = pn.mat_vec(alg.mul_bracket(x, y))
    rhs = alg.mul_bracket(pn.mat_vec(x), y)
    correction = vec_scale(f, f.from_int(n),
                           alg.mul_dot(pn1.mat_vec(x), alg.mul_bracket(y, a)))
    return vec_sub(f, lhs, vec_sub(f, rhs, correction))


def check_qa_derivation_power(alg: PoissonAlgebra, a, x, y, r: int) -> tuple:
    """Residual of Q_a^r(x.y) = sum_i C(r,i) Q_a^i(x) . Q_a^{r-i}(y).

    The bracket operator acts as a derivation of the dot, so its powers obey
    the binomial expansion; the binomial coefficients are reduced into the
    field.  Identically zero in a valid Poisson algebra.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    f = alg.field
    q = alg.q_operator(a)
    powers = [Matrix.identity(f, alg.dim)]
    for _ in range(r):
        powers.append(powers[-1].matmul(q))
    lhs = powers[r].mat_vec(alg.mul_dot(x, y))
    rhs = alg.zero_element()
    for i in range(r + 1):
        coeff = f.from_int(math.comb(r, i))
        term = alg.mul_dot(powers[i].mat_vec(x), powers[r - i].mat_vec(y))
        rhs = tuple(f.add(u, f.mul(coeff, v)) for u, v in zip(rhs, term))
    return vec_sub(f, lhs, rhs)
