"""The .palg file format, deterministic corpus constructions, and exhaustive
enumeration of small Poisson structures.

Documents are UTF-8 JSON with schema_version "1".  Coefficients are strings
in ``FieldSpec.parse_scalar``'s grammar, never JSON numbers, so no parser can
silently coerce them to floats.  Dot entries are stored with i <= j and
bracket entries with i < j (``_positions``); loading symmetrises and
antisymmetrises accordingly.  A document's dimension is at most ``MAX_DIM``.
Random structure constants are useless here (they essentially never satisfy
associativity, Jacobi and the compatibility identity simultaneously), so the
corpus consists of closed constructions plus exhaustive small scans, which
solve for the bracket once the dot is fixed (enumerate_poisson_structures).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from functools import lru_cache
from typing import Sequence

from .algebra import (
    AxiomViolation,
    BudgetExceededError,
    DialgebraTensors,
    PoissonAlgebra,
    direct_sum,
    tensors_from_maps,
    validate,
)
from .fields import FieldError, FieldSpec
from .linalg import _matrix, kernel

SCHEMA_VERSION = "1"
# The largest dimension a document may state, checked before anything is
# allocated: parsing costs at least dim^3, and dimension 8 is in use.
MAX_DIM = 16


class CorpusFormatError(ValueError):
    """Malformed .palg document; the message carries the offending location."""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_document(text: str, allow_invalid: bool = False) -> PoissonAlgebra:
    """Parse and validate one document; round-trips with serialize_document.

    With allow_invalid the axioms are skipped (negative-control corpora);
    everything structural is still enforced.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # an integer past int's digit limit, deep nesting
        raise CorpusFormatError(f"unreadable document: {exc}") from None
    if not isinstance(doc, dict):
        raise CorpusFormatError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CorpusFormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
    field = _parse_field(doc.get("field"))
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise CorpusFormatError(f"dim must be a nonnegative integer, got {dim!r}")
    if dim > MAX_DIM:
        raise CorpusFormatError(f"dim {dim} exceeds the cap {MAX_DIM}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise CorpusFormatError("name must be a string")
    labels = doc.get("basis", [f"e{i}" for i in range(dim)])
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(x, str) for x in labels)):
        raise CorpusFormatError("basis must be a list of dim labels")
    dot_map = _parse_entries(field, dim, doc.get("dot", []), "dot", strict=False)
    bracket_map = _parse_entries(field, dim, doc.get("bracket", []), "bracket", strict=True)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CorpusFormatError("metadata must be an object")
    meta = tuple(sorted((k, json.dumps(v, sort_keys=True)) for k, v in metadata.items()))
    tensors = tensors_from_maps(field, dim, dot_map, bracket_map)
    if allow_invalid:
        return PoissonAlgebra(field, dim, tensors.dot, tensors.bracket,
                              name=name, basis_labels=tuple(labels), meta=meta)
    return validate(tensors, name=name, basis_labels=tuple(labels), meta=meta)


def _parse_field(value) -> FieldSpec:
    if value == "Q":
        return FieldSpec.rationals()
    if isinstance(value, dict) and set(value) == {"p"}:
        p = value["p"]
        if not isinstance(p, int):
            raise CorpusFormatError("field modulus must be an integer")
        try:
            return FieldSpec.prime(p)
        except FieldError as exc:
            raise CorpusFormatError(str(exc))
    raise CorpusFormatError(f"field must be \"Q\" or {{\"p\": prime}}, got {value!r}")


def _parse_entries(field: FieldSpec, dim: int, entries, label: str, strict: bool) -> dict:
    if not isinstance(entries, list):
        raise CorpusFormatError(f"{label} must be a list")
    out = {}
    for pos, entry in enumerate(entries):
        where = f"{label}[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "k", "c"}:
            raise CorpusFormatError(f"{where}: expected keys i, j, k, c")
        i, j, k, c = entry["i"], entry["j"], entry["k"], entry["c"]
        for idx_name, idx in (("i", i), ("j", j), ("k", k)):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < dim:
                raise CorpusFormatError(f"{where}: index {idx_name}={idx!r} out of range")
        if strict and i >= j:
            raise CorpusFormatError(f"{where}: bracket entries need i < j")
        if not strict and i > j:
            raise CorpusFormatError(f"{where}: dot entries need i <= j")
        if not isinstance(c, str):
            raise CorpusFormatError(f"{where}: coefficient must be a string, got {type(c).__name__}")
        if (i, j, k) in out:
            raise CorpusFormatError(f"{where}: duplicate entry for ({i},{j},{k})")
        try:
            out[(i, j, k)] = field.parse_scalar(c)
        except FieldError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _positions(n: int) -> tuple:
    """The canonical (dot, bracket) positions, in lexicographic order: the
    one statement of the rule that documents, constructions and the
    enumeration follow (dot entries with i <= j, bracket entries with i < j)."""
    r = range(n)
    return (tuple((i, j, k) for i in r for j in range(i, n) for k in r),
            tuple((i, j, k) for i in r for j in range(i + 1, n) for k in r))


def _nonzero(tensor, positions) -> list:
    """(position, value) of each nonzero entry of the tensor at positions."""
    return [((i, j, k), c) for i, j, k in positions if (c := tensor[i][j][k]) != 0]


def serialize_document(alg: PoissonAlgebra) -> str:
    """Canonical text: sorted nonzero canonical entries, string coefficients."""
    f = alg.field
    dots, brackets = _positions(alg.dim)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": alg.name,
        "field": "Q" if not f.is_finite else {"p": f.order},
        "dim": alg.dim,
        "basis": list(alg.labels()),
        "dot": [{"i": i, "j": j, "k": k, "c": f.format_scalar(c)}
                for (i, j, k), c in _nonzero(alg.dot_tensor, dots)],
        "bracket": [{"i": i, "j": j, "k": k, "c": f.format_scalar(c)}
                    for (i, j, k), c in _nonzero(alg.bracket_tensor, brackets)],
        "metadata": {k: json.loads(v) for k, v in alg.meta},
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def serialize_manifest(members: Sequence[str]) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, "members": list(members)},
                      indent=2) + "\n"


def parse_manifest(text: str) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"manifest syntax error: {exc.msg}")
    if (not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION
            or not isinstance(doc.get("members"), list)
            or not all(isinstance(m, str) for m in doc["members"])):
        raise CorpusFormatError("manifest must hold schema_version and a member list")
    return list(doc["members"])


# ---------------------------------------------------------------------------
# closed constructions
# ---------------------------------------------------------------------------


def zero_algebra(field: FieldSpec, n: int, name: str = "") -> PoissonAlgebra:
    t = tensors_from_maps(field, n, {}, {})
    return validate(t, name=name or f"zero-d{n}-{field}")


def idempotent_line(field: FieldSpec, name: str = "") -> PoissonAlgebra:
    """One basis vector e with e.e = e and trivial bracket."""
    t = tensors_from_maps(field, 1, {(0, 0, 0): 1}, {})
    return validate(t, name=name or f"idem-line-{field}", basis_labels=("e",))


def lie_zero_dot(field: FieldSpec, n: int, brackets: dict, name: str = "",
                 basis_labels: tuple = ()) -> PoissonAlgebra:
    """A Lie algebra made Poisson by the zero dot (compatibility is vacuous)."""
    t = tensors_from_maps(field, n, {}, brackets)
    return validate(t, name=name, basis_labels=basis_labels)


def heisenberg_zero_dot(field: FieldSpec, name: str = "") -> PoissonAlgebra:
    """Basis x, y, z with [x, y] = z, zero dot."""
    return lie_zero_dot(field, 3, {(0, 1, 2): 1},
                        name=name or f"heisenberg-{field}", basis_labels=("x", "y", "z"))


def two_dim_nonabelian(field: FieldSpec, name: str = "") -> PoissonAlgebra:
    """Basis x, y with [x, y] = x, zero dot."""
    return lie_zero_dot(field, 2, {(0, 1, 0): 1},
                        name=name or f"solv2-{field}", basis_labels=("x", "y"))


def rotation3(field: FieldSpec, name: str = "") -> PoissonAlgebra:
    """Basis a, u, v with [a, u] = v, [a, v] = -u, zero dot; the bracket
    operator of a has characteristic polynomial t(t^2 + 1)."""
    return lie_zero_dot(field, 3, {(0, 1, 2): 1, (0, 2, 1): -1},
                        name=name or f"rot3-{field}", basis_labels=("a", "u", "v"))


def fe_plus_nilpotent_line(field: FieldSpec, name: str = "") -> PoissonAlgebra:
    """Fe (+) Fn with e.e = e and n.n = 0: the idempotent line next to a
    one-dimensional zero ideal."""
    alg = direct_sum(idempotent_line(field), zero_algebra(field, 1))
    return alg.with_name(name or f"fe-plus-n-{field}")


def xyz_tensors(field: FieldSpec) -> DialgebraTensors:
    """Basis x, y, z with x.x = z, [x, y] = x, [z, y] = 2z.

    These constants are mutually inconsistent: the compatibility identity at
    (x, y, x) gives [x.y, x] = 0 but [x,x].y + x.[y,x] = -z, so validation
    rejects them over every field.  They are kept as the canonical
    compatibility-violating negative control.
    """
    return tensors_from_maps(field, 3, {(0, 0, 2): 1}, {(0, 1, 0): 1, (1, 2, 2): -2})


def xyz_algebra(field: FieldSpec, allow_invalid: bool = False,
                name: str = "") -> PoissonAlgebra:
    t = xyz_tensors(field)
    label = name or f"xyz-{field}"
    if allow_invalid:
        return PoissonAlgebra(field, 3, t.dot, t.bracket, name=label,
                              basis_labels=("x", "y", "z"))
    return validate(t, name=label, basis_labels=("x", "y", "z"))


def semidirect_sum(assoc_part: PoissonAlgebra, lie_part: PoissonAlgebra,
                   action: Sequence, name: str = "") -> PoissonAlgebra:
    """Dot from the first algebra, bracket from the second, and the second
    acting on the first: [l, a] = action(l)(a).

    The action must consist of derivations of the dot assembling into a Lie
    homomorphism; this is not assumed, the result is validated and a
    violation raises.
    """
    if assoc_part.field != lie_part.field:
        raise ValueError("field mismatch")
    f = assoc_part.field
    m, l = assoc_part.dim, lie_part.dim
    if len(action) != l:
        raise ValueError("one action matrix per Lie basis vector is required")
    dot_map = dict(_nonzero(assoc_part.dot_tensor, _positions(m)[0]))
    bracket_map = {(m + i, m + j, m + k): c
                   for (i, j, k), c in _nonzero(lie_part.bracket_tensor, _positions(l)[1])}
    for li, mat in enumerate(action):
        rows = [[f.coerce(x) for x in row] for row in mat]
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ValueError("action matrices must be square of the dot part's size")
        for a_idx in range(m):
            for k in range(m):
                c = rows[k][a_idx]
                if c != 0:
                    # [a, l] entry with a before l in the basis order
                    bracket_map[(a_idx, m + li, k)] = f.neg(c)
    t = tensors_from_maps(f, m + l, dot_map, bracket_map)
    return validate(t, name=name or f"semidirect-{assoc_part.name}-{lie_part.name}")


# ---------------------------------------------------------------------------
# exhaustive enumeration of small Poisson structures
# ---------------------------------------------------------------------------

ENUM_CANDIDATE_CAP = 10 ** 7


def free_entry_count(n: int) -> tuple:
    """(dot, bracket) counts of canonical structure-constant positions."""
    return n * n * (n + 1) // 2, n * n * (n - 1) // 2


def enumerate_poisson_structures(n: int, q: int, cap: int = ENUM_CANDIDATE_CAP) -> list:
    """Every assignment of canonical structure constants over GF(q) that
    passes validation, in lexicographic (dot, bracket) order; distinct
    assignments are distinct tensors, so nothing collapses.

    Two exact stages: the associative dots, found by a depth-first search
    that cuts every partial assignment already breaking an associativity
    coordinate (``_associative_dots``); then for each, the brackets solving
    its Leibniz equations, linear once the dot is fixed.  Both stages list
    in lexicographic order, the order of the full product scan, so names
    are unchanged.  Each candidate is still validated (Jacobi filters
    here; ``validate`` computes every residual on raw scalars from the
    sparse basis products, without forming a product vector).  The cap
    still counts all q^(dot + bracket) assignments.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"dimension n must be a nonnegative integer, got {n!r}")
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise ValueError(f"cap must be an int >= 0, got {cap!r}")
    field = FieldSpec.prime(q)
    dot_free, bracket_free = free_entry_count(n)
    total = q ** (dot_free + bracket_free)
    if total > cap:
        raise BudgetExceededError("enumeration-candidates", f"{total} > {cap}")
    dot_positions, bracket_positions = _positions(n)
    out = []
    for dot_values in _associative_dots(field, n):
        dot_map = {pos: val for pos, val in zip(dot_positions, dot_values) if val != 0}
        for bracket_values in _leibniz_brackets(field, n, dot_map, bracket_positions):
            bracket_map = {pos: val for pos, val in zip(bracket_positions, bracket_values)
                           if val != 0}
            tensors = tensors_from_maps(field, n, dot_map, bracket_map)
            try:
                alg = validate(tensors, name=f"gf{q}-d{n}-{len(out):05d}")
            except AxiomViolation:
                continue
            out.append(alg)
    return out


# The two residuals the enumeration solves, compiled once per dimension over
# the canonical positions: c[i][j][k] is the dot value at (min(i, j),
# max(i, j), k), and d[i][j][k] the bracket value at (i, j, k) for i < j, its
# negative at (j, i, k) for i > j, and 0 for i = j.


def _dot_position(i: int, j: int, k: int) -> tuple:
    return (min(i, j), max(i, j), k)


@lru_cache(maxsize=None)
def _associativity_by_depth(n: int) -> tuple:
    """Every nonzero associativity residual coordinate
    ((e_i e_j) e_k - e_i (e_j e_k))_l as terms (coefficient, a, b), meaning
    coefficient * x_a * x_b over the dot values x in position order, a <= b.
    Entry d holds the coordinates whose largest position read is d: those
    that assigning position d completes."""
    index = {pos: p for p, pos in enumerate(_positions(n)[0])}

    def c(i, j, k):
        return index[_dot_position(i, j, k)]

    by_depth = [[] for _ in index]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        terms = Counter()
        for m in range(n):
            terms[tuple(sorted((c(i, j, m), c(m, k, l))))] += 1
            terms[tuple(sorted((c(j, k, m), c(i, m, l))))] -= 1
        cells = tuple((coef, a, b) for (a, b), coef in sorted(terms.items()) if coef)
        if cells:
            by_depth[max(b for _, _, b in cells)].append(cells)
    return tuple(tuple(cells) for cells in by_depth)


def _associative_dots(field: FieldSpec, n: int):
    """The value tuples of every commutative associative dot over GF(q), in
    itertools.product order: those that validate with the zero bracket.

    A depth-first search assigns position 0 outermost, values ascending, and
    at depth d tests only the coordinates filed under d, which read no later
    position; so a leaf is an associative dot, and a partial assignment that
    already breaks a coordinate is cut with its whole subtree.  Commutativity
    holds by construction, and with the zero bracket every other identity is
    vacuous.
    """
    q = field.order
    by_depth = _associativity_by_depth(n)
    values = [0] * len(by_depth)

    def extend(d):
        if d == len(values):
            yield tuple(values)
            return
        for x in field.elements():
            values[d] = x
            if all(sum(coef * values[a] * values[b] for coef, a, b in cells) % q == 0
                   for cells in by_depth[d]):
                yield from extend(d + 1)

    return extend(0)


@lru_cache(maxsize=None)
def _leibniz_cells(n: int) -> dict:
    """The Leibniz residual coordinates
    ([e_i e_j, e_k] - [e_i, e_k] e_j - e_i [e_j, e_k])_l filed by dot
    position: dot position -> [(r, coefficient, bracket position)], where r
    numbers the coordinates in validation order (the witness (i, j, k) in
    itertools.product order, then l) and a term means coefficient times the
    two values, so a coordinate is linear in the bracket once the dot is
    fixed."""
    cells: dict = {}
    for r, (i, j, k, l) in enumerate(itertools.product(range(n), repeat=4)):
        terms = Counter()
        for m in range(n):
            for sign, dot, (a, b, t) in ((1, (i, j, m), (m, k, l)),
                                         (-1, (m, j, l), (i, k, m)),
                                         (-1, (i, m, l), (j, k, m))):
                if a != b:
                    bracket = (a, b, t) if a < b else (b, a, t)
                    terms[_dot_position(*dot), bracket] += sign if a < b else -sign
        for (dot, bracket), coef in sorted(terms.items()):
            if coef:
                cells.setdefault(dot, []).append((r, coef, bracket))
    return cells


def _leibniz_rows(n: int, dot_map: dict, positions: Sequence) -> list:
    """The Leibniz residuals under the dot as integer rows over the bracket
    values at ``positions`` (every other bracket value zero), one per
    coordinate in ``_leibniz_cells`` order: entry p of row r is coordinate r
    of the residual of the unit bracket at p, before reduction.  Only the
    entries dot_map holds are visited."""
    column = {pos: p for p, pos in enumerate(positions)}
    cells = _leibniz_cells(n)
    rows = [[0] * len(positions) for _ in range(n ** 4)]
    for dot, value in dot_map.items():
        for r, coef, bracket in cells.get(dot, ()):
            if bracket in column:
                rows[r][column[bracket]] += coef * value
    return [tuple(row) for row in rows]


def _leibniz_brackets(field: FieldSpec, n: int, dot_map: dict, positions: Sequence) -> list:
    """The bracket value tuples at ``positions`` with every Leibniz residual
    zero under the dot, in lexicographic order: the kernel of the distinct
    nonzero ``_leibniz_rows``, reduced ``% q`` once and combined as ints.
    Its basis is in RREF, so varying earlier rows' coefficients more slowly
    lists the kernel already sorted (a pivot coordinate is its row's
    coefficient)."""
    q, ncols = field.order, len(positions)
    rows = tuple(row for row in dict.fromkeys(tuple(x % q for x in row)
                                              for row in _leibniz_rows(n, dot_map, positions))
                 if any(row))
    solutions = [(0,) * ncols]
    for row in kernel(_matrix(field, len(rows), ncols, rows)).rows():
        solutions = [tuple((a + c * b) % q for a, b in zip(v, row))
                     for v in solutions for c in range(q)]
    return solutions


# ---------------------------------------------------------------------------
# the curated corpus
# ---------------------------------------------------------------------------


def curated_corpus() -> list:
    """The named benchmark algebras over GF(2), GF(3) and Q.

    Rational members carry verified radical/nilradical metadata so that
    characteristic-zero checks have something to chew on.  The xyz structure
    constants are omitted: they violate the compatibility identity (see
    xyz_tensors) and live on only as a negative control.
    """
    gf2, gf3, q = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()
    out: list = []
    for field, tag in ((gf2, "gf2"), (gf3, "gf3"), (q, "q")):
        for n in range(1, 5):
            alg = zero_algebra(field, n, name=f"zero-d{n}-{tag}")
            if not field.is_finite:
                full = [[("1" if i == j else "0") for j in range(n)] for i in range(n)]
                alg = alg.with_meta({"radical": full, "nilradical": full})
            out.append(alg)
        idem = idempotent_line(field, name=f"idem-line-{tag}")
        if not field.is_finite:
            idem = idem.with_meta({"radical": [], "nilradical": []})
        out.append(idem)
        heis = heisenberg_zero_dot(field, name=f"heisenberg-{tag}")
        if not field.is_finite:
            eye3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
            heis = heis.with_meta({"radical": eye3, "nilradical": eye3})
        out.append(heis)
        solv = two_dim_nonabelian(field, name=f"solv2-{tag}")
        if not field.is_finite:
            solv = solv.with_meta({
                "radical": [["1", "0"], ["0", "1"]],
                "nilradical": [["1", "0"]],
                "phi_free": True,
                "complement": [["0", "1"]],
            })
        out.append(solv)
        fe = fe_plus_nilpotent_line(field, name=f"fe-plus-n-{tag}")
        if not field.is_finite:
            fe = fe.with_meta({"radical": [["0", "1"]], "nilradical": [["0", "1"]]})
        out.append(fe)
        idem_heis = direct_sum(idem, heis).with_name(f"idem+heis-{tag}")
        solv_fe = direct_sum(solv, fe).with_name(f"solv2+fe-{tag}")
        if not field.is_finite:
            heis_rows = [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
            idem_heis = idem_heis.with_meta({"radical": heis_rows, "nilradical": heis_rows})
            solv_fe = solv_fe.with_meta({
                "radical": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"]],
                "nilradical": [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
            })
        out.append(idem_heis)
        out.append(solv_fe)
    out.append(direct_sum(heisenberg_zero_dot(gf2), two_dim_nonabelian(gf2))
               .with_name("heis+solv2-gf2"))
    out.append(rotation3(q, name="rot3-q").with_meta({
        "radical": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "nilradical": [["0", "1", "0"], ["0", "0", "1"]],
    }))
    return out
