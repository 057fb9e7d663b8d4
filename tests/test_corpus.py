import collections
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from palg.algebra import (
    AxiomViolation,
    PoissonAlgebra,
    direct_sum,
    evaluate_axiom,
    tensors_from_maps,
    validate,
)
from palg.corpus import (
    CorpusFormatError,
    _associative_dots,
    _leibniz_brackets,
    _leibniz_rows,
    _positions,
    curated_corpus,
    enumerate_poisson_structures,
    fe_plus_nilpotent_line,
    free_entry_count,
    heisenberg_zero_dot,
    idempotent_line,
    lie_zero_dot,
    parse_document,
    parse_manifest,
    semidirect_sum,
    serialize_document,
    serialize_manifest,
    two_dim_nonabelian,
    xyz_algebra,
    zero_algebra,
)
from palg.fields import FieldSpec
from palg import algebra, linalg
from palg.lattice import BudgetExceededError, lattice_profile

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

IDEMPOTENT_DOC = """
{
  "schema_version": "1",
  "name": "idem",
  "field": "Q",
  "dim": 1,
  "dot": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
  "bracket": []
}
"""


def test_parse_idempotent_document():
    alg = parse_document(IDEMPOTENT_DOC)
    e = alg.basis_element(0)
    assert alg.mul_dot(e, e) == e


def test_parse_empty_tensors_gives_zero_algebra():
    doc = {"schema_version": "1", "name": "z", "field": {"p": 3}, "dim": 3,
           "dot": [], "bracket": []}
    alg = parse_document(json.dumps(doc))
    assert alg.dim == 3
    assert all(alg.dot_tensor[i][j][k] == 0
               for i in range(3) for j in range(3) for k in range(3))


def test_float_coefficients_are_rejected():
    doc = {"schema_version": "1", "name": "bad", "field": "Q", "dim": 1,
           "dot": [{"i": 0, "j": 0, "k": 0, "c": "0.5"}], "bracket": []}
    with pytest.raises(CorpusFormatError):
        parse_document(json.dumps(doc))
    doc["dot"][0]["c"] = 0.5
    with pytest.raises(CorpusFormatError):
        parse_document(json.dumps(doc))


def test_parse_error_positions_and_schema_checks():
    with pytest.raises(CorpusFormatError, match="syntax error at line"):
        parse_document("{not json")
    with pytest.raises(CorpusFormatError, match="schema_version"):
        parse_document("{}")
    with pytest.raises(CorpusFormatError, match="not prime"):
        parse_document(json.dumps({"schema_version": "1", "field": {"p": 4}, "dim": 1}))
    with pytest.raises(CorpusFormatError, match="i < j"):
        parse_document(json.dumps({
            "schema_version": "1", "field": "Q", "dim": 2, "dot": [],
            "bracket": [{"i": 1, "j": 0, "k": 0, "c": "1"}]}))
    with pytest.raises(CorpusFormatError, match="duplicate"):
        parse_document(json.dumps({
            "schema_version": "1", "field": "Q", "dim": 1,
            "dot": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                    {"i": 0, "j": 0, "k": 0, "c": "2"}], "bracket": []}))


BOOL_DOC = {"schema_version": "1", "name": "b", "field": {"p": 3}, "dim": 2,
            "dot": [{"i": 0, "j": 0, "k": 0, "c": "1"}], "bracket": []}


@pytest.mark.parametrize("path, value, message", [
    (("dim",), True, "dim must be a nonnegative integer, got True"),
    (("dim",), False, "dim must be a nonnegative integer, got False"),
    (("dot", 0, "i"), False, "index i=False"),
    (("dot", 0, "j"), True, "index j=True"),
    (("dot", 0, "k"), True, "index k=True"),
])
def test_parse_rejects_booleans_for_integers(path, value, message):
    # bool is an int in Python, but not in the document format: "dim": true
    # read as dimension 1 and "i": true as index 1
    doc = json.loads(json.dumps(BOOL_DOC))
    parse_document(json.dumps(doc))  # valid as it stands
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(CorpusFormatError, match=message):
        parse_document(json.dumps(doc))


def test_axiom_violations_are_forwarded_unless_allowed():
    doc = {"schema_version": "1", "name": "bad", "field": {"p": 5}, "dim": 3,
           "dot": [{"i": 0, "j": 0, "k": 2, "c": "1"}],
           "bracket": [{"i": 0, "j": 1, "k": 0, "c": "1"},
                        {"i": 1, "j": 2, "k": 2, "c": "-2"}]}
    text = json.dumps(doc)
    with pytest.raises(AxiomViolation):
        parse_document(text)
    alg = parse_document(text, allow_invalid=True)
    assert alg.dim == 3


def test_round_trip_identity():
    for alg in (heisenberg_zero_dot(GF3), fe_plus_nilpotent_line(Q),
                two_dim_nonabelian(GF2).with_meta({"note": [1, 2]})):
        text = serialize_document(alg)
        back = parse_document(text)
        assert back.dot_tensor == alg.dot_tensor
        assert back.bracket_tensor == alg.bracket_tensor
        assert back.name == alg.name and back.meta == alg.meta
        assert serialize_document(back) == text  # serialize . parse . serialize = id


def _assert_round_trips(alg):
    text = serialize_document(alg)
    back = parse_document(text)
    assert (back.field, back.dim, back.name) == (alg.field, alg.dim, alg.name)
    assert back.dot_tensor == alg.dot_tensor and back.bracket_tensor == alg.bracket_tensor
    assert back.labels() == alg.labels() and back.meta == alg.meta
    assert serialize_document(back) == text


def test_enumerate_validate_and_the_format_multiply_nothing(monkeypatch):
    # palg enumerate validates from the sparse axiom scan and writes and
    # reads documents: no product, no operator, no induced structure, no
    # per-tensor cache entry and no shared subspace enumeration, so no table
    # of basis products (it lives in the entry) and no speed-up of the
    # checks charged to it
    calls = []
    original = algebra.PoissonAlgebra._mul
    monkeypatch.setattr(algebra.PoissonAlgebra, "_mul",
                        lambda *args: calls.append(args) or original(*args))
    induced = algebra._induced
    monkeypatch.setattr(algebra, "_induced", lambda *args: calls.append(args) or induced(*args))
    lattice_profile.cache_clear()
    algebras = enumerate_poisson_structures(2, 3)
    assert len(algebras) == 113
    for alg in algebras:
        _assert_round_trips(alg)
    assert calls == []
    info = lattice_profile.cache_info()
    assert (info.misses, info.currsize) == (0, 0)
    assert linalg._STORES == {}


@pytest.mark.parametrize("source", ["enumerate-2-2", "enumerate-2-3", "enumerate-2-5",
                                    "curated", "dim-0"])
def test_documents_round_trip(source):
    if source.startswith("enumerate"):
        _, n, q = source.split("-")
        algebras = enumerate_poisson_structures(int(n), int(q))
    elif source == "curated":
        algebras = curated_corpus()
    else:
        algebras = [zero_algebra(f, 0) for f in (GF2, Q)]
        algebras.append(algebras[0].with_name("").with_meta({"empty": {}, "none": []}))
    assert algebras
    for alg in algebras:
        _assert_round_trips(alg)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@given(name=st.text(), labels=st.lists(st.text(), min_size=4, max_size=4),
       meta=st.dictionaries(st.text(), _JSON_VALUES, max_size=4),
       coeffs=st.tuples(_COEFFS, _COEFFS, _COEFFS), q_field=st.booleans())
def test_any_names_labels_and_metadata_round_trip(name, labels, meta, coeffs, q_field):
    # a dim-2 Lie algebra beside a scaled idempotent line and a zero line:
    # valid for any coefficients, Fractions over Q
    field = Q if q_field else GF5
    a, b, c = coeffs if q_field else (field.coerce(x.numerator) for x in coeffs)
    alg = direct_sum(direct_sum(lie_zero_dot(field, 2, {(0, 1, 0): a, (0, 1, 1): b}),
                                validate(tensors_from_maps(field, 1, {(0, 0, 0): c}, {}))),
                     zero_algebra(field, 1))
    alg = PoissonAlgebra(alg.field, alg.dim, alg.dot_tensor, alg.bracket_tensor, name,
                         tuple(labels), alg.meta).with_meta(meta)
    _assert_round_trips(alg)


def test_manifest_round_trip():
    text = serialize_manifest(["a.palg", "b.palg"])
    assert parse_manifest(text) == ["a.palg", "b.palg"]
    with pytest.raises(CorpusFormatError):
        parse_manifest("[]")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_lie_zero_dot_always_validates():
    alg = heisenberg_zero_dot(GF2)
    validate(alg.tensors())


def test_xyz_construction_is_rejected_and_bypassable():
    with pytest.raises(AxiomViolation):
        xyz_algebra(GF5)
    bad = xyz_algebra(GF5, allow_invalid=True)
    assert bad.dim == 3 and bad.basis_labels == ("x", "y", "z")


def test_semidirect_construction_validates_the_action():
    # one-dimensional dot algebra with zero square, acted on by a scaling
    base = zero_algebra(Q, 1)
    line = zero_algebra(Q, 1)
    alg = semidirect_sum(base, line, [[[1]]])
    assert alg.dim == 2
    # [l, a] = a: left-multiplication by the Lie generator scales the base
    assert alg.mul_bracket(alg.basis_element(1), alg.basis_element(0)) == \
        alg.basis_element(0)


def test_semidirect_rejects_non_derivations():
    # e.e = e scaled action is not a derivation: D(e.e) = D(e) needs 2 e D(e)
    base = idempotent_line(Q)
    line = zero_algebra(Q, 1)
    with pytest.raises(AxiomViolation):
        semidirect_sum(base, line, [[[1]]])


@pytest.mark.parametrize("field", [GF3, Q])
def test_semidirect_copies_a_lie_part_of_dimension_two(field):
    # a line a acted on by solv2 = span(x, y), [x, y] = x, through
    # x -> 0 and y -> 1: the Lie part's bracket moves to positions 1, 2
    alg = semidirect_sum(zero_algebra(field, 1), two_dim_nonabelian(field), [[[0]], [[1]]])
    a, x, y = (alg.basis_element(i) for i in range(3))
    assert alg.dim == 3
    assert alg.mul_bracket(x, y) == x
    assert alg.mul_bracket(a, y) == alg.element((-1, 0, 0))
    assert alg.mul_bracket(a, x) == alg.element((0, 0, 0))
    _assert_round_trips(alg)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def test_free_entry_counts():
    assert free_entry_count(2) == (6, 2)
    assert free_entry_count(3) == (18, 9)


def test_dim1_gf2_enumeration_is_exactly_zero_and_idempotent():
    algebras = enumerate_poisson_structures(1, 2)
    assert len(algebras) == 2
    zero, idem = algebras
    assert all(zero.dot_tensor[0][0][k] == 0 for k in range(1))
    assert idem.dot_tensor[0][0][0] == 1


def test_enumeration_counts_are_frozen():
    # regression constants computed by the exhaustive scan itself
    assert len(enumerate_poisson_structures(1, 3)) == 3
    assert len(enumerate_poisson_structures(2, 2)) == 25
    assert len(enumerate_poisson_structures(2, 3)) == 113
    assert len(enumerate_poisson_structures(2, 5)) == 769


def test_enumeration_contains_zero_and_idempotent_patterns():
    algebras = enumerate_poisson_structures(2, 2)
    zero_found = any(a.dot_tensor == zero_algebra(GF2, 2).dot_tensor
                     and a.bracket_tensor == zero_algebra(GF2, 2).bracket_tensor
                     for a in algebras)
    idem_found = any(a.dot_tensor[0][0][0] == 1
                     and all(a.dot_tensor[i][j][k] == 0
                             for i in range(2) for j in range(2) for k in range(2)
                             if (i, j, k) != (0, 0, 0))
                     for a in algebras)
    assert zero_found and idem_found


def test_enumeration_is_deterministic():
    a = [alg.dot_tensor for alg in enumerate_poisson_structures(2, 2)]
    b = [alg.dot_tensor for alg in enumerate_poisson_structures(2, 2)]
    assert a == b


def test_enumeration_candidate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_poisson_structures(3, 5)


def test_enumeration_budget_counts_every_candidate_tensor():
    # (2, 3) has 6 dot and 2 bracket positions: the cap counts all 3^8
    # assignments, not the dots or kernels actually visited
    assert len(enumerate_poisson_structures(2, 3, cap=3 ** 8)) == 113
    with pytest.raises(BudgetExceededError):
        enumerate_poisson_structures(2, 3, cap=3 ** 8 - 1)


@pytest.mark.parametrize("n", [-1, -5, 1.0, "2", True, False])
def test_enumeration_rejects_a_bad_dimension(n):
    with pytest.raises(ValueError, match="dimension n"):
        enumerate_poisson_structures(n, 5)


@pytest.mark.parametrize("cap", [-1, -5, 2.5, "100", True, False, None])
def test_enumeration_rejects_a_bad_cap(cap):
    # a negative cap used to surface as a budget overrun ("2 > -5")
    with pytest.raises(ValueError, match="cap"):
        enumerate_poisson_structures(1, 2, cap=cap)


def test_a_zero_cap_is_a_budget_not_a_usage_error():
    # dimension 0 has one candidate, so cap 0 is an overrun there
    assert len(enumerate_poisson_structures(0, 2, cap=1)) == 1
    with pytest.raises(BudgetExceededError):
        enumerate_poisson_structures(0, 2, cap=0)


def _product_scan(n, q):
    """The single-stage scan: validate every one of the q^(dot + bracket)
    assignments in itertools.product order."""
    field = FieldSpec.prime(q)
    dot_positions = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)]
    bracket_positions = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    elems = list(field.elements())
    out = []
    for assignment in itertools.product(elems, repeat=len(dot_positions) + len(bracket_positions)):
        dot_map = {pos: val for pos, val in zip(dot_positions, assignment) if val != 0}
        bracket_map = {pos: val
                       for pos, val in zip(bracket_positions, assignment[len(dot_positions):])
                       if val != 0}
        tensors = tensors_from_maps(field, n, dot_map, bracket_map)
        try:
            alg = validate(tensors, name=f"gf{q}-d{n}-{len(out):05d}")
        except AxiomViolation:
            continue
        out.append(alg)
    return out


def _enumeration_record(algebras):
    return [(a.name, a.dot_tensor, a.bracket_tensor, a.labels(), a.meta) for a in algebras]


@pytest.mark.parametrize("n, q", [(0, 2), (0, 5), (1, 2), (1, 3), (1, 5), (1, 7),
                                  (2, 2), (2, 3)])
def test_two_stage_enumeration_matches_the_product_scan(n, q):
    assert (_enumeration_record(enumerate_poisson_structures(n, q))
            == _enumeration_record(_product_scan(n, q)))


def _canonical_dot(alg):
    n = alg.dim
    return {(i, j, k): alg.dot_tensor[i][j][k]
            for i in range(n) for j in range(i, n) for k in range(n)
            if alg.dot_tensor[i][j][k] != 0}


def _commutative_associative_dots(field, n):
    positions = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)]
    for values in itertools.product(field.elements(), repeat=len(positions)):
        dot_map = {pos: val for pos, val in zip(positions, values) if val != 0}
        try:
            validate(tensors_from_maps(field, n, dot_map, {}))
        except AxiomViolation:
            continue
        yield dot_map


def _leibniz_brute_force(field, n, dot_map, positions):
    witnesses = list(itertools.product(range(n), repeat=3))
    out = []
    for values in itertools.product(field.elements(), repeat=len(positions)):
        t = tensors_from_maps(field, n, dot_map,
                              {pos: val for pos, val in zip(positions, values) if val != 0})
        alg = PoissonAlgebra(field, n, t.dot, t.bracket)
        if all(all(c == 0 for c in evaluate_axiom(alg, "leibniz", w)) for w in witnesses):
            out.append(values)
    return out


def _bracket_stage_cases():
    for field in (GF2, GF3):
        for dot_map in _commutative_associative_dots(field, 2):
            yield field, 2, dot_map
    for alg in (zero_algebra(GF2, 3),
                direct_sum(idempotent_line(GF2), zero_algebra(GF2, 2)),
                direct_sum(fe_plus_nilpotent_line(GF2), idempotent_line(GF2)),
                direct_sum(fe_plus_nilpotent_line(GF3), idempotent_line(GF3))):
        yield alg.field, 3, _canonical_dot(alg)


@pytest.mark.parametrize("n, q", [(0, 2), (1, 7), (2, 2), (2, 3), (2, 5)])
def test_dot_search_yields_the_validate_filter_in_order(n, q):
    field = FieldSpec.prime(q)
    dot_positions = _positions(n)[0]
    found = [{pos: val for pos, val in zip(dot_positions, values) if val != 0}
             for values in _associative_dots(field, n)]
    assert found == list(_commutative_associative_dots(field, n))


def _unit_bracket_columns(field, n, dot_map, positions):
    """The Leibniz residuals of each unit bracket, stacked in validation order."""
    witnesses = list(itertools.product(range(n), repeat=3))
    columns = []
    for pos in positions:
        t = tensors_from_maps(field, n, dot_map, {pos: 1})
        unit = PoissonAlgebra(field, n, t.dot, t.bracket)
        columns.append([c for w in witnesses for c in evaluate_axiom(unit, "leibniz", w)])
    return list(zip(*columns))


def test_compiled_leibniz_rows_are_the_unit_bracket_columns():
    cases = [(GF3, 2, dot_map) for dot_map in _commutative_associative_dots(GF3, 2)]
    cases += [case for case in _bracket_stage_cases() if case[1] == 3]
    assert len(cases) == 105 + 4
    for field, n, dot_map in cases:
        positions = _positions(n)[1]
        rows = [tuple(field.coerce(x) for x in row)
                for row in _leibniz_rows(n, dot_map, positions)]
        assert rows == _unit_bracket_columns(field, n, dot_map, positions), (field, dot_map)


def test_dim3_gf2_scan_is_where_jacobi_filters():
    # the smallest exhaustive scan with Jacobi witnesses; the 988 dots were
    # confirmed by the validate filter over all 2^18 dots
    dot_positions, bracket_positions = _positions(3)
    dots = list(_associative_dots(GF2, 3))
    assert len(dots) == 988
    kept, rejected = [], collections.Counter()
    for values in dots:
        dot_map = {pos: val for pos, val in zip(dot_positions, values) if val != 0}
        for bracket in _leibniz_brackets(GF2, 3, dot_map, bracket_positions):
            t = tensors_from_maps(GF2, 3, dot_map, dict(zip(bracket_positions, bracket)))
            try:
                kept.append(validate(t))
            except AxiomViolation as exc:
                rejected[exc.axiom] += 1
    assert len(kept) == 1408 and rejected == {"jacobi": 392}
    algebras = enumerate_poisson_structures(3, 2, cap=2 ** 27)
    assert [(a.dot_tensor, a.bracket_tensor) for a in algebras] == \
        [(a.dot_tensor, a.bracket_tensor) for a in kept]
    assert algebras[-1].name == "gf2-d3-01407"


def test_bracket_stage_lists_exactly_the_leibniz_solutions_in_order():
    cases = list(_bracket_stage_cases())
    assert len(cases) > 20
    for field, n, dot_map in cases:
        positions = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
        expected = _leibniz_brute_force(field, n, dot_map, positions)
        assert _leibniz_brackets(field, n, dot_map, positions) == expected, (field, dot_map)


# ---------------------------------------------------------------------------
# curated corpus
# ---------------------------------------------------------------------------


def test_curated_corpus_members_validate():
    corpus = curated_corpus()
    assert len(corpus) >= 30
    names = [a.name for a in corpus]
    assert len(set(names)) == len(names)
    for alg in corpus:
        validate(alg.tensors())


def test_curated_corpus_round_trips():
    for alg in curated_corpus():
        assert parse_document(serialize_document(alg)).dot_tensor == alg.dot_tensor
