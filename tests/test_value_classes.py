"""The value classes and result records against frozen-dataclass twins.

palg's 16 value classes and records are hand-written slotted classes or
``typing.NamedTuple`` records, so that importing palg does not load the
standard library's class generator.  Each keeps what the frozen dataclass it
replaced gave: the constructor's fields, order and defaults, the outcome of
``==`` and ``hash`` (for ``Subspace``, which keeps one object per value and
hashes by identity, which values share a hash), the ``repr`` text, and
refusal of assignment.  The
twins below are those dataclasses, rebuilt field by field, as the reference.
"""

import ast
import copy
import dataclasses
import inspect
import pickle
from pathlib import Path

import pytest

from palg.algebra import DialgebraTensors, PoissonAlgebra, QuotientData
from palg.engel import EngelPair, SplitPair
from palg.fields import FieldSpec, _Frozen
from palg.lattice import (
    ChiefFactor,
    Classification,
    LatticeBudget,
    LatticeProfile,
    StructureReport,
)
from palg.linalg import Matrix, Subspace
from palg.series import SeriesReport
from palg.theorems import TheoremCheck, TheoremResult

REQUIRED = dataclasses.MISSING
DERIVED = dataclasses.field(init=False, repr=False, compare=False)

# (class, its fields as (name, default), whether the dataclass had slots)
TWIN_FIELDS = [
    (FieldSpec, [("kind", REQUIRED), ("modulus", None)], False),
    (Matrix, [("field", REQUIRED), ("nrows", REQUIRED), ("ncols", REQUIRED),
              ("entries", REQUIRED)], True),
    (Subspace, [("ambient_dim", REQUIRED), ("basis", REQUIRED), ("pivots", DERIVED),
                ("mask", DERIVED)], True),
    (DialgebraTensors, [("field", REQUIRED), ("dim", REQUIRED), ("dot", REQUIRED),
                        ("bracket", REQUIRED)], False),
    (PoissonAlgebra, [("field", REQUIRED), ("dim", REQUIRED), ("dot_tensor", REQUIRED),
                      ("bracket_tensor", REQUIRED), ("name", ""), ("basis_labels", ()),
                      ("meta", ())], False),
    (QuotientData, [("algebra", REQUIRED), ("projection", REQUIRED), ("lift", REQUIRED),
                    ("ideal", REQUIRED)], False),
    (EngelPair, [("element", REQUIRED), ("engel_assoc", REQUIRED), ("engel_lie", REQUIRED)],
     False),
    (SplitPair, [("element", REQUIRED), ("s_part", REQUIRED), ("k_part", REQUIRED)], False),
    (SeriesReport, [("kind", REQUIRED), ("terms", REQUIRED), ("terminates", REQUIRED),
                    ("step", REQUIRED)], False),
    (LatticeBudget, [("max_dim", 5), ("max_q", 3), ("max_subspaces", 10 ** 6),
                     ("max_elements", 10 ** 5)], False),
    (LatticeProfile, [(name, REQUIRED) for name in (
        "subspaces", "masks", "dims", "subalgebra_flags", "assoc_flags", "lie_flags",
        "ideal_flags")], False),
    (Classification, [("kind", REQUIRED), ("idempotent", None), ("non_ideal_maximal", None)],
     False),
    (ChiefFactor, [("lower", REQUIRED), ("upper", REQUIRED), ("factor", REQUIRED)], False),
    (StructureReport, [(name, REQUIRED) for name in (
        "algebra_name", "radical", "nilradical", "socle", "zero_socle", "frattini_subalgebra",
        "frattini_ideal", "frattini_assoc", "frattini_lie", "phi_free", "splitting",
        "classification", "idempotent", "markers")], False),
    (TheoremResult, [("theorem", REQUIRED), ("algebra", REQUIRED), ("status", REQUIRED),
                     ("exercised", 0), ("witness", None), ("detail", "")], True),
    (TheoremCheck, [("id", REQUIRED), ("statement", REQUIRED), ("scope", REQUIRED),
                    ("runner", REQUIRED)], False),
]


def _twin(cls, fields, slots):
    spec = [(name, object) if default is REQUIRED else
            (name, object, default if isinstance(default, dataclasses.Field)
             else dataclasses.field(default=default))
            for name, default in fields]
    # Subspace's == is identity, with one object per value, so it agrees
    # with the twin's == on the same two fields
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=slots)


TWINS = {cls: _twin(cls, fields, slots) for cls, fields, slots in TWIN_FIELDS}

GF2, GF3 = FieldSpec.prime(2), FieldSpec.prime(3)
E0, E1 = Matrix(GF2, 1, 2, ((1, 0),)), Matrix(GF2, 1, 2, ((0, 1),))
LINE0, LINE1 = Subspace(2, E0), Subspace(2, E1)
DOT, ZERO = (((1,),),), (((0,),),)
ALG = PoissonAlgebra(GF2, 1, DOT, ZERO)


def _structure_report(name):
    return (name, LINE0, LINE0, None, None, LINE1, LINE1, (LINE0, LINE1), None, True, None,
            "nilpotent", (1, 0), ("a marker",))


# (class, arguments, arguments that differ in one field); the arguments are
# built anew for each instance, so equal instances share no field objects
SAMPLES = [
    (FieldSpec, lambda: ("prime-field", 2), lambda: ("prime-field", 3)),
    (FieldSpec, lambda: ("rationals",), lambda: ("prime-field", 2)),
    (Matrix, lambda: (GF2, 1, 2, ((1, 0),)), lambda: (GF2, 1, 2, ((0, 1),))),
    (Matrix, lambda: (FieldSpec("prime-field", 3), 0, 2, ()), lambda: (GF2, 0, 2, ())),
    (Subspace, lambda: (2, Matrix(GF2, 1, 2, ((1, 0),))), lambda: (2, E1)),
    (DialgebraTensors, lambda: (GF2, 1, (((1,),),), ZERO), lambda: (GF2, 1, ZERO, ZERO)),
    (PoissonAlgebra, lambda: (GF2, 1, (((1,),),), ZERO), lambda: (GF2, 1, DOT, ZERO, "x")),
    (PoissonAlgebra, lambda: (GF3, 1, DOT, ZERO, "a", ("u",), (("k", "1"),)),
     lambda: (GF3, 1, DOT, ZERO, "a", ("u",), (("k", "2"),))),
    (QuotientData, lambda: (ALG, E0, E1, LINE0), lambda: (ALG, E0, E1, LINE1)),
    (EngelPair, lambda: ((1, 0), LINE0, LINE1), lambda: ((1, 0), LINE1, LINE0)),
    (SplitPair, lambda: ((0, 1), LINE0, LINE1), lambda: ((1, 1), LINE0, LINE1)),
    (SeriesReport, lambda: ("derived", (LINE0,), True, 0),
     lambda: ("derived", (LINE0,), False, 0)),
    (LatticeBudget, lambda: (), lambda: (5, 3, 10 ** 6, 7)),
    (LatticeBudget, lambda: (2, 5), lambda: (2,)),
    (LatticeProfile, lambda: ((LINE0,), (1,), (1,), (True,), (True,), (True,), (False,)),
     lambda: ((LINE0,), (1,), (1,), (True,), (True,), (True,), (True,))),
    (Classification, lambda: ("nilpotent",), lambda: ("fails", None, LINE1)),
    (Classification, lambda: ("Fe-plus-N", (1, 0)), lambda: ("Fe-plus-N", (0, 1))),
    (ChiefFactor, lambda: (LINE0, LINE1, ALG), lambda: (LINE0, LINE1, ALG.with_name("y"))),
    (StructureReport, lambda: _structure_report("a"), lambda: _structure_report("b")),
    (TheoremResult, lambda: ("Thm-1", "a", "pass"), lambda: ("Thm-1", "a", "pass", 1)),
    (TheoremResult, lambda: ("Thm-1", "a", "fail", 2, {"x": [1]}, "d"),
     lambda: ("Thm-1", "a", "fail", 2, {"x": [2]}, "d")),
    (TheoremCheck, lambda: ("Thm-1", "a statement", "per-algebra", len),
     lambda: ("Thm-1", "a statement", "per-pair", len)),
]


def _hash(value):
    """The hash, or the type of the error hashing raises."""
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


def _params(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_every_class_has_a_twin():
    assert len(TWINS) == 16
    assert {cls for cls, _, _ in SAMPLES} == set(TWINS)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_the_constructor_takes_the_twins_fields_in_order_with_its_defaults(cls):
    assert _params(cls) == _params(TWINS[cls])


@pytest.mark.parametrize("cls, args, other", SAMPLES,
                         ids=[f"{cls.__name__}-{pos}" for pos, (cls, _, _) in enumerate(SAMPLES)])
def test_equality_hash_and_repr_match_the_twin(cls, args, other):
    twin = TWINS[cls]
    a, a2, b = cls(*args()), cls(*args()), cls(*other())
    ta, ta2, tb = twin(*args()), twin(*args()), twin(*other())
    assert (a == a2, a != a2, a == b, a != b, b == a) == (
        ta == ta2, ta != ta2, ta == tb, ta != tb, tb == ta) == (True, False, False, True, False)
    assert (a == "a string", a != None) == (ta == "a string", ta != None)  # noqa: E711
    if cls is Subspace:
        # one object per subspace, so its hash is the identity hash: only
        # which hashes agree matches the twin's
        assert a is a2
        assert [_hash(v) == _hash(a) for v in (a, a2, b)] == [
            _hash(v) == _hash(ta) for v in (ta, ta2, tb)]
    else:
        assert [_hash(v) for v in (a, a2, b)] == [_hash(v) for v in (ta, ta2, tb)]
    assert (repr(a), repr(b)) == (repr(ta), repr(tb))
    # copies and pickles rebuild an equal value (the twins cannot be pickled)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_assignment_is_refused_like_the_twins(cls):
    args = next(args for sample, args, _ in SAMPLES if sample is cls)
    value, twin = cls(*args()), TWINS[cls](*args())
    names = [f.name for f in dataclasses.fields(twin)]
    # a name that is no field: the slotted twins raised TypeError there
    for name, obj in [(n, obj) for n in names for obj in (value, twin)] + [("unknown", value)]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert value == cls(*args())


def test_a_check_row_is_not_a_tuple():
    # palg check writes rows through json.dump's default=TheoremResult.to_json,
    # which json.dump would skip for a tuple and write a list instead
    assert not isinstance(TheoremResult("Thm-1", "a", "pass"), tuple)



def _equality_and_hash_bindings():
    """(module, class, name, what it binds) for each ``__eq__`` or
    ``__hash__`` a class body in palg's source defines: "def" for a method,
    else the source of the assigned value."""
    found = set()
    for path in sorted(Path(inspect.getfile(_Frozen)).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(stmt, ast.FunctionDef):
                    pairs = [(stmt.name, "def")]
                elif isinstance(stmt, ast.Assign):
                    pairs = [(t.id, ast.unparse(v)) for target in stmt.targets for t, v in (
                        zip(target.elts, stmt.value.elts) if isinstance(target, ast.Tuple)
                        else [(target, stmt.value)]) if isinstance(t, ast.Name)]
                else:
                    pairs = []
                found |= {(path.stem, cls.name, name, bound) for name, bound in pairs
                          if name in ("__eq__", "__hash__")}
    return found


def test_only_the_base_defines_equality_and_hashing():
    # one value protocol: every value class takes == and hash from
    # _Frozen's fields, and Subspace alone swaps in object's identity tests
    assert _equality_and_hash_bindings() == {
        ("fields", "_Frozen", "__eq__", "def"), ("fields", "_Frozen", "__hash__", "def"),
        ("linalg", "Subspace", "__eq__", "object.__eq__"),
        ("linalg", "Subspace", "__hash__", "object.__hash__")}
    assert Subspace.__eq__ is object.__eq__ and Subspace.__hash__ is object.__hash__
    for cls in TWINS:
        if issubclass(cls, _Frozen) and cls is not Subspace:
            assert (cls.__eq__, cls.__hash__) == (_Frozen.__eq__, _Frozen.__hash__), cls
