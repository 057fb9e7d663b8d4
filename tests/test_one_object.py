"""One ``Subspace`` object per subspace value.

Every constructor returns the object that the table of its (field, n)
holds, so equality and hashing are identity.  Once F^n has been enumerated,
every subspace of F^n carries its point mask, so containment is an int test
and a meet is a lookup by mask.  The references here are the ones those
fast paths replaced: ``reduce_vector`` for containment and a Zassenhaus
elimination, written out below, for the meet.
"""

import ast
import itertools
import random
import sys
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from palg import lattice, linalg
from palg.algebra import closure_ideal, closure_subalgebra, quotient_maps
from palg.corpus import curated_corpus, enumerate_poisson_structures
from palg.fields import FieldSpec
from palg.lattice import DEFAULT_BUDGET, LatticeBudget, lattice_profile
from palg.linalg import (
    Matrix,
    Subspace,
    kernel,
    reduction_matrix,
    rref,
    subspace_image,
    subspace_intersect,
    subspace_sum,
    vec_is_zero,
)
from palg.theorems import run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "palg"
GF2, GF3, Q = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()


def ref_contains(big: Subspace, small: Subspace) -> bool:
    return all(vec_is_zero(big.reduce_vector(r)) for r in small.rows())


def ref_meet_rows(u: Subspace, v: Subspace) -> tuple:
    """The RREF basis of u meet v: reduce [U|U; V|0], keep the right block
    of the rows whose left block vanished."""
    f, n = u.field, u.ambient_dim
    rows = [r + r for r in u.rows()] + [r + (f.zero(),) * n for r in v.rows()]
    reduced = rref(Matrix(f, len(rows), 2 * n, tuple(rows)))
    right = [row[n:] for row in reduced.entries if vec_is_zero(row[:n])]
    return rref(Matrix(f, len(right), n, tuple(right))).entries


def _assert_all_pairs(spaces, meets_by_lookup: bool):
    for u, v in itertools.product(spaces, repeat=2):
        assert u.mask is not None and v.mask is not None
        assert u.contains(v) == ref_contains(u, v), (u, v)
        meet = subspace_intersect(u, v)
        assert meet.rows() == ref_meet_rows(u, v), (u, v)
        assert meet.mask == u.mask & v.mask
        assert meet is Subspace.span(u.field, u.ambient_dim, meet.rows())
        if meets_by_lookup:
            assert meet is linalg._STORES[(u.field.modulus, u.ambient_dim)][u.mask & v.mask]


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)])
def test_mask_paths_match_the_reduce_and_zassenhaus_references(field, n):
    # built before the enumeration (into the weak table, unless something
    # else has kept them alive), and held across it
    early = [Subspace.span(field, n, [linalg.basis_vector(field, n, i)]) for i in range(n)]
    early.append(subspace_sum(early[0], early[-1]))
    subspaces, masks, _ = lattice._enumeration(field, n, DEFAULT_BUDGET)
    assert all(any(s is t for t in subspaces) and s.mask is not None for s in early)
    assert len(set(masks)) == len(subspaces)
    _assert_all_pairs(subspaces, meets_by_lookup=True)

    # held across cache_clear(): the masks stay, there is no mask index
    # until the next enumeration, and each object stays the one of its value
    held = subspaces
    lattice_profile.cache_clear()
    assert (field.modulus, n) not in linalg._STORES
    assert all(Subspace.from_vectors(field, n, s.rows()) is s for s in held)
    _assert_all_pairs(held, meets_by_lookup=False)
    again, _, _ = lattice._enumeration(field, n, DEFAULT_BUDGET)
    assert all(s is t for s, t in zip(again, held)) and len(again) == len(held)


def test_every_constructor_returns_the_enumerated_object():
    alg = next(a for a in curated_corpus() if a.name == "heisenberg-gf3")
    f, n = alg.field, alg.dim
    enumerated = {s.rows(): s for s in lattice_profile(alg).subspaces}

    def assert_enumerated(s):
        assert s is enumerated[s.rows()] and s.mask is not None

    for s in enumerated.values():
        rows = s.rows()
        assert_enumerated(Subspace.span(f, n, rows + rows))
        assert_enumerated(Subspace.from_vectors(f, n, list(reversed(rows))))
        assert_enumerated(Subspace(n, Matrix(f, len(rows), n, rows)))
        assert_enumerated(closure_subalgebra(alg, s))
        assert_enumerated(closure_ideal(alg, s))
        assert kernel(reduction_matrix(s)) is s  # v -> v mod s has kernel s
    for x in map(alg.basis_element, range(n)):
        assert_enumerated(kernel(alg.p_operator(x)))
        assert_enumerated(kernel(alg.q_operator(x)))
        for s in enumerated.values():
            assert_enumerated(subspace_image(alg.q_operator(x), s))
    assert_enumerated(Subspace.zero(f, n))
    assert_enumerated(Subspace.full(f, n))
    # a quotient's subspaces pulled back are enumerated objects too
    line = next(s for s in enumerated.values() if s.dim == 1)
    data = quotient_maps(alg, closure_ideal(alg, line))
    assert_enumerated(subspace_image(data.lift, Subspace.full(f, data.algebra.dim)))


@pytest.mark.parametrize("field", [Q, GF3], ids=str)
def test_threads_building_the_same_bases_get_one_object_each(field):
    # F^6 lies above the enumeration budget, so its table stays weak and
    # these bases are new to it: every thread's first span of one can miss
    n, count, threads = 6, 150, 4
    if field is Q:
        bases = [[(Fraction(1), Fraction(k, 7919), 0, Fraction(1, k + 2), 0, 0),
                  (0, 0, 1, Fraction(k + 3, 11), Fraction(-k, 13), 0)] for k in range(count)]
    else:
        bases = [[(1,) + tail] for tail in itertools.islice(
            itertools.product(range(3), repeat=5), count)]
    start = threading.Barrier(threads)
    built = [None] * threads

    def work(slot: int):
        start.wait()
        built[slot] = [Subspace.span(field, n, rows) for rows in bases]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    for k in range(count):
        first = built[0][k]
        assert all(built[i][k] is first for i in range(threads)), k
        assert first is Subspace.from_vectors(field, n, bases[k])


def test_almost_every_containment_on_the_suite_corpus_takes_the_mask_path(monkeypatch):
    corpus = (enumerate_poisson_structures(1, 2) + enumerate_poisson_structures(1, 3)
              + enumerate_poisson_structures(2, 2) + enumerate_poisson_structures(2, 3)
              + curated_corpus())
    calls = [0, 0]
    contains = Subspace.contains

    def counted(self, other):
        calls[0] += 1
        calls[1] += self.mask is not None and other.mask is not None
        return contains(self, other)
    monkeypatch.setattr(Subspace, "contains", counted)
    run_suite(corpus)
    total, masked = calls
    assert total > 100_000
    assert masked >= 0.99 * total, (masked, total)


# the raw builder, the table entry and the mask setter of linalg
_BUILDERS = {"_subspace", "_canonical", "_set_mask"}


def _raw_builds(path: Path) -> list:
    """(function, line) of each reference to ``linalg._subspace``,
    ``_canonical`` or ``_set_mask``, or call of ``object.__new__(Subspace)``
    in the file; the function is the enclosing top-level one, with ``/loop``
    added when the reference sits in a loop."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []

    def visit(node, function, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        in_loop = in_loop or isinstance(node, (ast.For, ast.While))
        raw = (isinstance(node, ast.Name) and node.id in _BUILDERS
               or isinstance(node, ast.Attribute) and node.attr in _BUILDERS
               or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "__new__" and any(
                   isinstance(a, ast.Name) and a.id == "Subspace" for a in node.args))
        if raw:
            out.append((f"{function}/loop" if in_loop else function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function, in_loop)
    visit(tree, None, False)
    return out


def test_no_module_builds_a_subspace_outside_the_tables():
    # identity equality holds only while every subspace is in its table, so
    # only linalg builds subspaces, enters them in a table or sets a mask;
    # its enumeration loop builds raw subspaces and publishes them at once
    found = {path.name: [fn for fn, _ in _raw_builds(path)]
             for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"}
    assert {name: fns for name, fns in found.items() if fns} == {}
    # the guard sees the raw builds linalg does make
    assert {"_subspace", "_canonical", "_store/loop"} <= {
        fn for fn, _ in _raw_builds(SRC / "linalg.py")}


def _basis_reads(source: str) -> list:
    """Lines of the source that read an attribute named ``basis``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "basis"]


def test_no_module_but_linalg_reads_a_subspace_basis():
    # a Subspace holds its rows, and ``basis`` builds a Matrix on each read,
    # so code outside linalg reads ``rows()`` and ``field`` instead
    found = {path.name: _basis_reads(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _basis_reads("s.basis.entries\ns.basis_element(0)") == [1]  # the guard sees one


_STATE = {"_STORES", "_TABLES"}
_WRITES = {"pop", "popitem", "clear", "setdefault", "update", "__setitem__", "__delitem__"}


def _names_state(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in _STATE
            or isinstance(node, ast.Attribute) and node.attr in _STATE
            or isinstance(node, ast.alias) and node.name in _STATE)


def _state_writes(path: Path) -> list:
    """Lines of the file that assign into, delete from, pop from or clear
    ``_STORES`` or ``_TABLES``, or rebind either name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        if any(_names_state(t.value if isinstance(t, ast.Subscript) else t) for t in targets):
            out.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITES and _names_state(node.func.value)):
            out.append(node.lineno)
    return out


def test_only_linalg_writes_the_stores_and_tables():
    found = {path.name: _state_writes(path)
             for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert len(_state_writes(SRC / "linalg.py")) >= 4  # the guard sees linalg's own
    cache = ast.parse((SRC / "_cache.py").read_text(encoding="utf-8"))
    assert not any(map(_names_state, ast.walk(cache)))


@pytest.mark.parametrize("field,n", [(GF2, 5), (GF3, 4), (FieldSpec.prime(5), 3)], ids=str)
def test_the_position_of_a_stored_basis_finds_the_stored_object(field, n):
    lattice_profile.cache_clear()
    subspaces, _, _ = lattice._enumeration(field, n, LatticeBudget(max_q=5))
    store = linalg._STORES[(field.modulus, n)]
    for i, s in enumerate(subspaces):
        rows = s.rows()
        assert store.position(rows, s.pivots) == store.position(rows, None) == i
        assert Subspace(n, Matrix(field, len(rows), n, rows)) is s
        assert Subspace.span(field, n, rows[::-1]) is s
        assert linalg._canonical(field, n, rows) is s
    assert all(t.__class__ is weakref.WeakValueDictionary for t in linalg._TABLES.values())


def test_spans_built_while_another_thread_enumerates_are_the_stored_objects():
    # the span threads enter subspaces of GF(3)^4 in its weak table until
    # the enumeration publishes its store, and look them up there after
    field, n, spanners = GF3, 4, 3
    lattice_profile.cache_clear()
    assert (field.modulus, n) not in linalg._STORES
    rng = random.Random(4)
    vectors = list(itertools.product(range(field.order), repeat=n))
    bases = [[rng.choice(vectors) for _ in range(rng.randrange(1, 4))] for _ in range(200)]
    start, done = threading.Barrier(spanners), threading.Event()
    built = [[] for _ in range(spanners)]

    def span(slot: int):
        start.wait()  # so the first pass of each starts before the enumeration
        for _ in range(200):
            built[slot].extend(Subspace.span(field, n, rows) for rows in bases)
            if done.is_set():
                break

    def enumerate_space():
        while not all(built):
            time.sleep(1e-4)
        lattice._enumeration(field, n, DEFAULT_BUDGET)
        done.set()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=span, args=(i,)) for i in range(spanners)]
        workers.append(threading.Thread(target=enumerate_space))
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers) and done.is_set()
    store = linalg._STORES[(field.modulus, n)]
    for s in itertools.chain.from_iterable(built):
        assert s is store.subspaces[store.position(s.rows(), s.pivots)] and s.mask is not None
    assert all(t.__class__ is weakref.WeakValueDictionary for t in linalg._TABLES.values())
