"""The one per-tensor result cache shared by discovery, the series verdicts
and the bilinear data the checks keep asking for.

An entry is keyed on (field, dot tensor, bracket tensor), which is exactly
what every cached result reads; name, basis labels and meta are left out, so
the renamed quotient, subalgebra and summand copies the checks build share
one entry.  Inside the entry each result sits under its own key:

* lattice discovery (``lattice``) stores under ``(name, budget)``, because
  the budget decides whether a computation raises, and a result computed
  under a generous budget must not stop a tighter one from raising;
* whole-algebra series verdicts (``series``) and the ideal closures of
  lines (``lattice._line_ideal_closures``, read by ``minimal_ideals``,
  ``radical`` and ``nilradical`` after each checks its own budget) store
  under a name alone, because they never read a budget;
* the subspace products, closure witnesses and kernels (``algebra``) store
  under ``("dot", u, v)``, ``("bracket", u, v)``, ``("subalgebra_defect",
  u)``, ``("ideal_defect", u)``, ``("annihilator", b)`` and
  ``("lie_idealiser", u)``, the Engel and eigenvalue-part spaces
  (``engel``) under ``("engel_assoc" | "engel_lie" | "s_space", a)``, ``a``
  a projective point.  They read the tensors and their arguments only: no
  budget, no enumeration, no way to raise on one, so no budget in the key;
* the induced structures (``algebra._induced``) store their tensors under
  ``("restrict", u)`` and ``("quotient", ideal)``, as the (dot, bracket)
  pair kept in the child entry's ``tensors`` slot (``canonical_tensors``),
  so equal ones are one object and a key costs a dict slot, not a copy;
* the table of basis products (``algebra._sparse_products``) is the
  tensors in another form, not a result, so ``algebra._products`` keeps it
  in the entry's ``products`` slot; ``validate`` builds the same table
  without an entry, so the axiom scan leaves the cache empty.

One entry per tensor, not one per (tensor, budget), keeps the series
verdicts from competing with the lattice profiles for the ``maxsize`` slots.
Nothing is stored when a computation raises, so a budget overrun or a
``SeriesConsistencyError`` from a negative control raises again next time.
Subspace results need no sharing here: ``linalg`` keeps one object per
subspace, so equal results are one object already, and a subspace in a key
hashes and compares by identity.  The subspace enumeration every tensor of
one (field, n) reads is not kept here but in ``linalg``, in the store of
that F^n.  ``lattice.lattice_profile.cache_info()`` reports on the entries;
``cache_clear()`` empties them and drops the stores, so ``linalg`` can free
the enumerated subspaces nothing else holds.

Finding an entry hashes both tensors, which over Q means a Python-level
``Fraction.__hash__`` per entry.  So the first lookup stashes a weak
reference to the entry on the algebra object, and later lookups through the
same object follow it without hashing anything.  The reference is weak, so
the ``lru_cache`` alone still decides how long an entry lives: once it is
evicted or ``cache_clear()`` runs, the reference dies and the next lookup
goes through the ``lru_cache`` again and counts as a miss there.  Copies made
by ``with_name``, ``with_meta`` and the like (renamed quotients, summands)
start without a stash and find the shared entry by its key.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from .linalg import _forget_enumerations

_MISSING = object()
_STASH = "_cache_entry"  # the algebra attribute holding the weak reference


class _Entry(dict):
    """The results cached for one tensor pair; a dict that can be referred
    to weakly, with the tensors' table of basis products beside its keys."""

    __slots__ = ("__weakref__", "products", "tensors")


@lru_cache(maxsize=256)
def _structure(field, dot_tensor: tuple, bracket_tensor: tuple) -> _Entry:
    """The results cached for one (field, dot tensor, bracket tensor),
    filled in lazily by key."""
    return _Entry()


def _entry(alg) -> _Entry:
    """The algebra's entry, through its stashed weak reference while that
    is alive, else through the ``lru_cache``."""
    ref = vars(alg).get(_STASH)
    entry = None if ref is None else ref()
    if entry is None:
        entry = _structure(alg.field, alg.dot_tensor, alg.bracket_tensor)
        object.__setattr__(alg, _STASH, weakref.ref(entry))
    return entry


def memo(alg, key, compute):
    """The cached result ``key`` for the algebra's tensors, computing it on
    first use; nothing is stored when ``compute`` raises."""
    ref = vars(alg).get(_STASH)  # _entry's first step, inline: it is the common one
    entry = None if ref is None else ref()
    if entry is None:
        entry = _entry(alg)
    result = entry.get(key, _MISSING)
    if result is _MISSING:
        result = entry[key] = compute()
    return result


def canonical_tensors(field, dot_tensor: tuple, bracket_tensor: tuple) -> tuple:
    """The (dot, bracket) pair kept in the entry of these tensors: the pair
    itself on first use, the equal pair kept earlier after that."""
    entry = _structure(field, dot_tensor, bracket_tensor)
    if not hasattr(entry, "tensors"):
        entry.tensors = (dot_tensor, bracket_tensor)
    return entry.tensors


def cache_clear() -> None:
    """Empty the per-tensor entries and drop the (field, n) stores
    (``linalg._forget_enumerations``)."""
    _structure.cache_clear()
    _forget_enumerations()


cache_info = _structure.cache_info
