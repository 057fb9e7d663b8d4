"""Per-layer tracing of palg from outside the package.

`Tracer.install()` replaces named palg functions with wrappers and
`Tracer.uninstall()` puts the originals back.  A module-level function is
replaced at *every* binding in every loaded ``palg`` module, because
``from .linalg import rref`` copies the name into ``algebra``, ``lattice``
and the rest, and a call through any copy must be seen.  Methods are
replaced on their class.

Three kinds of wrapper:

* span: records the call's duration and its self time (duration minus the
  time of the spans it caused), per thread, in thread CPU time.  Thread CPU
  time keeps the two ``--jobs 2`` threads from billing each other's share of
  the interpreter lock to every layer.  Raw spans (id, parent id, name,
  start, end) are kept in memory per thread and returned by ``spans()``,
  except for the HOT names, which run millions of times per workload and
  are only aggregated.
* count: counts calls and adds nothing else; scalar field arithmetic is
  counted this way (enumeration makes tens of millions of such calls).
* items: counts the items a generator yields.

Counters are ``itertools.count`` objects, whose ``next`` is a single C call,
so two threads cannot lose an increment.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

# (metric prefix, kind, targets).  A target is "module:function" or
# "module:Class.method".  A layer's self time covers the unwrapped helpers
# its functions call, e.g. the subspace products inside a series step.
TARGETS = (
    ("fields.ops", "count", ("fields:FieldSpec.add", "fields:FieldSpec.sub",
                             "fields:FieldSpec.mul", "fields:FieldSpec.neg",
                             "fields:FieldSpec.inv", "fields:FieldSpec.div")),
    ("fields.coerce", "count", ("fields:FieldSpec.coerce",)),
    ("linalg.reduce_vector", "span", ("linalg:Subspace.reduce_vector",)),
    ("linalg.contains", "count", ("linalg:Subspace.contains",)),
    ("linalg.rref", "span", ("linalg:rref",)),
    ("linalg.subspace_check", "span", ("linalg:Subspace.__post_init__",)),
    ("linalg.intersect", "span", ("linalg:subspace_intersect",)),
    ("linalg.char_poly", "span", ("linalg:char_poly",)),
    ("algebra.mul", "span", ("algebra:PoissonAlgebra._mul",)),
    ("algebra.validate", "span", ("algebra:validate",)),
    ("algebra.tensors_from_maps", "span", ("algebra:tensors_from_maps",)),
    # The three closure loops; _ideal_closure_within is private but is the
    # one is_subideal runs.
    ("algebra.closure", "span", ("algebra:closure_subalgebra", "algebra:closure_ideal",
                                 "algebra:_ideal_closure_within")),
    ("algebra.flag_tests", "count", ("algebra:is_subalgebra", "algebra:is_assoc_subalgebra",
                                     "algebra:is_lie_subalgebra", "algebra:is_ideal")),
    ("series", "span", ("series:derived_series", "series:lower_central_series",
                        "series:assoc_derived_series", "series:assoc_lower_series",
                        "series:lie_derived_series", "series:lie_lower_series",
                        "series:is_supersolvable")),
    ("engel", "span", ("engel:engel_assoc_space", "engel:engel_lie_space", "engel:engel",
                       "engel:s_space", "engel:s_k_split", "engel:check_pa_bracket_identity",
                       "engel:check_qa_derivation_power")),
    ("lattice.subspaces_enumerated", "items", ("lattice:enumerate_subspaces",)),
    ("lattice.profile", "span", ("lattice:lattice_profile",)),
    ("lattice.maximal", "span", ("lattice:maximal_subalgebras",
                                 "lattice:maximal_assoc_subalgebras",
                                 "lattice:maximal_lie_subalgebras")),
    ("lattice.minimal_ideals", "span", ("lattice:minimal_ideals",)),
    ("lattice.frattini", "span", ("lattice:frattini", "lattice:frattini_assoc",
                                  "lattice:frattini_lie", "lattice:ideal_core")),
    ("lattice.radical", "span", ("lattice:radical", "lattice:nilradical")),
    ("lattice.socle", "span", ("lattice:socle", "lattice:zero_socle")),
    ("lattice.report", "span", ("lattice:structure_report", "lattice:splits_over",
                                "lattice:classify_max_ideal_property",
                                "lattice:idempotents", "lattice:chief_factors")),
    ("theorems.run_suite", "span", ("theorems:run_suite",)),
    # One span per check task; private, but it is the call each worker
    # thread makes, so check bodies are billed to theorems on both threads.
    ("theorems.check", "span", ("theorems:_run_guarded",)),
    ("corpus.parse", "span", ("corpus:parse_document", "corpus:parse_manifest")),
    ("corpus.serialize", "span", ("corpus:serialize_document", "corpus:serialize_manifest")),
    ("corpus.enumerate", "span", ("corpus:enumerate_poisson_structures",)),
    ("cli", "span", ("cli:main",)),
)

# Spans that run millions of times: aggregated, never kept raw.
HOT = frozenset({"linalg.reduce_vector", "linalg.rref", "linalg.subspace_check",
                 "algebra.mul", "algebra.validate", "algebra.tensors_from_maps"})

# Discovery functions whose distinct inputs are tracked; a key is
# (function, field, dot, bracket, budget).
DISCOVERY = frozenset({
    "lattice_profile", "maximal_subalgebras", "maximal_assoc_subalgebras",
    "maximal_lie_subalgebras", "frattini", "frattini_assoc", "frattini_lie",
    "minimal_ideals", "socle", "zero_socle", "radical", "nilradical"})

SPAN_NAMES = tuple(name for name, kind, _ in TARGETS if kind == "span")


class _ThreadState:
    __slots__ = ("ident", "name", "stack", "agg", "raw")

    def __init__(self) -> None:
        thread = threading.current_thread()
        self.ident = thread.ident
        self.name = thread.name
        # Each entry: [time of finished child spans, id of nearest kept span].
        self.stack = [[0, 0]]
        self.agg = {name: [0, 0] for name in SPAN_NAMES}  # calls, self ns
        self.raw = []


class Tracer:
    """Wraps palg's public functions while installed; see the module doc."""

    def __init__(self) -> None:
        self._patches: list = []
        self._local = threading.local()
        self._threads: list = []
        self._counters = {name: itertools.count() for name, kind, _ in TARGETS
                          if kind != "span"}
        self._span_ids = itertools.count(1)
        self._keys: dict = {}       # discovery key -> None
        self._key_calls = itertools.count()
        self._profiles: dict = {}   # (field, dot, bracket, budget) -> profile
        self._profile_cache = None

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("palg.cli")  # loads every palg module
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "palg" or name.startswith("palg."))]
        for prefix, kind, targets in TARGETS:
            for target in targets:
                module_name, _, attr = target.partition(":")
                module = sys.modules[f"palg.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, original, self._wrap(prefix, kind, method, original))
                    continue
                original = getattr(module, attr)
                if attr == "lattice_profile":
                    self._profile_cache = original
                wrapper = self._wrap(prefix, kind, attr, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _wrap(self, prefix: str, kind: str, func_name: str, fn):
        if kind == "count":
            counter = self._counters[prefix]

            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)
            return counted
        if kind == "items":
            counter = self._counters[prefix]

            def items(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    next(counter)
                    yield item
            return items
        span = self._span(prefix, fn)
        if func_name == "lattice_profile":
            return self._keyed(func_name, span, profiles=self._profiles)
        if func_name in DISCOVERY:
            return self._keyed(func_name, span)
        return span

    def _span(self, name: str, fn):
        local = self._local
        clock = time.thread_time_ns
        keep = name not in HOT
        span_ids = self._span_ids
        new_state = self._new_state

        def span(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1]
            frame = [0, next(span_ids) if keep else parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                parent[0] += total
                agg = state.agg[name]
                agg[0] += 1
                agg[1] += total - frame[0]
                if keep:
                    state.raw.append((frame[1], parent[1], name, start, end))
        return span

    def _new_state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        self._threads.append(state)
        return state

    def _keyed(self, func_name: str, span, profiles=None):
        keys = self._keys
        calls = self._key_calls
        default_budget = sys.modules["palg.lattice"].DEFAULT_BUDGET

        def keyed(alg, *args, **kwargs):
            budget = args[0] if args else kwargs.get("budget", default_budget)
            data = (alg.field, alg.dot_tensor, alg.bracket_tensor, budget)
            next(calls)
            keys[(func_name,) + data] = None
            result = span(alg, *args, **kwargs)
            if profiles is not None:
                profiles.setdefault(data, result)
            return result
        return keyed

    # -- results -----------------------------------------------------------------

    def counts(self) -> dict:
        """Counter totals keyed by their TARGETS name, and for every span name
        its calls and self seconds, summed over threads."""
        out = {name: _peek(counter) for name, counter in self._counters.items()}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = sum(s.agg[name][0] for s in self._threads)
            out[f"{name}.self_s"] = sum(s.agg[name][1] for s in self._threads) / 1e9
        out["lattice.discovery.calls"] = _peek(self._key_calls)
        out["lattice.discovery.keys"] = len(self._keys)
        out["lattice.profile.keys"] = sum(1 for k in self._keys if k[0] == "lattice_profile")
        out["lattice.subalgebras_found"] = sum(sum(p.subalgebra_flags)
                                               for p in self._profiles.values())
        if self._profile_cache is not None:
            out["lattice.profile.misses"] = self._profile_cache.cache_info().misses
        out["threads"] = len(self._threads)
        return out

    def spans(self) -> list:
        """Raw spans per thread: (id, parent id, name, start ns, end ns), with
        times on that thread's CPU clock.  HOT names are not included."""
        return [{"thread": s.ident, "thread_name": s.name, "spans": list(s.raw)}
                for s in self._threads]


def _peek(counter) -> int:
    """The number of times next() was called on an itertools.count(0),
    read from its repr so that reading does not advance it."""
    return int(repr(counter)[len("count("):-1])
