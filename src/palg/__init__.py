"""Exact structure theory for finite-dimensional Poisson algebras.

The package computes, over Q and small prime fields, the descending series,
radicals, Engel subalgebras, Frattini subalgebras and ideals, socles and
splittings of dialgebras carrying a commutative associative dot and a
compatible Lie bracket, and mechanically checks a registry of structure
statements against algebra corpora.

The namespace is lazy (PEP 562): each name below is read from its
submodule on every access and never stored here, so ``import palg.corpus``
loads neither the lattice nor the check layers.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the names the package exports from it.
_EXPORTS = {
    "fields": ("FieldSpec", "FieldError", "Scalar"),
    "linalg": (
        "Matrix", "Subspace", "char_poly", "fitting_null", "kernel", "image",
        "roots_in_field", "rref", "subspace_intersect", "subspace_sum",
    ),
    "algebra": (
        "AxiomViolation", "BudgetExceededError", "DialgebraTensors", "PoissonAlgebra",
        "annihilator", "centre", "closure_ideal", "closure_subalgebra", "direct_sum",
        "idealiser", "is_homomorphism", "is_ideal", "is_subalgebra", "is_subideal",
        "kernel_of", "lie_idealiser", "quotient", "subalgebra_algebra",
        "subspace_product_bracket", "subspace_product_dot", "tensors_from_maps", "validate",
    ),
    "series": (
        "SeriesReport", "SeriesConsistencyError", "assoc_series", "derived_series",
        "is_assoc_nilpotent", "is_assoc_solvable", "is_lie_nilpotent", "is_lie_solvable",
        "is_nilpotent", "is_solvable", "is_supersolvable", "lie_series",
        "lower_central_series", "nilpotency_class", "derived_length",
    ),
    "engel": (
        "EngelPair", "SplitPair", "check_pa_bracket_identity", "check_qa_derivation_power",
        "engel", "s_k_split",
    ),
    "lattice": (
        "LatticeBudget", "StructureReport", "chief_factors", "classify_max_ideal_property",
        "enumerate_subspaces", "frattini", "frattini_assoc", "frattini_lie", "idempotents",
        "maximal_subalgebras", "minimal_ideals", "nilradical", "oracle_nilradical",
        "oracle_radical", "peirce", "radical", "socle", "splits_over", "structure_report",
        "verify_nilradical", "verify_radical", "zero_socle",
    ),
    "theorems": ("REGISTRY", "REGISTRY_IDS", "TheoremResult", "check_one", "run_suite"),
    "corpus": (
        "curated_corpus", "enumerate_poisson_structures", "parse_document", "serialize_document",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)

# Loaded eagerly: the first import of the submodule palg.engel would otherwise
# bind the module, not the function, to palg.engel.
from .engel import engel  # noqa: E402


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
