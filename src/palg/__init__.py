"""Exact structure theory for finite-dimensional Poisson algebras.

The package computes, over Q and small prime fields, the descending series,
radicals, Engel subalgebras, Frattini subalgebras and ideals, socles and
splittings of dialgebras carrying a commutative associative dot and a
compatible Lie bracket, and mechanically checks a registry of structure
statements against algebra corpora.
"""

__version__ = "0.1.0"

from .fields import FieldSpec, FieldError, Scalar
from .linalg import (
    Matrix,
    Subspace,
    char_poly,
    fitting_null,
    kernel,
    image,
    roots_in_field,
    rref,
    subspace_intersect,
    subspace_sum,
)
from .algebra import (
    AxiomViolation,
    DialgebraTensors,
    PoissonAlgebra,
    annihilator,
    centre,
    closure_ideal,
    closure_subalgebra,
    direct_sum,
    idealiser,
    is_homomorphism,
    is_ideal,
    is_subalgebra,
    is_subideal,
    kernel_of,
    lie_idealiser,
    quotient,
    subalgebra_algebra,
    subspace_product_bracket,
    subspace_product_dot,
    tensors_from_maps,
    validate,
)
from .series import (
    SeriesReport,
    SeriesConsistencyError,
    assoc_series,
    derived_series,
    is_assoc_nilpotent,
    is_assoc_solvable,
    is_lie_nilpotent,
    is_lie_solvable,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    lie_series,
    lower_central_series,
    nilpotency_class,
    derived_length,
)
from .engel import (
    EngelPair,
    SplitPair,
    check_pa_bracket_identity,
    check_qa_derivation_power,
    engel,
    s_k_split,
)
from .lattice import (
    BudgetExceededError,
    LatticeBudget,
    StructureReport,
    chief_factors,
    classify_max_ideal_property,
    enumerate_subspaces,
    frattini,
    frattini_assoc,
    frattini_lie,
    idempotents,
    maximal_subalgebras,
    minimal_ideals,
    nilradical,
    oracle_nilradical,
    oracle_radical,
    peirce,
    radical,
    socle,
    splits_over,
    structure_report,
    verify_nilradical,
    verify_radical,
    zero_socle,
)
from .theorems import REGISTRY, REGISTRY_IDS, TheoremResult, check_one, run_suite
from .corpus import (
    build,
    curated_corpus,
    enumerate_poisson_structures,
    parse_document,
    serialize_document,
)
