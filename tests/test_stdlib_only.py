"""The runtime imports nothing outside the standard library, no palg
command pays for the ``--jobs`` pool's imports until it runs one, and every
top-level function and class in palg earns its place."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "palg"


def _imported_modules(path: Path):
    """The top-level module of every import in the file; relative imports
    are palg's own."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "palg" if node.level else node.module.partition(".")[0]


# The running interpreter's standard library, plus _sha2: CPython 3.12's new
# name for the builtin _sha256 module, which palg.cli imports where
# _sha256 is missing and which older interpreters do not list.
STDLIB = sys.stdlib_module_names | {"_sha2"}


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {(path.name, module) for path in files for module in _imported_modules(path)
               if module != "palg" and module not in STDLIB}
    assert not foreign


def _tracer_targets() -> list:
    """The "module:function" and "module:Class.method" targets of the
    benchmark tracer's TARGETS table, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return [target for _, _, targets in ast.literal_eval(table) for target in targets]


def _tracer_modules() -> set:
    """The palg modules the benchmark tracer wraps functions of."""
    return {f"palg.{target.partition(':')[0]}" for target in _tracer_targets()}


def test_importing_the_cli_loads_every_traced_module_but_not_the_pool():
    # the tracer relies on `import palg.cli` loading every module it wraps
    code = "import json, sys, palg.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    wanted = _tracer_modules()
    assert {"palg.algebra", "palg.corpus", "palg.theorems", "palg.cli"} <= wanted
    assert wanted <= loaded
    assert "concurrent.futures" not in loaded


# Kept although no code in the package uses it, each with its reason.
UNUSED_BY_DESIGN = {
    ("algebra.py", "evaluate_axiom"):
        "the re-check of a reported witness that AxiomViolation's docstring promises",
    ("corpus.py", "xyz_algebra"):
        "the compatibility-violating negative control that the tests load",
    ("corpus.py", "semidirect_sum"):
        "the construction from a derivation action, a test fixture that validates its result",
}


def _used_names(node) -> set:
    """Every name the node reads, as a bare name or as an attribute."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


# The package's exports, by name: the guard below counts each as used.
EXPORTS = set("""
    FieldSpec FieldError Scalar
    Matrix Subspace char_poly fitting_null kernel image roots_in_field rref
    subspace_intersect subspace_sum
    AxiomViolation BudgetExceededError DialgebraTensors PoissonAlgebra annihilator centre
    closure_ideal closure_subalgebra direct_sum idealiser is_homomorphism is_ideal
    is_subalgebra is_subideal kernel_of lie_idealiser quotient subalgebra_algebra
    subspace_product_bracket subspace_product_dot tensors_from_maps validate
    SeriesReport SeriesConsistencyError assoc_series derived_series is_assoc_nilpotent
    is_assoc_solvable is_lie_nilpotent is_lie_solvable is_nilpotent is_solvable
    is_supersolvable lie_series lower_central_series nilpotency_class derived_length
    EngelPair SplitPair check_pa_bracket_identity check_qa_derivation_power engel s_k_split
    LatticeBudget StructureReport chief_factors classify_max_ideal_property
    enumerate_subspaces frattini frattini_assoc frattini_lie idempotents
    maximal_subalgebras minimal_ideals nilradical oracle_nilradical oracle_radical peirce
    radical socle splits_over structure_report verify_nilradical verify_radical zero_socle
    REGISTRY REGISTRY_IDS TheoremResult check_one run_suite
    curated_corpus enumerate_poisson_structures parse_document serialize_document
""".split())


def _exports() -> set:
    """Every name in ``__init__``'s export table, read from its source."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets))
    names = [name for names in ast.literal_eval(table).values() for name in names]
    assert len(names) == len(set(names))
    return set(names)


def test_the_export_table_holds_the_published_names():
    # the guard below counts every export as used, so the table may not grow
    # to excuse a dead helper
    assert len(EXPORTS) == 87
    assert _exports() == EXPORTS


def _unused_definitions() -> list:
    """(module, name) of each top-level function or class that no code in
    the package uses outside its own body, that ``__init__`` does not
    export and the benchmark tracer does not wrap, and that is not a
    reference implementation named ``oracle_*``."""
    defined, used = [], {target.partition(":")[2] for target in _tracer_targets()}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":  # its export table names the exports
            used |= _exports()
            continue
        for node in tree.body:
            names = _used_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                names.discard(node.name)  # recursion is not a use
            used |= names
    return [(module, name) for module, name in defined
            if name not in used and not name.startswith("oracle_")]


def test_every_helper_is_used_exported_or_an_oracle():
    # a helper listed above that gains a caller, or goes, leaves the table too
    assert set(_unused_definitions()) == set(UNUSED_BY_DESIGN)


# One private function per products choice, not one per product: the words
# that name a product, and the word each is folded to.
PRODUCT_WORDS = {"bracket": "dot", "lie": "assoc"}


def _twins(public: bool) -> list:
    """Groups of two or more top-level functions of the package, all public
    (exported by ``__init__`` or wrapped by the benchmark tracer) or all
    not, whose names differ only by dot/bracket or assoc/lie; each function
    as (module file name, its AST node)."""
    exported = _exports() | {target.partition(":")[2] for target in _tracer_targets()}
    groups: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and (node.name in exported) == public:
                folded = "_".join(PRODUCT_WORDS.get(w, w) for w in node.name.split("_"))
                groups.setdefault(folded, []).append((path.name, node))
    return [group for group in groups.values() if len(group) > 1]


def test_no_private_function_has_a_twin_for_the_other_product():
    # a private routine takes the product it reads as an argument
    # (algebra.BOTH, DOT, BRACKET, or an index into algebra._products)
    assert [[f"{m}:{node.name}" for m, node in group] for group in _twins(False)] == []


def _is_one_return(node: ast.FunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    return len(body) == 1 and isinstance(body[0], ast.Return)


def test_public_twins_are_one_return_each():
    # an exported or traced name keeps its signature, so its twin stays, but
    # only as one return that hands the products to the shared routine
    groups = _twins(True)
    assert len(groups) == 10
    assert [f"{m}:{node.name}" for group in groups for m, node in group
            if not _is_one_return(node)] == []
