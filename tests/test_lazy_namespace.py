"""The package namespace is lazy (PEP 562): importing a submodule loads only
what that submodule imports, and every exported name still resolves to the
object its defining module holds.  Each case runs in a fresh interpreter,
because the modules one test loads stay loaded for the next."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str):
    """Run code in a fresh interpreter with palg on the path; return the
    JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _palg_modules_after(statement: str) -> set:
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'palg')))")
    return set(_run(code))


# engel is loaded eagerly so that palg.engel stays the function; it needs
# nothing that corpus does not load anyway
CORE = {"palg", "palg.fields", "palg.linalg", "palg._cache", "palg.algebra", "palg.engel"}


def test_importing_the_package_loads_only_the_core():
    assert _palg_modules_after("import palg") == CORE


def test_importing_the_corpus_loads_neither_the_lattice_nor_the_checks():
    assert _palg_modules_after("import palg.corpus") == CORE | {"palg.corpus"}


def test_importing_the_cli_does_not_load_openssl():
    # nor does writing a report, where the interpreter has _sha256 or _sha2 (below)
    code = "import json, sys, palg.cli; print(json.dumps('hashlib' in sys.modules))"
    assert _run(code) is False


# CPython's builtin sha256 module: _sha256, renamed _sha2 in CPython 3.12
BUILTIN_SHA256 = pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")),
    reason="neither _sha256 nor _sha2 exists; hashlib is used")

# an interpreter laid out as CPython 3.12's: no _sha256, the same sha256 in _sha2
SHA2_ONLY = """
import sys, types
try:
    from _sha256 import sha256
except ImportError:
    from _sha2 import sha256
sys.modules["_sha256"] = None
sys.modules["_sha2"] = types.SimpleNamespace(sha256=sha256)
"""


def _run_command(tmp_path, command, prelude=""):
    """Run palg check or analyze on one document in a fresh interpreter;
    return its exit code and whether OpenSSL got loaded."""
    code = prelude + f"""
import json, sys
from palg.corpus import heisenberg_zero_dot, serialize_document, serialize_manifest
from palg.fields import FieldSpec
from palg.cli import main
doc = {str(tmp_path / "heis.palg")!r}
open(doc, "w").write(serialize_document(heisenberg_zero_dot(FieldSpec.prime(2))))
open({str(tmp_path / "manifest.json")!r}, "w").write(serialize_manifest(["heis.palg"]))
target = {str(tmp_path / "manifest.json")!r} if {command!r} == "check" else doc
code = main([{command!r}, target, "--format", "json", "--out", {str(tmp_path / "report")!r}])
print(json.dumps({{"code": code, "openssl": "_hashlib" in sys.modules}}))
"""
    return _run(code)


@BUILTIN_SHA256
@pytest.mark.parametrize("command", ["check", "analyze"])
def test_a_whole_command_runs_without_openssl(tmp_path, command):
    # the input hashes come from the builtin sha256 module, not from hashlib
    assert _run_command(tmp_path, command) == {"code": 0, "openssl": False}
    assert json.loads((tmp_path / "report").read_text())["inputs"][0]["sha256"]


@BUILTIN_SHA256
@pytest.mark.parametrize("command", ["check", "analyze"])
def test_the_builtin_sha256_under_its_new_name_keeps_openssl_out(tmp_path, command):
    assert _run_command(tmp_path, command, prelude=SHA2_ONLY) == {"code": 0, "openssl": False}
    inputs = json.loads((tmp_path / "report").read_text())["inputs"]
    assert inputs and all(entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes())
                          .hexdigest() for entry in inputs)


# the standard library's class generator and what it imports: together
# about 15 ms of every command's start-up, for nothing a command runs
CLASS_GENERATOR = ["ast", "dataclasses", "inspect"]


@pytest.mark.parametrize("statement", ["import palg.corpus", "import palg.cli"])
def test_importing_palg_loads_no_class_generator(statement):
    code = (f"import json, sys\n{statement}\n"
            f"print(json.dumps([m for m in {CLASS_GENERATOR!r} if m in sys.modules]))")
    assert _run(code) == []


def test_a_whole_analyze_run_loads_no_class_generator(tmp_path):
    code = f"""
import json, sys
from palg.corpus import heisenberg_zero_dot, serialize_document
from palg.fields import FieldSpec
from palg.cli import main
doc = {str(tmp_path / "heis.palg")!r}
open(doc, "w").write(serialize_document(heisenberg_zero_dot(FieldSpec.prime(2))))
code = main(["analyze", doc, "--format", "json", "--out", {str(tmp_path / "report")!r}])
print(json.dumps({{"code": code,
                  "loaded": [m for m in {CLASS_GENERATOR!r} if m in sys.modules]}}))
"""
    assert _run(code) == {"code": 0, "loaded": []}


def test_every_export_is_the_object_of_its_module():
    code = """
import importlib, json, palg
print(json.dumps([name for name in palg.__all__
                  if getattr(palg, name) is not getattr(
                      importlib.import_module(f"palg.{palg._SOURCE[name]}"), name)]))
"""
    assert _run(code) == []


def test_a_patched_and_restored_function_reads_through_the_package_as_its_module_holds_it(
        monkeypatch):
    # the package stores no name it resolves, so a wrapper installed on the
    # module (as a tracer does) and taken off again leaves nothing behind
    import palg
    from palg import theorems
    original = theorems.run_suite
    monkeypatch.setattr(theorems, "run_suite", lambda *args, **kwargs: None)
    assert palg.run_suite is theorems.run_suite is not original
    monkeypatch.undo()
    assert palg.run_suite is original


@pytest.mark.parametrize("first", ["palg", "palg.cli", "palg.theorems", "palg.engel"])
def test_palg_engel_is_the_function_in_every_import_order(first):
    code = f"""
import json, {first}, palg, palg.cli, palg.engel
from palg.engel import engel
print(json.dumps(palg.engel is engel))
"""
    assert _run(code) is True


def test_dir_lists_the_exports_and_an_unknown_name_raises():
    # a submodule is an attribute of the package, imported on first access
    code = """
import json, sys, palg
try:
    palg.no_such_name
    raised = False
except AttributeError:
    raised = True
print(json.dumps({"missing": sorted(set(palg.__all__) - set(dir(palg))), "raised": raised,
                  "submodule": palg.theorems is sys.modules["palg.theorems"]}))
"""
    assert _run(code) == {"missing": [], "raised": True, "submodule": True}


def test_one_budget_error_class():
    code = """
import json, palg, palg.algebra, palg.cli, palg.corpus, palg.lattice
print(json.dumps(palg.BudgetExceededError is palg.lattice.BudgetExceededError
                 is palg.cli.BudgetExceededError is palg.corpus.BudgetExceededError
                 is palg.algebra.BudgetExceededError))
"""
    assert _run(code) is True
