"""The runtime imports nothing outside the standard library, and no palg
command pays for the ``--jobs`` pool's imports until it runs one."""

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


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {(path.name, module) for path in files for module in _imported_modules(path)
               if module != "palg" and module not in sys.stdlib_module_names}
    assert not foreign


def _tracer_modules() -> set:
    """The palg modules named by the benchmark tracer's TARGETS table, read
    from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return {f"palg.{target.partition(':')[0]}"
            for _, _, targets in ast.literal_eval(table) for target in targets}


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
