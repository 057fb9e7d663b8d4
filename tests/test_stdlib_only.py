"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "palg"


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
