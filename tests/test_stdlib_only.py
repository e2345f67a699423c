"""The library has no runtime dependencies: every absolute import in
src/deplin names a standard-library module or deplin itself.  CI installs
test-only packages, so an accidental runtime import would otherwise pass."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deplin"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"deplin"}
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [f"{path.name}:{line}: {name}"
               for path in files
               for line, name in _absolute_imports(path)
               if name.split(".")[0] not in allowed]
    assert outside == []
