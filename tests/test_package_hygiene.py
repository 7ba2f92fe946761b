"""Guards on the package surface: every exported name resolves, and no
function imports (all imports sit at module level, where start-up pays
for them once and a reader finds them)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import taucalc

_SRC = Path(taucalc.__file__).parent
# __main__ runs the CLI when imported
_MODULES = sorted(
    f"taucalc.{m.name}" for m in pkgutil.iter_modules([str(_SRC)]) if m.name != "__main__"
)


@pytest.mark.parametrize("name", ["taucalc"] + _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == [], (name, missing)


def test_no_function_local_imports():
    found = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
