"""Guards on the package surface: every exported name resolves, no
function imports (all imports sit at module level, where start-up pays
for them once and a reader finds them), start-up loads no module that
no verb needs, and the package stays within its line budget."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: milliseconds of
    # every run's start-up.  Only what the import itself loads counts, so
    # site cannot fail this.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules)\n"
            "import taucalc.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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


def _names_used(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in annotations (string ones
    included) and in the strings of __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names_used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def test_no_unused_module_imports():
    unused = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private name the module binds at top level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        found += [(name, node.lineno) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return found


def test_no_dead_private_helpers():
    # every private name bound at module level is read somewhere in the
    # package, as a name or as an attribute (`module._name`, `obj._name`)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [(f"{name}:{line}", n) for name, tree in trees.items() for n, line in _private_definitions(tree)]
    assert len(defined) > 100
    assert [where for where, n in defined if n not in read] == []


def test_package_stays_within_line_budget():
    # the budget of the package's source, every module together
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in _SRC.glob("*.py"))
    assert lines <= 3000, lines
