import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "photonpressure"

# A public name of the package must be loaded by the package itself (its
# commands and the functions they call) or by the benchmark harness. A test
# is not a caller: a formula only tests use lives in tests/oracles.py.


def loaded_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    modules = sorted(PACKAGE.glob("*.py"))
    used = loaded_names([*modules, *sorted((ROOT / "perfbench").glob("*.py"))])
    # top-level functions and classes, and the methods and properties of each class
    uncalled = [f"{path.stem}.{node.name}" for path in modules
                for top in ast.parse(path.read_text(encoding="utf-8")).body
                for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in used]
    assert uncalled == []
