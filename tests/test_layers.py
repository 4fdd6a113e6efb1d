"""The package's modules import one another without a cycle, so each layer can be read on its own."""

import ast
from pathlib import Path

import abelfft

PACKAGE = Path(abelfft.__file__).parent


def relative_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports, at any depth, by name; ``from . import x`` is
    the submodule x when x.py exists and the package's ``__init__`` otherwise."""
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                targets.add(node.module.split(".")[0])
            else:
                targets.update(a.name if (PACKAGE / f"{a.name}.py").is_file() else "__init__" for a in node.names)
    return targets


def test_package_imports_form_no_cycle():
    graph = {path.stem: relative_imports(path) for path in PACKAGE.glob("*.py")}
    finished = set()

    def visit(module, trail):
        assert module not in trail, f"import cycle: {' -> '.join(trail[trail.index(module):] + [module])}"
        if module not in finished:
            for target in sorted(graph[module]):
                visit(target, trail + [module])
            finished.add(module)

    for module in sorted(graph):
        visit(module, [])
