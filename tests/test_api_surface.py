"""Every public name of ``dygauss`` is used by the program itself.

A name listed in a module's ``__all__`` must be referenced somewhere in
``src/``, ``scripts/`` or ``perfbench/``: as a name, an attribute or an
import. Its own ``def``/``class`` statement and its ``__all__`` entry are
not references, so API that only tests call shows up here; such code
belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "dygauss").glob("*.py"))
PROGRAM_FILES = [path for part in ("src", "scripts", "perfbench") for path in sorted((ROOT / part).rglob("*.py"))]


def exported(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def referenced() -> set[str]:
    names: set[str] = set()
    for path in PROGRAM_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_exported_name_is_used_by_the_program(module):
    unused = sorted(set(exported(module)) - referenced())
    assert not unused, f"{module.name} exports names that only tests use: {unused}"
