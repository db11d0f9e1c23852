"""Only ``lattice.py`` and ``surfaces.py`` know which kind of lattice a
surface has: every other module works the same way on every lattice, so
none compares a ``basis`` or names a lattice kind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liaisonkit"
OWNERS = {"lattice.py", "surfaces.py"}
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in OWNERS)

KIND_NAMES = {"BLOWNUP_PLANE", "QUADRIC"}
KIND_STRINGS = {"blownup_plane", "quadric"}


def _is_basis(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "basis"


def _kind_uses(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            map(_is_basis, [node.left, *node.comparators])
        ):
            found.append(f"line {node.lineno}: compares a .basis")
        elif isinstance(node, ast.Name) and node.id in KIND_NAMES:
            found.append(f"line {node.lineno}: uses {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in KIND_NAMES:
            found.append(f"line {node.lineno}: uses .{node.attr}")
        elif isinstance(node, ast.alias) and node.name in KIND_NAMES:
            found.append(f"line {node.lineno}: imports {node.name}")
        elif isinstance(node, ast.Constant) and node.value in KIND_STRINGS:
            found.append(f"line {node.lineno}: spells {node.value!r}")
    return found


def test_the_scan_sees_every_kind_of_use():
    source = (
        "from .lattice import BLOWNUP_PLANE\n"
        "a = s.basis == 'quadric'\n"
        "b = lattice.QUADRIC in kinds\n"
        "c = 'blownup_plane' != x.witness.basis\n"
    )
    assert sorted(_kind_uses(ast.parse(source))) == [
        "line 1: imports BLOWNUP_PLANE",
        "line 2: compares a .basis",
        "line 2: spells 'quadric'",
        "line 3: uses .QUADRIC",
        "line 4: compares a .basis",
        "line 4: spells 'blownup_plane'",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_outside_lattice_and_surfaces_knows_the_lattice_kind(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _kind_uses(tree) == []
