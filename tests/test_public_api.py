"""The README's list of public names matches the package's imports."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_names() -> dict:
    """Module -> names of the README's "Public functions and classes" bullets.

    Parenthesized parts (methods, signatures, remarks) are dropped, so only
    the top-level backticked names of each bullet count.
    """
    text = (ROOT / "README.md").read_text()
    start = text.index("Public functions and classes")
    section = text[start:text.index("\n## ", start)]
    out = {}
    for bullet in re.split(r"\n- ", section)[1:]:
        module, _, body = bullet.partition(":")
        prev = None
        while prev != body:
            prev, body = body, re.sub(r"\([^()]*\)", "", body)
        out[module.strip()] = set(re.findall(r"`(\w+)`", body))
    return out


def package_imports() -> dict:
    """Module -> names that ``thingap/__init__.py`` imports from it."""
    tree = ast.parse((ROOT / "src" / "thingap" / "__init__.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_readme_lists_exactly_the_package_imports():
    listed, imported = readme_names(), package_imports()
    assert sorted(listed) == sorted(imported)
    for module in imported:
        assert listed[module] - imported[module] == set(), f"{module}: listed, not imported"
        assert imported[module] - listed[module] == set(), f"{module}: imported, not listed"
