"""The README's list of public names matches the package's imports and classes."""

import ast
import builtins
import inspect
import re
from pathlib import Path

import thingap

ROOT = Path(__file__).resolve().parents[1]


def readme_bullets() -> list:
    """The README's "Public functions and classes" bullets, one string each."""
    text = (ROOT / "README.md").read_text()
    start = text.index("Public functions and classes")
    section = text[start:text.index("\n## ", start)]
    return re.split(r"\n- ", section)[1:]


def readme_names() -> dict:
    """Module -> names of the README's "Public functions and classes" bullets.

    Parenthesized parts (methods, signatures, remarks) are dropped, so only
    the top-level backticked names of each bullet count.
    """
    out = {}
    for bullet in readme_bullets():
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


def backticked(text: str) -> list:
    """(name, parameters) of each backticked identifier in ``text``; the
    parameters are a list for a written signature such as only(ell), else None."""
    return [(m[1], None if m[2] is None else re.findall(r"\w+", m[2]))
            for m in re.finditer(r"`(\w+)(?:\(([^`()]*)\))?`", text)]


def readme_members() -> tuple:
    """The README's parenthesized members and its top-level names.

    Returns a list of (name, backticked names inside the parentheses that
    follow the backticked name) and the backticked names outside those
    parentheses.
    """
    classes, top = [], []
    for bullet in readme_bullets():
        rest = bullet
        while match := re.search(r"`(\w+)`\s*\(", rest):
            depth, end = 1, match.end()
            while depth:
                depth += {"(": 1, ")": -1}.get(rest[end], 0)
                end += 1
            classes.append((match.group(1), backticked(rest[match.end():end - 1])))
            rest = rest[:match.start()] + rest[end:]
        top += backticked(rest)
    return classes, top


def parameters(fn) -> list:
    return [p for p in inspect.signature(fn).parameters if p not in ("self", "cls")]


def test_readme_members_and_signatures_match_the_code():
    classes, top = readme_members()
    assert {"BoundaryData", "SweepPlan", "GapGeometry"} <= {cls for cls, _ in classes}
    for cls_name, names in classes:
        cls = getattr(thingap, cls_name)
        if not inspect.isclass(cls):        # a remark after a function
            continue
        for name, params in names:
            if hasattr(builtins, name):         # `None`, `ValueError` in the remarks
                continue
            assert hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {}), \
                f"{cls_name}.{name} is listed, but is not an attribute"
            if params is not None:
                got = parameters(getattr(cls, name))
                assert params == got, f"{cls_name}.{name}: README {params}, code {got}"
    signatures = [(name, params) for name, params in top if params is not None]
    assert signatures
    for name, params in signatures:
        assert params == parameters(getattr(thingap, name)), name
