"""Static checks of the package source."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinmodels"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nimport os\nprint(math.pi)\n") == ["os (line 2)"]
    assert _unused_imports("from a.b import c as d\nd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private (``_``-prefixed, not dunder) module-level functions and
    classes of ``sources`` (module name -> source) that no code outside
    their own definition names, as a name, an attribute or an import: the
    package-wide count of the name equals the count inside the definition."""
    total, defs = Counter(), []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            names = Counter(getattr(n, "id", None) or getattr(n, "attr", None)
                            or getattr(n, "name", None) for n in ast.walk(top)
                            if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))
            total.update(names)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and top.name.startswith("_") and not top.name.startswith("__")):
                defs.append((f"{module}.{top.name}", top.name, names[top.name]))
    return [label for label, name, own in defs if total[name] == own]


def test_private_reference_check_sees_an_unused_helper():
    sources = {"a": "def _used():\n    pass\n\ndef _self_only():\n    return _self_only()\n",
               "b": "from a import _used\nclass _Lone:\n    pass\n"}
    assert _unreferenced_privates(sources) == ["a._self_only", "b._Lone"]


def test_every_private_helper_is_referenced_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_privates(sources) == []
