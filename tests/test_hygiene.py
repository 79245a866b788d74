"""Source hygiene: every name a module imports is used by that module, every
public name has a caller in the package or is documented, and importing the
package stays light."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "collinear"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """(bound name, line) for every import, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


def _referenced(tree: ast.Module):
    """Every name the module loads, including names inside string
    annotations such as ``-> "GoodCurve"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"



@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so a runtime check must raise
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert as a check on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_recursion_limit_untouched(path):
    # no module changes interpreter-wide state such as the recursion limit
    assert "setrecursionlimit" not in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_garbage_collector_untouched(path):
    # no module switches the cyclic garbage collector off, freezes it, tunes
    # it or runs it: a speed-up must come from allocating less
    tree = ast.parse(path.read_text(encoding="utf-8"))
    banned = {"disable", "freeze", "set_threshold", "collect"}
    calls = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in banned
                 and isinstance(node.value, ast.Name) and node.value.id == "gc")
             or (isinstance(node, ast.ImportFrom) and node.module == "gc"
                 and any(a.name in banned for a in node.names))]
    assert not calls, f"{path.name} drives the garbage collector on lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_plane_graph_imports_deque(path):
    # every breadth-first search goes through plane_graph.reach
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and node.module == "collections"
                and any(a.name == "deque" for a in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == "deque")]
    assert path.name == "plane_graph.py" or not uses, (
        f"{path.name} uses collections.deque on lines {uses}; call reach instead")


def test_only_curves_checks_curves():
    # whether a curve is well formed, good and proper is decided in curves
    # alone: other modules call validate_curve or augment_with_curve
    checks = {"check_well_formed", "edge_tallies", "_embed"}
    uses = []
    for path in MODULES:
        if path.name == "curves.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            uses += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & checks)]
    assert not uses, f"curve checks outside curves.py: {', '.join(uses)}"


def test_no_floats_outside_the_svg_export():
    # exact arithmetic decides every coordinate, so no float shortcut can
    # certify a drawing: no float() call and no float literal in the
    # package, except in the SVG export, which renders a finished drawing
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        svg = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and path.name == "realize.py" and node.name == "drawing_to_svg"]
        allowed = {id(node) for root in svg for node in ast.walk(root)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in allowed
                  and ((isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "float")
                       or (isinstance(node, ast.Constant) and isinstance(node.value, float)))]
    assert not found, f"floats outside realize.drawing_to_svg: {', '.join(found)}"


def test_import_loads_no_numpy_or_scipy():
    # no module imports numpy or scipy, not even to straighten a drawing:
    # the Theorem-1 route solves one exact system in integers
    code = ("import sys\n"
            "import collinear.cli, collinear.realize, collinear.applications, "
            "collinear.cubic, collinear.treewidth\n"
            "g = collinear.cubic.generate_triconnected_cubic(1, 12)\n"
            "collinear.realize.curve_to_drawing(g, collinear.cubic.theorem4(g).curve)\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))\n")
    path = [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) for every public module-level
    function and class and every public method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item.name, item


def _loads(tree: ast.AST) -> Counter:
    """How often each name or attribute name is loaded in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def _readme_names():
    """Identifiers in the README's code spans and code blocks."""
    text = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", " ".join(code)))


def test_public_api_is_used_or_documented():
    # a public function, class or method needs a caller in src/ other than
    # its own body, or a mention in the README
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    loads = sum((_loads(t) for t in trees.values()), Counter())
    documented = _readme_names()
    orphans = [f"{module}.{qual}" for module, tree in trees.items()
               for qual, name, node in _definitions(tree)
               if name not in documented and loads[name] == _loads(node)[name]]
    assert not orphans, ("public names neither used in src/ nor named in "
                         f"README.md: {', '.join(sorted(orphans))}")
