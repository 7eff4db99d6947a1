"""The import boundary of the two kernels: the double description kernel
(``dd``) and the pulling fan (``fan``) stand on ``linalg`` and ``errors``
alone, so a checker of their output can be held to importing neither.  The
size policy is the double description kernel's alone: no other module
reads the cap or the facet bound.  A body has one construction route: the
hull kernel's assembly (``geometry._from_lattice``), and ``_homothety``,
which relabels its source's facets and fan; no other code calls the
``Polytope`` constructor, and no module keeps an adjugate of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "godbersen"
CALLERS = {"geometry", "halfspaces", "mixedvol", "sections", "inclusion"}
SIZE_POLICY = {"check_subset_cap", "_max_facets"}


def package_imports(tree) -> set[str]:
    """The ``godbersen`` modules that a module's source imports, anywhere in
    it: ``from .x import y`` and ``from godbersen.x import y`` give x,
    ``from . import x`` and ``import godbersen.x`` give x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "godbersen":
                    continue
                module = module.removeprefix("godbersen").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("godbersen."))
    return found


def imports_of(name: str) -> set[str]:
    return package_imports(ast.parse((SRC / f"{name}.py").read_text()))


def test_dd_stands_on_linalg_and_errors():
    assert imports_of("dd") == {"linalg", "errors"}


def test_fan_stands_on_dd_linalg_and_errors():
    assert imports_of("fan") == {"dd", "linalg", "errors"}


def test_kernels_import_no_caller():
    # the modules that build bodies, systems, profiles and sections on the
    # kernels; a kernel that reached back into one would close a cycle
    for kernel in ("dd", "fan"):
        assert not imports_of(kernel) & CALLERS, kernel
    assert {"dd", "fan"} <= imports_of("geometry")


def test_import_guard_sees_each_kind():
    tree = ast.parse("import os\n"
                     "from math import gcd\n"
                     "from .linalg import primitive\n"
                     "from . import sections\n"
                     "from godbersen.geometry import Polytope\n"
                     "import godbersen.mixedvol\n"
                     "def f():\n"
                     "    from .inclusion import tightness_profile\n")
    assert package_imports(tree) == {"linalg", "sections", "geometry", "mixedvol",
                                     "inclusion"}


def size_policy_uses(tree) -> set[str]:
    """The names of ``SIZE_POLICY`` that a module's source imports, calls or
    otherwise reads, by name or as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & SIZE_POLICY


def test_only_dd_holds_the_size_policy():
    # the guard sits at the kernel's entry, so every run is checked and no
    # caller keeps a check of its own
    for path in SRC.glob("*.py"):
        if path.stem != "dd":
            assert not size_policy_uses(ast.parse(path.read_text())), path.stem
    assert size_policy_uses(ast.parse((SRC / "dd.py").read_text())) == SIZE_POLICY


def test_size_policy_guard_sees_each_kind():
    tree = ast.parse("from .dd import _max_facets\n"
                     "def f(rows):\n"
                     "    dd.check_subset_cap(1, 'x')\n")
    assert size_policy_uses(tree) == SIZE_POLICY
    assert not size_policy_uses(ast.parse("from .dd import _cone_rays\n"))


def constructor_calls(tree) -> list[str]:
    """The enclosing function (``<module>`` at the top level) of every call
    of the ``Polytope`` constructor, by name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "Polytope"
                        or isinstance(func, ast.Attribute) and func.attr == "Polytope"):
                    found.append(scope)
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     else scope)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def defined_or_imported(tree) -> set[str]:
    """The names a module's source defines as functions or classes, or
    imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.split(".")[-1] for a in node.names)
    return found


def test_bodies_have_one_construction_route():
    calls = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert "adjugate" not in defined_or_imported(tree), path.stem
        calls[path.stem] = sorted(set(constructor_calls(tree)))
    assert {name: scopes for name, scopes in calls.items() if scopes} == \
        {"geometry": ["_from_lattice", "_homothety"]}


def test_construction_guard_sees_each_kind():
    tree = ast.parse("from .geometry import Polytope\n"
                     "from .linalg import adjugate\n"
                     "P = Polytope(2, [], 1, (), (), (), (), 1)\n"
                     "def transform(K):\n"
                     "    def image():\n"
                     "        return geometry.Polytope(K.dim)\n"
                     "    return image()\n")
    assert constructor_calls(tree) == ["<module>", "image"]
    assert {"Polytope", "adjugate", "transform"} <= defined_or_imported(tree)
    assert not constructor_calls(ast.parse("Polytope\nx = polytope(1)\n"))
