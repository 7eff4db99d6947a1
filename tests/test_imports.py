"""The import boundary of the two kernels: the double description kernel
(``dd``) and the pulling fan (``fan``) stand on ``linalg`` and ``errors``
alone, so a checker of their output can be held to importing neither."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "godbersen"
CALLERS = {"geometry", "halfspaces", "mixedvol", "sections", "inclusion"}


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
