"""No hypercal module reaches into another one's private names."""

import ast
from pathlib import Path

import hypercal

SOURCES = sorted(Path(hypercal.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "hypercal"


def private_reaches(source: str) -> list:
    """``(line, name)`` of each ``_name`` a module imports from another
    hypercal module or reads as ``<module>._name`` off one."""
    tree = ast.parse(source)
    modules = set()   # local names bound to hypercal modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            for alias in node.names:
                if node.module in (None, "hypercal"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hypercal":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    reaches = [f"{path.name}:{line}: {name}" for path in SOURCES
               for line, name in private_reaches(path.read_text())]
    assert reaches == []


def test_guard_sees_each_form_of_reach():
    source = ("from . import geometry, simulate as sim\n"
              "from .registration import _vertex, shift\n"
              "from hypercal.cube import _listed\n"
              "import hypercal.kernels as kernels\n"
              "a = sim._TABLE\n"
              "b = geometry._ortho(1)\n"
              "c = kernels._plan\n"
              "d = sim.__name__\n"
              "e = sim.PUBLIC\n"
              "f = self._own\n")
    assert private_reaches(source) == [
        (2, "_vertex"), (3, "_listed"), (5, "sim._TABLE"),
        (6, "geometry._ortho"), (7, "kernels._plan")]
