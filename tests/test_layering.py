"""Layering and ownership rules, checked on the package's sources: the core
math modules stay free of the config, report and CLI layers, and each
concept's storage is read by its owner module alone."""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import skewpoisson

CORE = ("poly", "linalg", "parse", "groups", "skew", "invariants", "obstruction")
OUTER = {"config", "report", "cli", "_version"}


def package_sources(exclude=()) -> dict:
    """Module name -> source text of every module of the package, but the
    modules named in ``exclude``."""
    return {path.name[:-3]: path.read_text(encoding="utf-8")
            for path in resources.files("skewpoisson").iterdir()
            if path.name.endswith(".py") and path.name[:-3] not in exclude}


def package_imports(module: str) -> set:
    """Names of the ``skewpoisson`` modules that a module imports."""
    found = set()
    for node in ast.walk(ast.parse(package_sources()[module])):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:  # from .config import ...
                found.add(node.module.split(".")[0])
            elif node.level:  # from . import config
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("skewpoisson."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("skewpoisson."):
                    found.add(alias.name.split(".")[1])
    return found


@pytest.mark.parametrize("module", CORE)
def test_core_module_does_not_import_outer_layers(module):
    assert package_imports(module) & OUTER == set()


def test_import_scan_sees_the_outer_layers():
    assert {"config", "report", "_version"} <= package_imports("cli")


PACKAGE_MODULES = ("skewpoisson",) + tuple(
    f"skewpoisson.{module}" for module in package_sources(exclude={"__init__"}))


@pytest.mark.parametrize("name", sorted(PACKAGE_MODULES))
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def unused_public_functions(sources: dict, exported) -> list:
    """``module.function`` for each module-level function of ``sources``
    (module name -> source text) whose name is public, not in ``exported``
    and never referenced, as a name or an attribute, outside its own body."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if owner is not None and not owner.startswith("_"):
                defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return [f"{module}.{name}" for module, name in defined
            if name not in used and name not in exported]


def test_unused_function_scan_sees_dead_code():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    return dead()\n\ndef _private():\n    pass\n",
        "b": "from .a import used\n\ndef caller():\n    return used()\n",
        "c": "import a\n\ndef exported():\n    return a.used\n",
    }
    assert unused_public_functions(sources, {"exported"}) == ["a.dead", "b.caller"]


def test_every_public_function_is_used():
    assert unused_public_functions(package_sources(), set(skewpoisson.__all__)) == []


def _referenced_names(node) -> Counter:
    """How often each name is referenced under ``node``, as a name or an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def unused_public_methods(sources: dict, callers=()) -> list:
    """``module.Class.method`` for each public, non-dunder function in a
    class body of ``sources`` (module name -> source text) whose name is
    never referenced, as a name or an attribute, outside its own body, in
    ``sources`` or in the extra ``callers`` (source texts)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    for source in callers:
        referenced += _referenced_names(ast.parse(source))
    return [f"{module}.{cls.name}.{stmt.name}"
            for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_")
            and referenced[stmt.name] == _referenced_names(stmt)[stmt.name]]


def test_unused_method_scan_sees_dead_methods():
    sources = {
        "a": ("class A:\n"
              "    def used(self):\n        return self.helper()\n\n"
              "    def dead(self):\n        return self.dead()\n\n"
              "    def helper(self):\n        pass\n\n"
              "    def spec(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n\n"
              "    def __len__(self):\n        return 0\n"),
        "b": "from .a import A\n\ndef f():\n    return A().used()\n",
    }
    assert unused_public_methods(sources, ["A().spec()\n"]) == ["a.A.dead"]
    assert unused_public_methods(sources) == ["a.A.dead", "a.A.spec"]


def test_every_public_method_is_used():
    # the acceptance criteria are the product's spec, so they count as callers
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    assert unused_public_methods(package_sources(), [acceptance]) == []


def _annotation_names(node) -> set:
    """The names an annotation uses, reading into string annotations such as
    ``"GroupElement | int"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(sources: dict) -> list:
    """``module.name`` for each name that a module of ``sources`` (module
    name -> source text) imports, other than from ``__future__``, and that it
    neither references, nor uses in a string annotation, nor lists in
    ``__all__``."""
    unused = []
    for module, source in sources.items():
        imported, used = [], set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                used |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                used |= _annotation_names(node.returns)
            elif isinstance(node, ast.AnnAssign):
                used |= _annotation_names(node.annotation)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{module}.{name}" for name in imported if name not in used]
    return unused


def test_unused_import_scan_sees_dead_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys as system\n"
        "import os.path\n"
        "from .b import Used, Dead, Quoted, Exported\n"
        "__all__ = ['Exported']\n"
        "\n"
        "def f(x: 'Quoted | int') -> Used:\n"
        "    return os.sep\n"
    )
    assert unused_imports({"a": source}) == ["a.system", "a.Dead"]


def test_no_unused_imports():
    assert unused_imports(package_sources(exclude={"__init__"})) == []


def second_element_spellings(sources: dict) -> list:
    """``module.function`` for each signature in ``sources`` (module name ->
    source text) with an annotation naming both ``GroupElement`` and
    ``int``, and ``module.isinstance`` for each ``isinstance`` test against
    ``GroupElement`` in a ``CORE`` module of them.  A group element is its
    index; these are the ways a second spelling of it would come back."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations = [a.annotation for a in ast.walk(node.args)
                               if isinstance(a, ast.arg) and a.annotation is not None]
                annotations += [node.returns] if node.returns is not None else []
                if any({"GroupElement", "int"} <= _annotation_names(a) for a in annotations):
                    found.append(f"{module}.{node.name}")
            elif (module in CORE and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                  and len(node.args) == 2 and "GroupElement" in _annotation_names(node.args[1])):
                found.append(f"{module}.isinstance")
    return found


def test_second_element_spelling_scan_sees_both_forms():
    source = (
        "def mixed(g: 'GroupElement | int'): pass\n"
        "def union(g: Union[GroupElement, int]): pass\n"
        "def back(g: int) -> 'GroupElement | int': pass\n"
        "def record(g: GroupElement) -> int: pass\n"
        "def check(g):\n    return isinstance(g, (int, GroupElement))\n"
    )
    spelled = ["mixed", "union", "back"]
    assert second_element_spellings({"groups": source}) == (
        [f"groups.{name}" for name in spelled] + ["groups.isinstance"])
    assert second_element_spellings({"cli": source}) == [f"cli.{name}" for name in spelled]


def test_group_elements_have_one_spelling():
    assert second_element_spellings(package_sources()) == []


def _alternatives(node) -> set:
    """The names an annotation admits at its top level: the parts of
    ``A | B``, ``Union[A, B]`` and ``Optional[A]``, reading into string
    annotations, but not the items of a container such as ``Sequence[A]``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _alternatives(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _alternatives(node.left) | _alternatives(node.right)
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("Union", "Optional")):
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return set().union(*map(_alternatives, parts))
    return {node.id} if isinstance(node, ast.Name) else set()


def record_parameters(sources: dict) -> list:
    """``module.function`` for each function of ``sources`` (module name ->
    source text) with a parameter annotated as ``GroupElement``, alone or
    in a union.  A function that takes the record instead of the index is
    how a second spelling of an element starts; a sequence of records, as
    the group is built from, is not one element."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    "GroupElement" in _alternatives(a.annotation)
                    for a in ast.walk(node.args)
                    if isinstance(a, ast.arg) and a.annotation is not None):
                found.append(f"{module}.{node.name}")
    return found


def test_record_parameter_scan_sees_records():
    source = (
        "def record(g: GroupElement, p: Polynomial): pass\n"
        "def quoted(p, *, g: 'Optional[GroupElement]' = None): pass\n"
        "def union(g: Union[int, GroupElement]): pass\n"
        "def index(group, p, g: int) -> GroupElement: pass\n"
        "def build(elements: Sequence[GroupElement]): pass\n"
        "class C:\n    def m(self, *gs: 'int | GroupElement'): pass\n"
    )
    assert record_parameters({"groups": source}) == [
        "groups.record", "groups.quoted", "groups.union", "groups.m"]


def test_no_function_takes_an_element_record():
    assert record_parameters(package_sources()) == []


def _extends(node, name: str) -> bool:
    """Whether ``node`` is ``name + ...`` or ``name - ...``, alone or as a
    branch of a conditional expression."""
    if isinstance(node, ast.IfExp):
        return _extends(node.body, name) or _extends(node.orelse, name)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.left, ast.Name) and node.left.id == name)


def running_sums(sources: dict) -> list:
    """``module:line`` for each assignment ``name = name + ...`` or
    ``name = name - ...`` (or a conditional expression with such a branch)
    inside a ``for`` or ``while`` loop of ``sources`` (module name -> source
    text).  A polynomial sum is one call of ``Polynomial.sum``; a running sum
    copies the whole accumulator on every ``+``."""
    found = set()
    for module, source in sources.items():
        for loop in ast.walk(ast.parse(source)):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and _extends(node.value, node.targets[0].id)):
                    found.add((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_running_sum_scan_sees_loops():
    source = (
        "total = total + 1\n"
        "for p in ps:\n"
        "    total = total + p\n"
        "    count += 1\n"
        "    other = total + p\n"
        "    while p:\n"
        "        acc = acc - p if p else acc\n"
        "        acc = p if acc is None else acc + p\n"
        "        acc = p - acc\n"
    )
    assert running_sums({"a": source}) == ["a:3", "a:7", "a:8"]


def test_no_running_sums():
    assert running_sums(package_sources()) == []


def attribute_readers(sources: dict, attributes: set) -> list:
    """``module.owner`` for each top-level function or class (``owner``, or
    ``<module>`` for module-level code) of ``sources`` (module name ->
    source text) that reads an attribute named in ``attributes``."""
    readers = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", "<module>")
            if any(isinstance(node, ast.Attribute) and node.attr in attributes
                   for node in ast.walk(stmt)):
                readers.add(f"{module}.{owner}")
    return sorted(readers)


# (owner module, private names, readers outside the owner): one concept's
# storage, which no other module reads but the allowed readers
OWNERSHIP = {
    # FiniteMatrixGroup's product storage: the Cayley edges, the element paths
    # and the inverses, and the multiplication and inverse tables they
    # replaced; the selftest corruption hook sabotages a copy's Cayley edges
    # on purpose
    "product-storage": ("groups", {"_right", "_paths", "_inverses", "mul_table",
                                   "inverse_table"}, ["selftest._corrupt_mul_table"]),
    # FiniteMatrixGroup's compiled element actions; every other module acts
    # through act_on_poly(group, p, g)
    "action-cache": ("groups", {"_actions"}, []),
    # Polynomial's integer numerators, their common denominator and its
    # unchecked constructor; every other module goes through items(),
    # coefficient(), to_vector() and the arithmetic
    "polynomial-internals": ("poly", {"_terms", "_den", "_wrap"}, []),
    # RowSpace's integer rows and their weights over the inputs; every other
    # module goes through add, contains, solve, reduced_rows and annihilator,
    # which hand back Fraction values
    "row-space-storage": ("linalg", {"_rows", "_combos"}, []),
    # LinearSubstitution's compiled rows, forms and image memo; every other
    # module substitutes by calling the object and keys images by image_key
    "linear-substitution-internals": ("poly", {"_simple", "_forms", "_images", "_image"}, []),
}


@pytest.mark.parametrize("rule", OWNERSHIP)
def test_ownership_scan_sees_readers(rule):
    _, names, _ = OWNERSHIP[rule]
    for name in sorted(names):
        sources = {
            "a": (f"def f(x):\n    return x.{name}[0]\n\n"
                  f"def ok(x):\n    return x.public(), {name}\n"),
            "b": f"X = y.{name}\n\nclass C:\n    def m(self, z):\n        return z.{name}\n",
            "c": f"def scaled(p):\n    return {{e: n for e, n in p.{name}.items()}}\n",
        }
        assert attribute_readers(sources, names) == ["a.f", "b.<module>", "b.C", "c.scaled"]


@pytest.mark.parametrize("rule", OWNERSHIP)
def test_only_the_owner_reads(rule):
    owner, names, readers = OWNERSHIP[rule]
    assert attribute_readers(package_sources(exclude={owner}), names) == readers
