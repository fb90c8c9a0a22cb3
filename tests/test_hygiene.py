"""Source hygiene: every name a module imports is read somewhere in it, every
name in a module's ``__all__`` is defined there, every function reads each
of its parameters, only ``rings`` builds a Poly unchecked, only ``koszul``
builds a transition between Koszul stages, only ``exact`` (and its tests)
touches how a matrix is stored, every GradedMap goes through its
constructor, ``exact._Frozen`` is the one immutability guard, and every
function and class is named somewhere besides its own definition."""

import ast
import functools
import re
from pathlib import Path

import pytest

from lochom.complexes import ModuleChainMap, ModuleComplex, StrandContext
from lochom.duality import trivial_resolution
from lochom.exact import FieldSpec, _Frozen
from lochom.koszul import KoszulSpec
from lochom.localcoh import KoszulTowerSystem
from lochom.modules import FreeModule, GradedMap, HilbertTable, PresentedModule, strand
from lochom.rings import GradedRing
from lochom.towers import DIRECT, StrandTower

SRC = Path(__file__).resolve().parent.parent / "src" / "lochom"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nfrom x import a, b as c\nfrom y import d\n"
        "__all__ = ['d']\nprint(a)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "c")]


def undefined_exports(tree: ast.Module) -> list:
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(exported(tree) - defined)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    assert undefined_exports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_undefined_export():
    tree = ast.parse(
        "from x import a\nimport os.path\nb, (c, d) = 1, (2, 3)\ne: int = 4\n"
        "def f(): pass\nclass G: pass\n"
        "__all__ = ['a', 'os', 'b', 'c', 'd', 'e', 'f', 'G', 'gone', 'h']\n"
    )
    assert undefined_exports(tree) == ["gone", "h"]


def unread_parameters(tree: ast.Module) -> list:
    """(line, function, parameter) for each parameter its function never reads;
    dunder methods are exempt, since their signatures are fixed by Python."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        hits += [(node.lineno, node.name, p) for p in params if p not in read]
    return sorted(hits)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_unread_parameter():
    tree = ast.parse(
        "def _sign_of(ring, n: int) -> int:\n    return -1 if n % 2 else 1\n"
        "def f(a, *args, b=1, **kw):\n    def g(c):\n        return a + b\n    return g\n"
        "class C:\n    def __init__(self, unused):\n        pass\n"
        "    def m(self, v):\n        return lambda: self.k + v\n"
    )
    assert unread_parameters(tree) == [
        (1, "_sign_of", "ring"), (3, "f", "args"), (3, "f", "kw"), (4, "g", "c"),
    ]


TRUSTED = "_trusted_poly"


def references(tree: ast.Module, target: str) -> list:
    """(line, how) for each reference to the name ``target``: a name, an
    attribute, an import or a string naming it."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == target:
            hits.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == target:
            hits.append((node.lineno, "attribute"))
        elif isinstance(node, ast.ImportFrom) and any(a.name == target for a in node.names):
            hits.append((node.lineno, "import"))
        elif isinstance(node, ast.Constant) and node.value == target:
            hits.append((node.lineno, "string"))
    return sorted(hits)


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "rings.py"], ids=lambda p: p.name
)
def test_only_rings_builds_a_poly_unchecked(path):
    # parsed and user input must reach Poly(ring, terms), which validates it
    assert references(ast.parse(path.read_text(encoding="utf-8")), TRUSTED) == []


def test_the_scan_sees_an_unchecked_poly():
    tree = ast.parse(
        "from .rings import _trusted_poly as make\nfrom . import rings\n"
        "p = make(r, {})\nq = rings._trusted_poly(r, {})\n"
        "f = getattr(rings, '_trusted_poly')\ndef g():\n    return _trusted_poly\n"
    )
    assert references(tree, TRUSTED) == [
        (1, "import"), (4, "attribute"), (5, "string"), (7, "name"),
    ]
    rings = SRC / "rings.py"
    assert references(ast.parse(rings.read_text(encoding="utf-8")), TRUSTED)


STAGE_MAP = "_stage_map"


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "koszul.py"], ids=lambda p: p.name
)
def test_only_koszul_builds_a_stage_transition(path):
    # koszul._stage_system is the one builder of the stages K(a^k) (x) X and
    # their transitions, for the Koszul towers and the stable Cech complex alike
    assert references(ast.parse(path.read_text(encoding="utf-8")), STAGE_MAP) == []


def test_the_scan_sees_a_stage_transition_outside_koszul():
    tree = ast.parse(
        "from .koszul import _stage_map as step, _stage_system\nfrom . import koszul\n"
        "m = step(a, b)\nn = koszul._stage_map(a, b)\nf = getattr(koszul, '_stage_map')\n"
        "_stage_map = None\nstages = _stage_system(g, x, 2, 'direct')\n"
    )
    assert references(tree, STAGE_MAP) == [
        (1, "import"), (4, "attribute"), (5, "string"), (6, "name"),
    ]
    koszul = SRC / "koszul.py"
    assert references(ast.parse(koszul.read_text(encoding="utf-8")), STAGE_MAP)


STORAGE = {"_data", "_indptr", "_indices", "_proj", "_zeros", "_stored", "_as_array", "_coo",
           "_csr", "_from_coo"}


def storage_uses(tree: ast.Module) -> list:
    """(line, name) for each name, attribute or import of the matrix storage
    ``exact`` keeps: a matrix's ``_data`` and, when sparse, ``_indptr`` and
    ``_indices``, a space's ``_proj``, and the helpers that build or read
    either storage (``_zeros``, ``_stored``, ``_as_array``, ``_coo``, ``_csr``,
    ``_from_coo``)."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in STORAGE:
            hits.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in STORAGE:
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, a.name) for a in node.names if a.name in STORAGE]
    return sorted(hits)


@pytest.mark.parametrize(
    "path",
    [p for p in ALL_MODULES if p.name != "exact.py"]
    + [p for p in TEST_FILES if p.name != "test_exact.py"],
    ids=lambda p: p.name,
)
def test_only_exact_touches_matrix_storage(path):
    # a change of storage, such as sparse maps, then edits exact.py and its
    # tests alone
    assert storage_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_matrix_storage():
    tree = ast.parse(
        "from .exact import _zeros, _mult_block\nfrom .exact import _kernel as _data\n"
        "a = m._data[0]\nb = space._proj\n_proj = 1\nc = _projected_block(_data_x)\n"
        "d = _data\ne = 'm._data'\n"
    )
    assert storage_uses(tree) == [
        (1, "_zeros"), (3, "_data"), (4, "_proj"), (5, "_proj"), (7, "_data"),
    ]
    exact = SRC / "exact.py"
    assert storage_uses(ast.parse(exact.read_text(encoding="utf-8")))


def _is_graded_map(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "GradedMap") or (
        isinstance(node, ast.Attribute) and node.attr == "GradedMap"
    )


def graded_map_bypasses(tree: ast.Module) -> list:
    """(line, how) for each GradedMap built around its checked constructor:
    a ``__new__`` called on GradedMap, as ``object.__new__(GradedMap)``, or
    GradedMap's own ``__new__``, named or called."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "__new__" and node.args and _is_graded_map(node.args[0]):
                hits.append((node.lineno, "__new__(GradedMap)"))
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            if _is_graded_map(node.value):
                hits.append((node.lineno, "GradedMap.__new__"))
    return sorted(hits)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_graded_map_goes_through_its_constructor(path):
    # the constructor checks every entry's bounds, ring and degree
    assert graded_map_bypasses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_a_graded_map_built_around_its_constructor():
    tree = ast.parse(
        "from . import modules\nfrom .modules import GradedMap as G, GradedMap\n"
        "a = object.__new__(GradedMap)\nb = GradedMap.__new__(GradedMap)\n"
        "c = object.__new__(modules.GradedMap)\nmake = GradedMap.__new__\n"
        "d = object.__new__(FreeModule)\ne = GradedMap(s, t, {})\n"
    )
    assert graded_map_bypasses(tree) == [
        (3, "__new__(GradedMap)"), (4, "GradedMap.__new__"), (4, "__new__(GradedMap)"),
        (5, "__new__(GradedMap)"), (6, "GradedMap.__new__"),
    ]


def _names_frozen(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_Frozen") or (
        isinstance(node, ast.Attribute) and node.attr == "_Frozen"
    )


def setattr_guards(tree: ast.Module) -> list:
    """(line, class) for each class, nested or not, that defines ``__setattr__``."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__" for f in node.body)
    )


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_frozen_is_the_one_immutability_guard(path):
    # every immutable value type derives from exact._Frozen, so its message
    # and its refusal are written once
    guards = [name for _, name in setattr_guards(ast.parse(path.read_text(encoding="utf-8")))]
    assert guards == (["_Frozen"] if path.name == "exact.py" else [])


def test_the_scan_sees_a_second_immutability_guard():
    tree = ast.parse(
        "class _Frozen:\n    def __setattr__(self, n, v):\n        raise AttributeError\n"
        "class A(_Frozen):\n    pass\n"
        "class B:\n    def __setattr__(self, n, v):\n        pass\n"
        "def __setattr__(self, n, v):\n    pass\n"
        "class C:\n    class D:\n        def __setattr__(self, n, v):\n            pass\n"
    )
    assert setattr_guards(tree) == [(1, "_Frozen"), (6, "B"), (12, "D")]


def unfrozen_slot_writes(tree: ast.Module) -> list:
    """(line, class) for each ``object.__setattr__(self, ...)`` in a method of
    a class that does not derive from ``_Frozen`` by name: a value type that
    guards its own slots instead of taking the one guard."""
    hits = []

    def visit(node, frozen, cls):
        if isinstance(node, ast.ClassDef):
            frozen, cls = any(_names_frozen(b) for b in node.bases), node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
            and cls is not None
            and not frozen
        ):
            hits.append((node.lineno, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, frozen, cls)

    visit(tree, False, None)
    return sorted(hits)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_slot_writing_class_is_frozen(path):
    assert unfrozen_slot_writes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_slots_written_around_the_guard():
    tree = ast.parse(
        "from .exact import _Frozen\nfrom . import exact\n"
        "class A(_Frozen):\n    def __init__(self):\n        object.__setattr__(self, 'a', 1)\n"
        "class B(exact._Frozen):\n    def f(self):\n        object.__setattr__(self, 'b', 1)\n"
        "class C:\n    def __init__(self):\n        object.__setattr__(self, 'c', 1)\n"
        "def g(m):\n    object.__setattr__(m, 'parts', ())\n"
        "class D(A):\n    class E:\n        def h(self):\n            object.__setattr__(self, 'e', 1)\n"
        "    def k(self):\n        object.__setattr__(self, 'd', 1)\n"
    )
    assert unfrozen_slot_writes(tree) == [(11, "C"), (17, "E"), (19, "D")]


def frozen_values() -> dict:
    """One value of each immutable type, by type."""
    field = FieldSpec(5)
    ring = GradedRing(field, ["x"], [1])
    x = ring.variable(0)
    free = FreeModule(ring, [0])
    module = PresentedModule.free(free)
    stalk = ModuleComplex.stalk(module)
    values = (
        field, ring, x, free, GradedMap.identity(free), module, HilbertTable({}), stalk,
        ModuleChainMap.identity(stalk), StrandContext(stalk, 0), KoszulSpec(ring, (x,), 1),
        StrandTower([strand(module, 0)], [], DIRECT), KoszulTowerSystem((x,), module, 1, DIRECT),
        trivial_resolution(free, (0, 0)),
    )
    return {type(v): v for v in values}


@pytest.mark.parametrize(
    "cls", sorted(_Frozen.__subclasses__(), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_a_frozen_value_refuses_an_attribute_write(cls):
    value = frozen_values()[cls]
    slot = cls.__slots__[0]
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(value, slot, None)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        value.unknown = None
    assert getattr(value, slot) is before


REPO = SRC.parent.parent
IDENTIFIER_PATH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def named(tree: ast.Module) -> set:
    """The identifiers a module names outside the definitions of those names
    and its ``__all__``: names, attributes, the original name of an import
    under another name, and the parts of a string that is a dotted
    identifier path (the tracer names its targets that way)."""
    out = set()

    def visit(node, enclosing):
        if _is_all(node):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        found = ()
        if isinstance(node, ast.Name):
            found = (node.id,)
        elif isinstance(node, ast.Attribute):
            found = (node.attr,)
        elif isinstance(node, ast.alias) and node.asname:
            found = (node.name.split(".")[-1],)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER_PATH.fullmatch(node.value):
                found = node.value.split(".")
        out.update(name for name in found if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def uncalled_definitions(defining, naming) -> list:
    """(line, name) for each non-dunder function or class defined in the
    ``defining`` trees that none of the ``naming`` trees names."""
    seen = set().union(*map(named, naming))
    return sorted(
        (node.lineno, node.name)
        for tree in defining
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in seen
    )


@functools.cache
def repo_trees() -> tuple:
    # the package's __init__.py only re-exports, so it names nothing here
    return tuple(
        ast.parse(p.read_text(encoding="utf-8"))
        for root in ("src", "tests", "bench")
        for p in sorted((REPO / root).rglob("*.py"))
        if p != SRC / "__init__.py"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_named_somewhere_else(path):
    # an API with no caller is a defect
    defining = [ast.parse(path.read_text(encoding="utf-8"))]
    assert uncalled_definitions(defining, repo_trees()) == []


def test_the_scan_sees_a_definition_with_no_caller():
    module = ast.parse(
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Table:\n    def merge(self): pass\n    def __contains__(self, k): pass\n"
        "    def lookup(self): pass\n"
        "def documented():\n    \"\"\"Calls documented() and lookup in prose.\"\"\"\n"
        "__all__ = ['recursive', 'documented']\nx = used()\n"
    )
    caller = ast.parse(
        "from lochom.m import Table\ntargets = ('m', 'Table.merge')\n"
    )
    assert uncalled_definitions([module], [module, caller]) == [
        (3, "recursive"), (8, "lookup"), (9, "documented"),
    ]


def _named_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unraised_errors(errors: ast.Module, trees) -> list:
    """(line, class) for each class of ``errors`` that no other class there
    derives from and that no ``raise`` in ``trees`` names, counting only the
    raises outside an ``except`` clause that catches one of those classes: a
    class that only rewraps another adds a name and no failure."""
    classes = {node.name: node for node in errors.body if isinstance(node, ast.ClassDef)}
    bases = set().union(*(_named_in(b) for node in classes.values() for b in node.bases))
    raised = set()

    def visit(node, rewrapping):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            rewrapping = rewrapping or bool(_named_in(node.type) & classes.keys())
        if isinstance(node, ast.Raise) and node.exc is not None and not rewrapping:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.update(_named_in(exc))
        for child in ast.iter_child_nodes(node):
            visit(child, rewrapping)

    for tree in trees:
        visit(tree, False)
    return sorted((node.lineno, name) for name, node in classes.items()
                  if name not in bases | raised)


def test_every_error_class_is_raised():
    # an error class that nothing raises is a name the CLI and callers must
    # still know; the base class is the one the CLI catches
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in ALL_MODULES]
    assert unraised_errors(errors, trees) == []


def test_the_scan_sees_an_error_class_that_is_never_raised():
    errors = ast.parse(
        "class Base(Exception): pass\nclass Raised(Base): pass\nclass Rewrap(Base): pass\n"
        "class Unused(Base): pass\nclass Deep(Raised): pass\nclass Attr(Base): pass\n"
    )
    source = ast.parse(
        "from . import errors\nfrom .errors import Raised, Rewrap\n"
        "def f(x):\n    if x:\n        raise Raised('x')\n"
        "    try:\n        g()\n    except Raised as exc:\n        raise Rewrap(f'at f: {exc}')\n"
        "    except ValueError:\n        raise errors.Attr from None\n"
        "    raise Deep\n"
    )
    assert unraised_errors(errors, [source]) == [(3, "Rewrap"), (4, "Unused")]
