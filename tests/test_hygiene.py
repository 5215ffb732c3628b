"""Dead names in the library: unused imports, unreferenced module-level names
and record fields that nothing reads.

A static scan with the standard-library ``ast`` module.  A name counts as used
when it is read somewhere (a plain name, an attribute, or inside a quoted
annotation) or, for an import in the package itself, when
``realforms.__all__`` lists it.  A module-level name also counts as
referenced when a module other than the package's ``__init__`` imports it by
name, since the import itself must then be used.  Being listed in
``__all__`` is no use of its own: an exported name counts only when a module
other than ``__init__`` reads it or the README names it.  A record is a class
that subclasses ``Record`` or ``FrozenRecord`` directly, and its fields are the
names in its ``__slots__`` and ``_fields``.  A field counts as read when an
attribute of its name is read as a value: a call of a method of that name is
no read of it, and neither is ``self.name`` in another class.
Outside ``reports``, whose ``Record`` constructor sets the fields of every
record, no module calls ``object.__setattr__`` but to set a field that a
record derives from its others.  Outside ``ring``, no module builds a RatFunc
with ``object.__new__`` or assigns its ``num`` or ``den``: the form RatFunc
keeps is made in ``ring`` only.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "realforms"
README = Path(__file__).resolve().parents[1] / "README.md"
RECORD_BASES = {"Record", "FrozenRecord"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(modules) -> set[str]:
    for node in modules["__init__"].body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, including those in quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _read_names(ast.parse(annotation.value, mode="eval"))
    return names


def _imported(tree: ast.Module) -> set[str]:
    """The names the module's imports bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.Import | ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _imported_by_name(tree: ast.Module) -> set[str]:
    """The names ``from ... import`` statements take out of other modules."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_no_unused_imports():
    modules = _modules()
    exported = _exported(modules)
    unused = []
    for name, tree in modules.items():
        used = _read_names(tree) | (exported if name == "__init__" else set())
        unused += [f"{name}: {n}" for n in sorted(_imported(tree) - used)]
    assert unused == []


def _unreferenced(modules, readme: str) -> list[str]:
    """Module-level names that no module reads, that no module but
    ``__init__`` imports by name, and that the README does not name."""
    referenced = set().union(*(_read_names(t) | (set() if name == "__init__" else
                                                 _imported_by_name(t))
                               for name, t in modules.items()))
    documented = {n for n in _exported(modules) if re.search(rf"\b{n}\b", readme)}
    return [f"{name}: {n}" for name, tree in modules.items()
            for n in sorted(_defined(tree) - referenced - documented)]


def test_every_module_level_name_is_referenced_or_documented():
    assert _unreferenced(_modules(), README.read_text(encoding="utf-8")) == []


def test_an_export_that_nothing_reads_is_unreferenced():
    init = ast.parse('from .tools import helper, used\n__all__ = ["helper", "used"]\n')
    tools = ast.parse("def helper():\n    return 0\n\ndef used():\n    return 1\n")
    caller = ast.parse("from .tools import used\n\nused()\n")
    modules = {"__init__": init, "tools": tools, "caller": caller}
    assert _unreferenced(modules, "") == ["tools: helper"]
    assert _unreferenced(modules, "Call `helper()` for a zero.") == []


def _record_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) for every field a record in the module declares: each
    string in the class's ``__slots__`` and ``_fields`` assignments."""
    fields = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                getattr(b, "id", getattr(b, "attr", None)) in RECORD_BASES for b in node.bases):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ("__slots__", "_fields")
                    for t in item.targets):
                fields += [(node.name, c.value) for c in ast.walk(item.value)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return list(dict.fromkeys(fields))


class _FieldReads(ast.NodeVisitor):
    """Attributes a tree reads as values, not as methods it calls: those read
    off ``self`` inside a class as (class, name), every other one by name."""

    def __init__(self):
        self.owner = None
        self.called: set[int] = set()
        self.own: set[tuple[str, str]] = set()
        self.anywhere: set[str] = set()

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Call(self, node):
        self.called.add(id(node.func))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and id(node) not in self.called:
            if self.owner and isinstance(node.value, ast.Name) and node.value.id == "self":
                self.own.add((self.owner, node.attr))
            else:
                self.anywhere.add(node.attr)
        self.generic_visit(node)


def _unread_fields(modules: dict[str, ast.Module]) -> list[str]:
    """Every record field that nothing reads: a call of a method of the
    same name is no read, nor is a read of ``self.name`` in another class."""
    reads = _FieldReads()
    for tree in modules.values():
        reads.visit(tree)
    return [f"{name}.{cls}.{attr}" for name, tree in modules.items()
            for cls, attr in _record_fields(tree)
            if attr not in reads.anywhere and (cls, attr) not in reads.own]


def test_every_record_field_is_read():
    modules = _modules()
    # the scan sees all 16 records, so it cannot pass for finding none
    records = {cls for tree in modules.values() for cls, _ in _record_fields(tree)}
    assert len(records) == 16
    assert _unread_fields(modules) == []


def test_record_fields_come_from_slots_and_fields():
    source = """
from .reports import FrozenRecord, Record

class Spec(FrozenRecord):
    _fields = ("table", "divisor")
    __slots__ = _fields + ("ideal",)

class Plain:
    __slots__ = ("names",)
"""
    assert _record_fields(ast.parse(source)) == [
        ("Spec", "table"), ("Spec", "divisor"), ("Spec", "ideal")]


def test_a_called_method_is_no_read_of_a_field_of_its_name():
    source = """
from .reports import Record

class Report(Record):
    __slots__ = ("summary",)

    def __init__(self, summary):
        self.summary = summary

class Suite:
    def summary(self):
        return 0

def total(suite):
    return suite.summary()
"""
    assert _unread_fields({"synthetic": ast.parse(source)}) == ["synthetic.Report.summary"]
    read = source + "\ndef text(report):\n    return report.summary\n"
    assert _unread_fields({"synthetic": ast.parse(read)}) == []


def test_a_read_off_self_in_another_class_is_no_read():
    source = """
from . import reports

class Chart(reports.Record):
    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

class Fiber(reports.FrozenRecord):
    __slots__ = ("table",)

    def __init__(self, table):
        object.__setattr__(self, "table", table)

    def names(self):
        return self.table
"""
    assert _unread_fields({"synthetic": ast.parse(source)}) == ["synthetic.Chart.table"]


# (module, class, field) of the one field set past a frozen record's guard
# outside the shared constructor: a value the spec derives from its fields
DERIVED_FIELDS = {("modification", "ModificationSpec", "center_ideal")}


class _SetattrCalls(ast.NodeVisitor):
    """(class, field) of every ``object.__setattr__`` call in a tree; the field
    is the call's second argument when it is a string, else None."""

    def __init__(self):
        self.owner = None
        self.calls: list[tuple[str | None, str | None]] = []

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name) and func.value.id == "object"):
            field = node.args[1] if len(node.args) > 1 else None
            self.calls.append((self.owner, field.value if isinstance(field, ast.Constant)
                               else None))
        self.generic_visit(node)


def _stray_setattrs(modules: dict[str, ast.Module]) -> list[tuple]:
    """Every ``object.__setattr__`` call outside ``reports`` that sets no
    derived field."""
    stray = []
    for name, tree in modules.items():
        calls = _SetattrCalls()
        calls.visit(tree)
        stray += [(name, *call) for call in calls.calls
                  if name != "reports" and (name, *call) not in DERIVED_FIELDS]
    return stray


def test_only_the_shared_constructor_sets_fields_with_object_setattr():
    modules = _modules()
    assert _stray_setattrs(modules) == []
    # the scan finds the calls it allows, so it cannot pass for finding none
    found = {}
    for name in ("reports", "modification"):
        calls = _SetattrCalls()
        calls.visit(modules[name])
        found[name] = calls.calls
    assert found == {"reports": [("Record", None)],
                     "modification": [("ModificationSpec", "center_ideal")]}


def test_a_record_that_sets_its_own_fields_is_found():
    source = """
from .reports import FrozenRecord

class Point(FrozenRecord):
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
"""
    assert _stray_setattrs({"synthetic": ast.parse(source)}) == [
        ("synthetic", "Point", "x"), ("synthetic", "Point", "y")]
    assert _stray_setattrs({"reports": ast.parse(source)}) == []


class _KeptFormWrites(ast.NodeVisitor):
    """(function, write) of every write in a tree that sets a RatFunc's parts
    past its constructor's _strip: ``new`` for an ``object.__new__(RatFunc)``
    call, also through a module-level alias of ``object.__new__``, and
    ``num`` or ``den`` for an assignment to an attribute of that name."""

    def __init__(self, tree: ast.Module):
        self.function = None
        self.writes: list[tuple[str | None, str]] = []
        self.new = {t.id for node in tree.body if isinstance(node, ast.Assign)
                    and _is_object_new(node.value) for t in node.targets
                    if isinstance(t, ast.Name)}
        self.visit(tree)

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        func = node.func
        if (_is_object_new(func) or isinstance(func, ast.Name) and func.id in self.new) and [
                a.id for a in node.args[:1] if isinstance(a, ast.Name)] == ["RatFunc"]:
            self.writes.append((self.function, "new"))
        self.generic_visit(node)

    def visit_Assign(self, node):
        for target in getattr(node, "targets", None) or [node.target]:
            self.writes += [(self.function, t.attr) for t in ast.walk(target)
                            if isinstance(t, ast.Attribute) and t.attr in ("num", "den")]
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign = visit_Assign


def _is_object_new(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_only_ring_builds_the_kept_form_of_a_rational_function():
    writes = {name: _KeptFormWrites(tree).writes for name, tree in _modules().items()}
    assert {name: found for name, found in writes.items() if name != "ring" and found} == {}
    # the scan finds the writes it allows, so it cannot pass for finding none
    assert sorted(writes["ring"]) == [
        ("__init__", "den"), ("__init__", "num"),
        ("_int_ratfunc", "den"), ("_int_ratfunc", "new"), ("_int_ratfunc", "num"),
        ("_relabelled", "den"), ("_relabelled", "new"), ("_relabelled", "num"),
        ("var", "den"), ("var", "new"), ("var", "num")]


def test_a_rational_function_built_past_its_constructor_is_found():
    source = """
from .ring import RatFunc

_new = object.__new__

def read(num, den, out):
    f = out["x"] = object.__new__(RatFunc)
    f.num, f.den = num, den
    g = _new(RatFunc)
    g.num = num
    g.den: Poly = den
    h = object.__new__(Poly)
"""
    assert _KeptFormWrites(ast.parse(source)).writes == [
        ("read", "new"), ("read", "num"), ("read", "den"), ("read", "new"), ("read", "num"),
        ("read", "den")]
