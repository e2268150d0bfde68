"""No package module uses another package module's private (underscore) names,
every default a package function sets is overridden by some call, and every
public function and class is named by some code besides its own definition."""

from __future__ import annotations

import ast
import math
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = "shoulderseason"
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / PACKAGE
MODULES = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem != "__init__")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not _is_dunder(name)


def private_uses(source: str) -> list[str]:
    """Each `module._name` the source takes from a package module."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> the package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix(PACKAGE + ".")
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                name = name.removeprefix(PACKAGE).removeprefix(".")
            for alias in node.names:
                if not name:  # from . import module [as alias]
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.append(f"{name}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_private_names_from_other_modules(module: str) -> None:
    source = (SOURCE / f"{module}.py").read_text(encoding="utf-8")
    assert private_uses(source) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .ingest import _split_rows, parse_float", ["ingest._split_rows"]),
        ("def f():\n    from .ingest import (\n        _parse_float,\n    )", ["ingest._parse_float"]),
        ("from shoulderseason.trends import _compare_to_cutoff", ["trends._compare_to_cutoff"]),
        ("from shoulderseason import ingest as i\ni._lines(s)", ["ingest._lines"]),
        ("from . import adequacy as adq\nadq._span(p)", ["adequacy._span"]),
        ("from . import ingest\nx = ingest._Table", ["ingest._Table"]),
        ("import shoulderseason.trends as tr\ntr._as_day_value(1)", ["trends._as_day_value"]),
        ("from . import ingest\ningest.__name__, ingest.read_csv_chunks", []),
        ("import numpy as np\nnp._NoValue", []),
        ("from typing import _T", []),
        ("from shoulderseason_extra import _x", []),
    ],
)
def test_checker_finds_private_uses(source: str, found: list[str]) -> None:
    assert private_uses(source) == found


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """Each `module.function(parameter)` whose default no call in the sources overrides.

    A call is matched to a function by its last name (`f()`, `mod.f()` and
    `obj.f()` all call f), and a method's positions count after self or cls.
    Dunder methods, which Python calls, are left out.
    """
    defaults = []  # (module.function, its positional parameters, one defaulted parameter)
    calls: dict[str, list[tuple[float, set[str]]]] = {}  # name -> (positions, keywords)
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args][id(node) in methods :]
                named = positional[len(positional) - len(args.defaults) :]
                named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                defaults.extend((f"{module}.{node.name}", positional, p) for p in named)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}  # None for **mapping
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), keywords)
                )

    def passed(function: str, positional: list[str], param: str) -> bool:
        at = positional.index(param) if param in positional else math.inf
        return any(
            at < n or param in keywords or None in keywords
            for n, keywords in calls.get(function.split(".")[1], [])
        )

    return sorted(f"{f}({p})" for f, positional, p in defaults if not passed(f, positional, p))


# The console script calls main() with no arguments; tests pass argv.
ENTRY_POINTS = {"cli.main(argv)"}


def test_every_default_is_set_by_some_call() -> None:
    sources = {m: (SOURCE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    assert [d for d in unset_defaults(sources) if d not in ENTRY_POINTS] == []


@pytest.mark.parametrize(
    "sources, found",
    [
        ({"m": "def f(a, b=1): pass\nf(1)"}, ["m.f(b)"]),
        ({"m": "def f(a, b=1, c=2): pass\nf(1, 2)"}, ["m.f(c)"]),
        ({"m": "def f(a, b=1): pass\nf(1, b=2)"}, []),
        ({"m": "def f(*, k=1): pass\nf()\nf(*xs)"}, ["m.f(k)"]),
        ({"m": "def f(a=1): pass", "n": "from .m import f\nf(**opts)"}, []),
        ({"m": "class C:\n    def g(self, x=1): pass\nC().g(2)"}, []),
        ({"m": "class C:\n    def __array__(self, dtype=None): pass"}, []),
    ],
)
def test_checker_finds_unset_defaults(sources: dict[str, str], found: list[str]) -> None:
    assert unset_defaults(sources) == found


def _names(tree: ast.AST) -> Counter[str]:
    """How often each name is used, as a name, an attribute or an import."""
    found: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def unreferenced(modules: dict[str, str], others: list[str]) -> list[str]:
    """Each public top-level `module.name` (function or class) of the modules
    that no code in them or in the other sources names, outside its own
    definition.

    A use is matched by its last name, so a local of the same name hides a
    dead function; the check misses some dead names but flags no live one.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    used = sum((_names(tree) for tree in [*trees.values(), *map(ast.parse, others)]), Counter())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not _is_private(node.name)
        and used[node.name] == _names(node)[node.name]
    )


def test_every_public_name_is_used() -> None:
    modules = {m: (SOURCE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    benchmark = sorted((ROOT / "perfbench").glob("*.py"))
    others = [p.read_text(encoding="utf-8") for p in benchmark if not p.name.startswith("test_")]
    assert unreferenced(modules, others) == []


@pytest.mark.parametrize(
    "modules, others, found",
    [
        ({"m": "def f(): pass"}, [], ["m.f"]),
        ({"m": "def f(): pass\nf()"}, [], []),
        ({"m": "def f():\n    return f()"}, [], ["m.f"]),
        ({"m": "class C: pass", "n": "from . import m\nx = m.C"}, [], []),
        ({"m": "class C: pass", "n": "from .m import C"}, [], []),
        ({"m": "def f(): pass"}, ["from shoulderseason import m\nm.f()"], []),
        ({"m": "def _f(): pass\nX = 1"}, [], []),
        ({"m": "def f():\n    def g(): pass\n    return g\nf"}, [], []),
        ({"m": "class C:\n    def run(self): pass\nC()"}, [], []),
        ({"m": "def f(): pass\ndef g(): pass\ng()"}, [], ["m.f"]),
        ({"m": "def f(): pass\ndef g(): pass\ng()"}, ["f = 1"], []),
    ],
)
def test_checker_finds_unreferenced_names(
    modules: dict[str, str], others: list[str], found: list[str]
) -> None:
    assert unreferenced(modules, others) == found


RECORDS = {"dataclass", "NamedTuple"}


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    names = [getattr(d, "func", d) for d in node.decorator_list] + node.bases
    return bool({getattr(n, "id", None) or getattr(n, "attr", None) for n in names} & RECORDS)


def unread_fields(modules: dict[str, str], others: list[str]) -> list[str]:
    """Each `module.Class.field` of a dataclass or NamedTuple in the modules
    that no code in them or in the other sources reads as an attribute.

    A read is matched by the attribute's name alone, so a read of a field
    of the same name on another class hides an unread one; the check misses
    some unread fields but flags no read one.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = {
        node.attr
        for tree in [*trees.values(), *map(ast.parse, others)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{node.name}.{field.target.id}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        if field.target.id not in read
    )


# Records whose fields are not each read by name, each kept on purpose.
UNREAD = {
    # Written whole, one table row per record, through astuple.
    "adequacy.PeriodOutageStat",
    # Input paths that only readers.input_jobs reads, by config key through getattr.
    "config.RunConfig.ensemble_csv",
    "config.RunConfig.load_csv",
    "config.RunConfig.mask_csv",
    "config.RunConfig.population_csv",
    "config.RunConfig.temperature_grid",
}


def test_every_field_is_read() -> None:
    modules = {m: (SOURCE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    benchmark = sorted((ROOT / "perfbench").glob("*.py"))
    others = [p.read_text(encoding="utf-8") for p in benchmark if not p.name.startswith("test_")]
    found = unread_fields(modules, others)
    assert [f for f in found if f not in UNREAD and f.rpartition(".")[0] not in UNREAD] == []


@pytest.mark.parametrize(
    "modules, others, found",
    [
        ({"m": "@dataclass\nclass C:\n    a: int"}, [], ["m.C.a"]),
        ({"m": "@dataclass\nclass C:\n    a: int\nC(1).a"}, [], []),
        ({"m": "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 0\nc.b"}, [], ["m.C.a"]),
        ({"m": "class T(NamedTuple):\n    a: int"}, ["t.a"], []),
        ({"m": "class T(typing.NamedTuple):\n    a: int"}, [], ["m.T.a"]),
        ({"m": "@dataclasses.dataclass\nclass C:\n    a: int"}, [], ["m.C.a"]),
        ({"m": "@dataclass\nclass C:\n    a: int\n    def f(self):\n        return self.a"}, [], []),
        ({"m": "@dataclass\nclass C:\n    a: int\nc.a = 1"}, [], ["m.C.a"]),
        ({"m": "@dataclass\nclass C:\n    a: int\nf(a=1)\nx = 'a'"}, [], ["m.C.a"]),
        ({"m": "class C:\n    a: int"}, [], []),
        ({"m": "def f():\n    @dataclass\n    class C:\n        a: int"}, [], ["m.C.a"]),
    ],
)
def test_checker_finds_unread_fields(
    modules: dict[str, str], others: list[str], found: list[str]
) -> None:
    assert unread_fields(modules, others) == found
