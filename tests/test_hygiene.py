"""Source hygiene: every name a module of the package imports is read
somewhere in that module, and so is every private function, class and
constant it defines at module level; imports sit at module level, never
inside a function body, and never take a private name from another module
of the package.  Against the program sources (`src/`, `scripts/` and
`perfbench/`, not the tests), every parameter default of a function in the
package is overridden by some call and left unset by another, every
function and class of the package is read by name (a listing in `__all__`
does not count), and every method is read as an attribute.  `__init__.py`,
which holds only the package docstring, is not scanned.  Every option of a
CLI subcommand is read by the subcommand's handler, and every exception
class of the package derives from arith.Error.  No run of three
consecutive statements occurs twice in the package.  No test module
imports another test module."""

import argparse
import ast
import importlib
import inspect
import textwrap
import types
from pathlib import Path

import pytest

from modpcurves import arith, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "modpcurves"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the program: every file whose calls may set an option of the package or
# read one of its names; a default or a helper that only tests reach is dead
PROGRAM = sorted(p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def unread_private_names(source: str) -> list[str]:
    """Module-level private names (one leading underscore) bound by def,
    class or assignment that the module never reads outside their own
    definition, so a helper only called by itself still counts as dead."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    dead = []
    for name, node in defined.items():
        if not name.startswith("_") or name.startswith("__"):
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, ast.Name) and n.id == name
                   and isinstance(n.ctx, ast.Load) and id(n) not in own
                   for n in ast.walk(tree)):
            dead.append(f"{name} (line {node.lineno})")
    return dead


def function_imports(source: str) -> list[str]:
    """Import statements inside a function body, at any depth."""
    tree = ast.parse(source)
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = ", ".join(a.name for a in node.names)
                    found.add((node.lineno, f"{names} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def private_imports(source: str) -> list[str]:
    """Private names (one leading underscore) imported from another module
    of the package by a relative import."""
    return [f"{alias.name} from .{node.module or ''} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that the source imports by an
    absolute import statement."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def unset_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """Parameter defaults of the functions defined, at any depth, in the
    sources of modules (keyed by file name) that no call in callers
    overrides by position or by keyword, and those that every call in
    callers (at least one) overrides, so the default is never used;
    self is skipped for methods.  A call of a module-level function counts
    only in its own module or in a caller that reads the function off that
    module (see qualified_reads), so a same-named function of another
    module is not a use; a nested function or a method is matched by the
    called name alone, so a collision there counts as a use.  A call with
    *args or **kwargs may set everything but surely sets nothing."""
    calls = {}
    for text in callers:
        tree = ast.parse(text)
        reads = qualified_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append((node, text, reads))

    def options(tree, in_class=False):
        """(function, parameter, index among the call's positional
        arguments or None if keyword-only) for each default."""
        for node in ast.iter_child_nodes(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from options(node, isinstance(node, ast.ClassDef))
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if in_class and positional and positional[0].arg == "self" else 0
            first = len(positional) - len(args.defaults)
            for i, a in enumerate(positional[first:], first):
                yield node, a.arg, i - skip
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node, a.arg, None
            yield from options(node)

    def sets(call, name, index):
        """Whether call surely sets the parameter"""
        starred = [isinstance(a, ast.Starred) for a in call.args]
        return (any(k.arg == name for k in call.keywords)
                or (index is not None and len(call.args) > index
                    and not any(starred[:index + 1])))

    def may_set(call, name, index):
        return (sets(call, name, index)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords))

    found = []
    for module, source in modules.items():
        stem = module.removesuffix(".py")
        tree = ast.parse(source)
        top = {id(node) for node in tree.body}
        for func, name, index in options(tree):
            uses = [call for call, text, reads in calls.get(func.name, [])
                    if id(func) not in top or text == source or (stem, func.name) in reads]
            if not any(may_set(c, name, index) for c in uses):
                found.append(f"{module}: {func.name}({name}) (line {func.lineno})")
            elif all(sets(c, name, index) for c in uses):
                found.append(f"{module}: {func.name}({name}) (line {func.lineno}) "
                             "set by every call")
    return found


def _dotted(node) -> str | None:
    """"a.b.c" for a Name or a chain of attribute reads on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def qualified_reads(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each name that the parsed source reads off a module,
    the module named by its last dotted component: a name imported from it
    by `from ... module import name [as alias]` whose bound name the source
    reads, and `mod.name` where mod is bound to the module by `import
    ...module [as mod]` or `from ... import module [as mod]`."""
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = alias.name
                if local in loads:
                    found.add((module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = bound.get(_dotted(node.value))
            if module:
                found.add((module, node.attr))
    return found


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Functions, classes and methods defined, at any depth, in the sources
    of modules (keyed by file name) that no source in readers reads.  A
    module-level function or class is read only where its own module reads
    its name, or where a source imports it from that module or reads it as
    `mod.name` off that module (see qualified_reads), so a same-named
    method or variable elsewhere does not keep it alive.  A nested function
    or class is read by a variable or an attribute access of its name, and a
    method (anything defined directly in a class body) only by an attribute
    access `.name`, so a local variable of the same name does not keep it
    alive; these names match alone, as in unset_defaults, so a collision
    counts as a read.  A name listed in `__all__` is not read by that
    listing: an export that no program source uses is dead.  Dunder names
    are skipped, since Python calls them."""
    variables, attributes, qualified = set(), set(), set()
    for text in readers:
        tree = ast.parse(text)
        qualified |= qualified_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                variables.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    unread = []
    for module, source in modules.items():
        stem = module.removesuffix(".py")
        tree = ast.parse(source)
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        top = {id(node) for node in tree.body}
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}

        def read(node):
            if id(node) in top:
                return node.name in own or (stem, node.name) in qualified
            if id(node) in methods:
                return node.name in attributes
            return node.name in variables or node.name in attributes

        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        unread.extend(f"{module}: {node.name} (line {node.lineno})"
                      for node in sorted(defs, key=lambda node: node.lineno)
                      if not (node.name.startswith("__") and node.name.endswith("__"))
                      and not read(node))
    return unread


def attribute_reads(func) -> set[str]:
    """The attributes that func reads off its first parameter."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    first = tree.body[0].args.args[0].arg
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == first}


def unread_options(parser: argparse.ArgumentParser, shared: set[str]) -> list[str]:
    """The options of each subcommand of parser, as `subcommand: dest`, that
    its handler (the `func` default of its subparser) never reads off its
    first parameter; help and the dests in shared, which a helper that
    every handler calls reads, are skipped.  Such an option is accepted and
    then ignored."""
    unread = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                read = attribute_reads(sub.get_default("func")) | shared | {"help"}
                unread.extend(f"{name}: {option.dest}" for option in sub._actions
                              if option.dest not in read)
    return unread


def foreign_exceptions(modules, base) -> list[str]:
    """The exception classes defined in modules that do not derive from
    base, as `module.Class`; a class a module imports is not its own."""
    return [f"{module.__name__}.{name}" for module in modules
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__ and not issubclass(obj, base)]


def repeated_runs(modules: dict[str, str], width: int = 3) -> list[str]:
    """The runs of consecutive statements, as `module:first-last` lines,
    covered by windows of width statements that occur at least twice in
    the sources of modules (keyed by file name).  Statements are compared
    by ast.dump, so names count but line numbers and layout do not; a
    docstring is not a statement."""
    documented = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    blocks, places = [], {}
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            for field, stmts in ast.iter_fields(node):
                if not (isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt)):
                    continue
                if (field == "body" and isinstance(node, documented)
                        and ast.get_docstring(node, clean=False) is not None):
                    stmts = stmts[1:]
                dumps = [ast.dump(stmt) for stmt in stmts]
                for i in range(len(stmts) - width + 1):
                    places.setdefault(tuple(dumps[i:i + width]), []).append((len(blocks), i))
                blocks.append((module, stmts))
    covered = {(b, i + j) for found in places.values() if len(found) > 1
               for b, i in found for j in range(width)}
    runs = []
    for b, (module, stmts) in enumerate(blocks):
        first = None
        for i in range(len(stmts) + 1):
            if (b, i) in covered:
                first = i if first is None else first
            elif first is not None:
                runs.append(f"{module}:{stmts[first].lineno}-{stmts[i - 1].end_lineno}")
                first = None
    return runs


def test_scan_finds_a_planted_unused_import():
    source = "import os\nfrom math import gcd, isqrt\nprint(isqrt(4), os.sep)\n"
    assert unused_imports(source) == ["gcd (line 2)"]


def test_scan_finds_planted_dead_private_names():
    source = ("__all__ = ['f']\n"
              "_USED = 3\n"
              "_UNUSED: int = 4\n"
              "def _helper(n):\n    return n\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
              "def _dead(n):\n    return _USED * n\n"
              "class _Gone:\n    pass\n"
              "def f(n):\n    return _helper(n)\n")
    assert unread_private_names(source) == [
        "_UNUSED (line 3)", "_recursive (line 6)", "_dead (line 8)",
        "_Gone (line 10)"]


def test_scan_finds_planted_function_imports():
    source = ("import os\n"
              "def f():\n    from math import gcd\n    return gcd(4, 6)\n"
              "class C:\n    def g(self):\n"
              "        def h():\n            import itertools\n"
              "            return itertools\n        return h\n"
              "if os.sep:\n    import sys\n")
    assert function_imports(source) == ["gcd (line 3)", "itertools (line 8)"]


def test_scan_finds_planted_private_imports():
    source = ("from math import _private_elsewhere\n"
              "from .arith import factor, _helper\n"
              "from . import _tables\n"
              "from .frobenius import ap as _ap\n")
    assert private_imports(source) == ["_helper from .arith (line 2)",
                                       "_tables from . (line 3)"]


def test_scan_finds_planted_imported_modules():
    source = ("import os.path, json as j\n"
              "from test_cubic import element_index\n"
              "from . import sibling\n"
              "def f():\n    import test_tate\n")
    assert imported_modules(source) == {"os", "json", "test_cubic", "test_tate"}


def test_scan_finds_planted_unset_defaults():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
              "def g(x=0):\n    def h(y=1):\n        return y\n    return h()\n"
              "class C:\n    def m(self, k=5, j=6):\n        return k\n"
              "def spread(a=1):\n    return a\n"
              "def unused(a=1):\n    return a\n"
              "def always(a, b=1, c=2):\n    return a\n")
    callers = [source,
               "from m import always, f, g, spread\n"
               "f(0, 1)\nf(0, d=5)\ng(2)\ng()\nobj.m(7)\nobj.m()\n"
               "spread(*args)\nspread(**kw)\n"
               "always(0, 2, c=3)\nalways(1, b=3, **kw)\nalways(2, 4, *rest)\n"]
    assert unset_defaults({"m.py": source}, callers) == [
        "m.py: f(c) (line 1)", "m.py: f(e) (line 1)", "m.py: h(y) (line 4)",
        "m.py: m(j) (line 8)", "m.py: unused(a) (line 12)",
        "m.py: always(b) (line 14) set by every call"]


def test_scan_reads_a_default_of_a_module_level_function_off_its_module():
    # f of another module shares the name of m.f but sets none of its
    # defaults; m.g is set by one call, read through `import m`, and left
    # unset by another in m itself
    source = ("def f(a=1):\n    return a\n"
              "def g(b=2):\n    return b\n"
              "def main():\n    return g()\n")
    callers = [source, "from other import f\nf(2)\nf(a=3)\n", "import m\nm.g(4)\n"]
    assert unset_defaults({"m.py": source}, callers) == ["m.py: f(a) (line 1)"]


def test_scan_finds_planted_unread_definitions():
    source = ("class C:\n    def used(self):\n        return 1\n"
              "    def spare(self):\n        return 2\n"
              "    def __len__(self):\n        return 0\n"
              "    def total(self):\n        return 5\n"
              "def f():\n    def inner():\n        return 3\n    return C().used()\n"
              "def exported():\n    return f()\n"
              "def only_tests():\n    return 4\n"
              "class Gone:\n    pass\n"
              "def g(items):\n    total = sum(items)\n    return total\n")
    readers = [source, "from m import exported, g\nprint(exported(), g([1]))\n"]
    assert unread_definitions({"m.py": source}, readers) == [
        "m.py: spare (line 4)", "m.py: total (line 8)", "m.py: inner (line 11)",
        "m.py: only_tests (line 16)", "m.py: Gone (line 18)"]


def test_scan_does_not_count_all_as_a_read():
    # both functions are exported; only `used` is also called by a program
    # source, so `exported_only` is as dead as `unlisted`
    source = ("def used():\n    return 1\n"
              "def exported_only():\n    return 2\n"
              "def unlisted():\n    return 3\n")
    init = "from .m import exported_only, used\n__all__ = ['exported_only', 'used']\n"
    readers = [source, init, "from pkg import m\nprint(m.used())\n"]
    assert unread_definitions({"m.py": source}, readers) == [
        "m.py: exported_only (line 3)", "m.py: unlisted (line 5)"]


def test_scan_reads_a_module_level_name_only_off_its_module():
    # d.get reads a dict method, not m.get; the import of spare is never
    # read; the shadowed that is called comes from another module
    source = ("def get():\n    return 1\n"
              "def fetch():\n    return 2\n"
              "def run():\n    return 3\n"
              "def load():\n    return 4\n"
              "def spare():\n    return 5\n"
              "def helper():\n    return 6\n"
              "def main():\n    return helper()\n"
              "def shadowed():\n    return 7\n")
    readers = [source,
               "d = {}\nprint(d.get('k'))\n",
               "from pkg import m\nprint(m.fetch())\n",
               "import pkg.m\nprint(pkg.m.run())\n",
               "from .m import load, spare as s\nprint(load())\n",
               "import m as mod\nmod.main()\n",
               "from other import shadowed\nshadowed()\n"]
    assert unread_definitions({"m.py": source}, readers) == [
        "m.py: get (line 1)", "m.py: spare (line 9)", "m.py: shadowed (line 15)"]


def test_scan_finds_planted_unread_options():
    def reads_both(args):
        return args.curve, args.bound

    def reads_one(opts):
        return opts.curve

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for name, func in (("both", reads_both), ("one", reads_one)):
        p = sub.add_parser(name)
        p.add_argument("curve")
        p.add_argument("--bound", type=int)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
    assert unread_options(parser, {"json"}) == ["one: bound"]


def test_scan_finds_a_planted_foreign_exception():
    module = types.ModuleType("m")
    exec("from json import JSONDecodeError\n"
         "class Base(Exception): pass\n"
         "class Limit(Base): pass\n"
         "class Deeper(Limit, KeyError): pass\n"
         "class Stray(ValueError): pass\n"
         "class NotAnError: pass\n", vars(module))
    assert foreign_exceptions([module], module.Base) == ["m.Stray"]


def test_scan_finds_planted_repeated_runs():
    # f and g share four statements after different docstrings, one run
    # each; h repeats only two of them, and k renames a variable
    body = "    a = 1\n    b = a + 1\n    c = b * 2\n    d = c - 1\n"
    first = ('def f():\n    """f."""\n' + body + "    return d\n"
             "def h():\n    a = 1\n    b = a + 1\n    return b\n")
    second = ("x = 0\n\n\n"
              'def g():\n    """g,\n    at length."""\n    print()\n' + body +
              "def k():\n    a = 1\n    b = a + 1\n    e = b * 2\n")
    assert repeated_runs({"m.py": first, "n.py": second}) == [
        "m.py:3-6", "n.py:8-11"]


def test_package_has_modules_to_scan():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert unread_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_no_test_module_imports_another():
    # shared oracles and helpers live in conftest.py
    tests = {path.stem for path in TESTS if path.stem.startswith("test_")}
    assert [f"{path.name}: {name}" for path in TESTS
            for name in sorted(imported_modules(path.read_text()) & tests)] == []


def test_no_run_of_statements_is_repeated():
    assert repeated_runs({path.name: path.read_text() for path in MODULES}) == []


def test_every_option_is_set_somewhere():
    modules = {path.name: path.read_text() for path in MODULES}
    assert unset_defaults(modules, [p.read_text() for p in PROGRAM]) == []


def test_every_definition_is_read_somewhere():
    modules = {path.name: path.read_text() for path in MODULES}
    assert unread_definitions(modules, [p.read_text() for p in PROGRAM]) == []


def test_every_subcommand_reads_its_options():
    # _emit reads --json for every handler
    assert unread_options(cli.build_parser(), attribute_reads(cli._emit)) == []


def test_every_exception_derives_from_the_package_error():
    modules = [importlib.import_module(f"modpcurves.{path.stem}") for path in MODULES]
    assert foreign_exceptions(modules, arith.Error) == []
