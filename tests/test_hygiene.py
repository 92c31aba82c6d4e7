"""Dead-name gate: every name `src/snf` defines at top level, and every
method of its classes, is read somewhere in `src/`, `tests/` or
`perfbench/`; and every name a `src/snf` module imports is read in that
module.

A name is read by a `Name` load, an attribute access or an import.
Dunder names (`__all__`, `__init__`, ...) are exempt: the interpreter reads
them.  So are `from __future__` imports and the names a module re-exports
in its `__all__`.

Import gate: no `src/snf` module imports scipy when it is imported itself.
scipy is imported inside the one function that calls it.

File gate: no `src/snf` module but `cli` calls `open`.  The command line
reads and writes the files it is given; every other module takes and
returns text.

Privacy gate: no `src/snf` module imports, or reads as a module attribute,
an underscore name of another `src/snf` module.  A name another module
needs is public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snf"


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _assigned(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned(elt)


def _definitions(tree):
    """(kind, name) of each top-level function, class and assignment, and
    of each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield "function", node.name
        elif isinstance(node, ast.ClassDef):
            yield "class", node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "method", f"{node.name}.{item.name}"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _assigned(target):
                    yield "assignment", name
        elif isinstance(node, ast.AnnAssign):
            yield from (("assignment", name) for name in _assigned(node.target))


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_defined_name_is_read():
    read = set()
    for _path, tree in _trees("src", "tests", "perfbench"):
        read.update(_reads(tree))
    dead = []
    for path, tree in _trees("src/snf"):
        for kind, qualname in _definitions(tree):
            name = qualname.rpartition(".")[2]
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in read:
                dead.append(f"{path.relative_to(PACKAGE)}: {kind} {qualname}")
    assert not dead, "defined but never read:\n" + "\n".join(dead)


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0]
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def test_every_imported_name_is_read():
    unread = []
    for path, tree in _trees("src/snf"):
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        loaded.update(_exported(tree))
        unread.extend(f"{path.relative_to(PACKAGE)}: import {name}"
                      for name in _imported(tree) if name not in loaded)
    assert not unread, "imported but never read:\n" + "\n".join(unread)


def _runs_at_import(nodes):
    """The statements a module runs when it is imported: its own, and those
    nested in its classes and compound statements, but none in a function."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _runs_at_import(getattr(node, field, []))


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module]
    else:
        return False
    return any(name.partition(".")[0] == "scipy" for name in names)


def test_no_module_imports_scipy_at_import_time():
    # scipy.signal alone takes most of a second and ~70 MiB to import, and
    # only path sampling needs it
    eager = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path, tree in _trees("src/snf")
             for node in _runs_at_import(tree.body) if _imports_scipy(node)]
    assert not eager, "scipy imported at module level:\n" + "\n".join(eager)


def _utf8(call):
    return any(kw.arg == "encoding" and isinstance(kw.value, ast.Constant)
               and kw.value.value == "utf-8" for kw in call.keywords)


def test_only_the_command_line_opens_files():
    # and it reads and writes UTF-8 text whatever the locale's codec
    opens = [(path, node) for path, tree in _trees("src/snf") for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id == "open"
                  or isinstance(node.func, ast.Attribute) and node.func.attr == "open")]
    opened = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
              for path, node in opens if path.name != "cli.py"]
    assert not opened, "open called outside snf.cli:\n" + "\n".join(opened)
    codec = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path, node in opens if not _utf8(node)]
    assert not codec, "open without encoding=\"utf-8\":\n" + "\n".join(codec)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree):
    """(line, name) of each underscore name of another snf module that the
    module imports, or reads off a name bound to an snf module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            own = node.level or (node.module or "").partition(".")[0] == "snf"
            if not own:
                continue
            for alias in node.names:
                if node.module is None or node.module == "snf":
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("snf."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    private = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path, tree in _trees("src/snf") for line, name in _private_reads(tree)]
    assert not private, "private names read across modules:\n" + "\n".join(private)
