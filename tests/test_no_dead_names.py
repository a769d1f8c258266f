"""Every function, class and module-level constant the package defines is used somewhere,
every parameter is read, and every import is read, in the tests and the benchmark too.

A name that occurs only at its own definition, across the package, its tests
and the benchmark, is dead code: delete it, or use it.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meshcontact"


def defined_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:  # module-level assignments, including tuple unpacking
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_defined_name_is_used():
    words = collections.Counter()
    for top in ("src", "tests", "meshbench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    dead = sorted(
        f"{path.name}:{name}"
        for path in PACKAGE.glob("*.py")
        for name in defined_names(path)
        if words[name] < 2 and not (name.startswith("__") and name.endswith("__"))
    )
    assert not dead, f"defined but never used: {dead}"


def unused_imports(path):
    """Names an import binds in the module at `path` that no expression there reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read


def test_every_import_is_used():
    # The tests and the benchmark too: an import that outlives its last use there is dead.
    paths = [path for top in (PACKAGE, ROOT / "tests", ROOT / "meshbench")
             for path in top.glob("*.py")]
    unused = sorted(
        f"{path.relative_to(ROOT)}:{name}" for path in paths for name in unused_imports(path)
    )
    assert not unused, f"imported but never used: {unused}"


def unread_parameters(path):
    """`function(parameter)` for each parameter of a module-level function or method at
    `path` that its body never reads; `self`, `cls` and nested closures are skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for fn in (node for body in scopes for node in body if isinstance(node, ast.FunctionDef)):
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from (f"{path.stem}.{fn.name}({p})" for p in params
                    if p not in read and p not in ("self", "cls"))


def test_every_parameter_is_read():
    unread = sorted(u for path in PACKAGE.glob("*.py") for u in unread_parameters(path))
    # tokenize's config is unread, but meshbench/wiring.py, meshbench/test_meshbench.py and
    # model.tokenize_image pass it positionally; it goes with the benchmark revision
    # (ROADMAP item 7).
    assert unread == ["backbone.tokenize(config)"], f"parameters never read: {unread}"
