"""Every name a module under ``src/`` imports or a function assigns is
used.

The lint CI runs selects only syntax-level rules, so nothing else flags
an import that lost its last use or a local that is assigned and never
read.  This check parses each module and fails on an imported name that
no expression, annotation (string annotations included) or ``__all__``
entry of the module mentions.  Package ``__init__.py`` files are exempt:
re-exporting is what they are for.  It also fails on a function-local
name that a plain assignment binds and nothing in the function (nested
functions included) reads or deletes; names starting with ``_`` are
exempt.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _bound_name(alias: ast.alias) -> str:
    """The name an import binds (``import a.b`` binds ``a``)."""
    if alias.asname:
        return alias.asname
    return alias.name.split(".")[0]


def _annotation_names(node) -> set:
    """Names inside a string annotation, parsed as an expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            expr = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return set()


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            names |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
            }
    return names


def unused_imports(path: Path):
    """``(line, name)`` of every imported name a module never uses."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, _bound_name(a)) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            imported += [(node.lineno, _bound_name(a)) for a in node.names
                         if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None:
                    used |= _annotation_names(arg.annotation)
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [(line, name) for line, name in imported if name not in used]


def _own_scope(fn):
    """The nodes of a function's body, nested scopes' bodies excluded."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(path: Path):
    """``(line, function, name)`` of every function-local name a plain
    assignment binds and the function never reads."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Load, ast.Del)):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        for node in _own_scope(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            found += [(node.lineno, fn.name, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id not in read
                      and not t.id.startswith("_")]
    return sorted(found)


def test_src_has_no_unused_imports():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and (hits := unused_imports(path))
    }
    assert offenders == {}


def test_the_import_scan_sees_every_binding(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, List, Optional\n"
        "from dataclasses import dataclass, field\n"
        "from a import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: Dict[str, int]) -> 'List[int]':\n"
        "    import json\n"
        "    return np.zeros(1)\n"
        "@dataclass\n"
        "class C:\n"
        "    y: int = 0\n"
    )
    assert unused_imports(probe) == [
        (2, "os"), (4, "Optional"), (5, "field"), (9, "json"),
    ]


def test_src_has_no_unused_locals():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if (hits := unused_locals(path))
    }
    assert offenders == {}


def test_the_local_scan_sees_assigned_but_unread_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(xs):\n"
        "    total = 0\n"
        "    count = len(xs)\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    first, rest = xs[0], xs[1:]\n"
        "    spare: int = 3\n"
        "    _ignored = 4\n"
        "    seen = set()\n"
        "    gone = 6\n"
        "    del gone\n"
        "    def g():\n"
        "        unused_inner = 5\n"
        "        return seen\n"
        "    return total, g\n"
    )
    assert unused_locals(probe) == [
        (3, "f", "count"), (7, "f", "spare"), (13, "g", "unused_inner"),
    ]
