"""No public name in the package that only the tests use.

Every public top-level function or class of a ``src/moelab`` module must be
referred to from ``src/`` or ``perfbench/`` outside its own definition.  A
name the tests alone call is surface the package keeps working for no
program; either something wires it or it goes.  The check parses the
sources with ``ast`` and resolves imports, so a reference is a use of the
name through an import of it, through its module, inside its own module,
or in a ``"moelab.<module>:<name>"`` trace-hook target.  ALLOWED lists the
exceptions, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moelab"

ALLOWED = {
    ("cli", "main"): "entry point of the moelab console script",
    ("gradcheck", "finite_difference_check"):
        "the reference the gradient tests compare the tape against",
    ("layers", "BeMoeView"):
        "the reference the batch-ensemble equivalence tests compare against",
}

HOOK_TARGET = re.compile(r"moelab\.(\w+):(\w+)")


def _module_of(node: ast.ImportFrom):
    """Package module an import statement names, "" for the package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "moelab":
        return ""
    if node.module and node.module.startswith("moelab."):
        return node.module[len("moelab."):]
    return None


def _bindings(tree) -> dict:
    """Local name -> (module, name) for a package name, (module, None)
    for a package module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _module_of(node)
            if mod is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = (alias.name, None) if mod == "" \
                    else (mod, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("moelab."):
                    out[alias.asname] = (alias.name[len("moelab."):], None)
    return out


def _references(tree, own_module) -> list:
    """For each top-level statement of a source file, the (module, name)
    pairs of package names it refers to."""
    binds = _bindings(tree)
    out = []
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = binds.get(node.id)
                if target is not None and target[1] is not None:
                    refs.add(target)
                if own_module is not None:
                    refs.add((own_module, node.id))
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name) and base.id in binds \
                        and binds[base.id][1] is None:
                    refs.add((binds[base.id][0], node.attr))
                elif (isinstance(base, ast.Attribute)
                      and isinstance(base.value, ast.Name)
                      and base.value.id == "moelab"):
                    refs.add((base.attr, node.attr))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                refs.update(HOOK_TARGET.findall(node.value))
        out.append((stmt, refs))
    return out


def _sources():
    """(own module, or None for perfbench, and parsed tree) per file."""
    out = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
           for path in sorted(PACKAGE.glob("*.py"))]
    out += [(None, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return out


def _public_definitions(sources):
    for module, tree in sources:
        if module is None:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield module, node


def test_every_public_name_has_a_caller():
    sources = _sources()
    statements = [pair for module, tree in sources
                  for pair in _references(tree, module)]
    unused = []
    for module, node in _public_definitions(sources):
        if (module, node.name) in ALLOWED:
            continue
        if not any((module, node.name) in refs
                   for stmt, refs in statements if stmt is not node):
            unused.append(f"moelab.{module}.{node.name}")
    assert not unused, ("public names no program file uses; delete them or "
                        f"add them to ALLOWED with a reason: {unused}")


def test_allowlist_names_exist():
    defined = {(module, node.name)
               for module, node in _public_definitions(_sources())}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
