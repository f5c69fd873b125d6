"""No public name, method or parameter default in the package that only
the tests use.

Three checks over ``src/moelab``, each against the program files of
``src/`` and ``perfbench/``:

* every public top-level function or class is referred to outside its own
  definition: a use of the name through an import of it, through its
  module, inside its own module, or in a ``"moelab.<module>:<name>"``
  trace-hook target;
* every public method of a public class is referred to as an attribute
  (``x.<method>``, or a ``"moelab.<module>:<Class>.<method>"`` hook
  target) outside its own definition;
* every defaulted parameter of a public function or method is passed by
  some call outside its own definition: by keyword, by position, or
  through a ``*`` or ``**`` splat.  A function call is resolved through
  imports like a name reference; a method call ``x.<method>(...)`` counts
  for every public method of that name, with ``x`` bound to the first
  parameter.  The fields of a public dataclass that have a plain default
  (not a ``field(...)``) count as parameters of its constructor, except
  in a ``config.Record`` subclass, whose fields are config keys.

A name, method or option the tests alone use is surface the package keeps
working for no program; either something wires it or it goes.  ALLOWED
lists the exceptions, each with its reason, as ``module.name``,
``module.Class.method``, ``module.function.parameter``,
``module.Class.method.parameter`` or ``module.Class.field``; an allowed
name covers the methods and parameters it defines.  An entry must name
something the scan reports, so one that is no longer needed fails too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moelab"

ALLOWED = {
    "metrics.MetricAccumulator.merge":
        "the eval-sharding test of ROADMAP item 4 merges shard accumulators",
    "trainer.evaluate.batch_size":
        "the batch-invariance test of ROADMAP item 4 varies the eval batch",
    "trainer.evaluate.fewshot_shots":
        "ROADMAP item 6 wires the few-shot probe into run",
}

HOOK_TARGET = re.compile(r"moelab\.(\w+):(\w+)(?:\.(\w+))?")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _walk(node, scope=()):
    """(node, the definitions enclosing it) for node and all below it."""
    yield node, scope
    if isinstance(node, DEFINITION):
        scope = scope + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, scope)


def _resolve(expr, binds, own_module):
    """The (module, name) a function expression names, or None."""
    if isinstance(expr, ast.Name):
        target = binds.get(expr.id)
        if target is not None:
            return target if target[1] is not None else None
        return None if own_module is None else (own_module, expr.id)
    if isinstance(expr, ast.Attribute):
        base = expr.value
        if isinstance(base, ast.Name) and base.id in binds \
                and binds[base.id][1] is None:
            return binds[base.id][0], expr.attr
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "moelab"):
            return base.attr, expr.attr
    return None


class Uses:
    """What the program files refer to and call, each with its scope."""

    def __init__(self, sources):
        self.names = []    # ((module, name), scope)
        self.attrs = []    # (attribute name, scope)
        self.calls = []    # ((module, name) or None, ast.Call, scope)
        for module, tree in sources:
            binds = _bindings(tree)
            for node, scope in _walk(tree):
                self._add(node, scope, binds, module)

    def _add(self, node, scope, binds, module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            target = _resolve(node, binds, module)
            if target is not None:
                self.names.append((target, scope))
        elif isinstance(node, ast.Attribute):
            self.attrs.append((node.attr, scope))
            target = _resolve(node, binds, module)
            if target is not None:
                self.names.append((target, scope))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for mod, name, method in HOOK_TARGET.findall(node.value):
                self.names.append(((mod, name), scope))
                if method:
                    self.attrs.append((method, scope))
        elif isinstance(node, ast.Call):
            self.calls.append((_resolve(node.func, binds, module), node,
                               scope))


def _sources():
    """(own module, or None for perfbench, and parsed tree) per file."""
    out = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
           for path in sorted(PACKAGE.glob("*.py"))]
    out += [(None, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return out


def _public_definitions(sources):
    """(module, public top-level function or class node) pairs."""
    for module, tree in sources:
        if module is None:
            continue
        for node in tree.body:
            if isinstance(node, DEFINITION) and not node.name.startswith("_"):
                yield module, node


def _public_methods(sources):
    """(module, class node, public method node) triples."""
    for module, cls in _public_definitions(sources):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not node.name.startswith("_"):
                    yield module, cls, node


def _defaulted(fn):
    """(position or None for keyword-only, name) of every parameter with a
    default; positions count the bound first parameter of a method."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _passes(call: ast.Call, position, name, bound: int) -> bool:
    """Whether call passes the parameter at position (None: keyword-only)
    called name; bound parameters are filled before the call's own."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    slot = position - bound
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) and i <= slot:
            return True
    return 0 <= slot < len(call.args)


def _called_name(expr):
    """The last name of a Name or Attribute expression, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    return expr.attr if isinstance(expr, ast.Attribute) else None


def _plain_fields(cls):
    """(position, name) of every field of a dataclass that has a plain
    default, or [] for a class that is not a dataclass or is a config
    Record."""
    decorators = [_called_name(d.func if isinstance(d, ast.Call) else d)
                  for d in cls.decorator_list]
    if "dataclass" not in decorators or \
            "Record" in [_called_name(b) for b in cls.bases]:
        return []
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
              and isinstance(n.target, ast.Name)]
    return [(i, f.target.id) for i, f in enumerate(fields)
            if f.value is not None
            and not (isinstance(f.value, ast.Call)
                     and _called_name(f.value.func) == "field")]


def _callables(sources):
    """(qualified name, definition node, how calls are matched, bound
    parameters, defaulted parameters) for every public function, method
    and dataclass constructor: ("name", (module, name)) for a top-level
    function or class, ("attr", method name) for a method."""
    for module, node in _public_definitions(sources):
        defaulted = _plain_fields(node) if isinstance(node, ast.ClassDef) \
            else _defaulted(node)
        yield (f"{module}.{node.name}", node, ("name", (module, node.name)),
               0, defaulted)
    for module, cls, fn in _public_methods(sources):
        yield (f"{module}.{cls.name}.{fn.name}", fn, ("attr", fn.name), 1,
               _defaulted(fn))


def _unpassed_defaults(sources, uses):
    out = []
    for qualname, node, (kind, key), bound, defaulted in _callables(sources):
        calls = []
        for target, call, scope in uses.calls:
            if node in scope:
                continue
            if kind == "name" and target == key:
                calls.append(call)
            elif kind == "attr" and isinstance(call.func, ast.Attribute) \
                    and call.func.attr == key:
                calls.append(call)
        for position, name in defaulted:
            if not any(_passes(c, position, name, bound) for c in calls):
                out.append(f"{qualname}.{name}")
    return out


def _unused(sources):
    """Every public name, method and defaulted parameter no program file
    uses, as the qualified names ALLOWED takes."""
    uses = Uses(sources)
    unused = []
    for module, node in _public_definitions(sources):
        if not any(target == (module, node.name) and node not in scope
                   for target, scope in uses.names):
            unused.append(f"{module}.{node.name}")
    for module, cls, fn in _public_methods(sources):
        if not any(attr == fn.name and fn not in scope
                   for attr, scope in uses.attrs):
            unused.append(f"{module}.{cls.name}.{fn.name}")
    return unused + _unpassed_defaults(sources, uses)


def _covers(entry, name) -> bool:
    """Whether an ALLOWED entry covers name: it is name or defines it (the
    parameters of an allowed function are allowed too)."""
    return name == entry or name.startswith(entry + ".")


def test_every_public_name_has_a_caller():
    unused = [name for name in _unused(_sources())
              if not any(_covers(a, name) for a in ALLOWED)]
    assert not unused, (
        "public names, methods or parameter defaults no program file uses; "
        f"delete them or add them to ALLOWED with a reason: {unused}")


def test_allowlist_names_exist():
    unused = _unused(_sources())
    stale = sorted(a for a in ALLOWED
                   if not any(_covers(a, name) for name in unused))
    assert not stale, ("ALLOWED entries that name nothing the scan reports "
                       f"unused; delete them: {stale}")
