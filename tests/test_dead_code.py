"""No library code that only tests call: every definition in the package
is loaded by name somewhere else in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import magarr

# Kept on purpose: the package version.
ALLOWED = {"__version__"}


def _loads(*nodes):
    """(bare names, attribute names) read anywhere under the nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
    return names, attrs


def _units(tree):
    """(qualified name or None, bare name, loads) per top-level statement;
    a class is split into its header and its own statements.  Dunder
    methods are called implicitly, so they define nothing here."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.name, _loads(*node.decorator_list, *node.bases)
            for item in node.body:
                name = getattr(item, "name", "")
                if (isinstance(item, ast.FunctionDef)
                        and not (name.startswith("__") and name.endswith("__"))):
                    yield f"{node.name}.{name}", name, _loads(item)
                else:
                    yield None, None, _loads(item)
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _loads(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            name = names[0] if len(names) == 1 else None
            yield name, name, _loads(node.value) if node.value else _loads()
        else:
            yield None, None, _loads(node)


def _definitions_and_loads():
    src = Path(magarr.__file__).parent
    defined = {}  # qualified name -> (module file, bare name, unit index)
    unit_loads = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qual, bare, loads in _units(tree):
            if qual is not None:
                defined[qual] = (path.name, bare, len(unit_loads))
            unit_loads.append(loads)
    return defined, unit_loads


def test_every_definition_is_used_inside_the_package():
    defined, unit_loads = _definitions_and_loads()
    dead = []
    for qual, (fname, bare, own) in sorted(defined.items()):
        # a load inside the definition itself (recursion) does not count,
        # and a method or property is used only when loaded as an attribute
        method = "." in qual
        used = any(bare in attrs or (bare in names and not method)
                   for i, (names, attrs) in enumerate(unit_loads) if i != own)
        if not used and qual not in ALLOWED:
            dead.append(f"{fname}: {qual}")
    assert not dead, "defined but never loaded in src/magarr: " + ", ".join(dead)


def test_allowlist_names_exist():
    defined, _ = _definitions_and_loads()
    assert ALLOWED <= set(defined)


# ---------------------------------------------------------------------------
# parameter defaults that every call in the package overrides, defaulted
# parameters that no call in the package gives, and parameters that every
# call fills with one constant


def _modules():
    """(module name, parsed tree) per module of the package."""
    for path in sorted(Path(magarr.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _trees():
    """Each module of the package, parsed."""
    for _, tree in _modules():
        yield tree


def _functions(tree):
    """(qualified name, implicit leading arguments, def) per function; an
    ``__init__`` is qualified by its class's name, which calls it, and
    other dunders are never called by name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, 0, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield node.name, 1, item
                elif not item.name.startswith("__"):
                    yield (f"{node.name}.{item.name}", 0 if static else 1,
                           item)


def _imports(tree):
    """{local name: (module, name)} for each ``from .x import f``, and
    {local name: (module, None)} for each ``from . import x``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = ((node.module, alias.name) if node.module
                              else (alias.name, None))
    return out


def _package():
    """(functions, imports, module-level names) of the package:
    {(module, qualified name): (implicit leading arguments, def)},
    {module: its ``_imports``} and {module: the names it assigns}."""
    functions, imports, assigned = {}, {}, {}
    for module, tree in _modules():
        for qual, implicit, fn in _functions(tree):
            functions[module, qual] = (implicit, fn)
        imports[module] = _imports(tree)
        assigned[module] = {
            t.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign)
                      else [node.target])
            if isinstance(t, ast.Name)}
    return functions, imports, assigned


def _origin(module, name, imports):
    """(module, name) where a name that ``module`` reads is defined,
    following ``from .x import f`` chains."""
    while name in imports.get(module, {}):
        source, imported = imports[module][name]
        if imported is None:
            return source, None
        module, name = source, imported
    return module, name


def _calls(functions, imports):
    """{(module, qualified name): [(caller module, call)]} over the calls
    in the package, for the functions and imports of ``_package``.

    A bare ``f(...)`` goes to the caller's own f, or to the f of its
    ``from .x import f``; ``mod.f(...)`` goes through ``from . import
    mod``; any other ``obj.m(...)`` goes to every method named m."""
    methods = {}
    for module, qual in functions:
        if "." in qual:
            methods.setdefault(qual.split(".")[-1], []).append((module, qual))
    calls = {key: [] for key in functions}
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                targets = [_origin(module, func.id, imports)]
            elif isinstance(func, ast.Attribute):
                owner = (_origin(module, func.value.id, imports)
                         if isinstance(func.value, ast.Name) else None)
                if owner is not None and owner[1] is None:
                    targets = [(owner[0], func.attr)]
                else:
                    targets = methods.get(func.attr, [])
            else:
                targets = []
            for key in targets:
                if key in calls:
                    calls[key].append((module, node))
    return calls


def _parameters(implicit, fn):
    """(position, name, has a default) per parameter a call can give;
    position is None for a keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[implicit:], implicit):
        yield i - implicit, a.arg, i >= first_default
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        yield None, a.arg, d is not None


def _passes(call, position, name):
    """Whether the call gives the parameter at ``position`` (None for a
    keyword-only one) named ``name``; a call with *args or **kwargs is
    taken to give every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def _defaults():
    """(module.function(parameter), [whether each call in the package
    gives it]) per parameter with a default."""
    functions, imports, _ = _package()
    calls = _calls(functions, imports)
    for key, (implicit, fn) in sorted(functions.items()):
        for position, name, defaulted in _parameters(implicit, fn):
            if defaulted:
                yield (f"{key[0]}.{key[1]}({name})",
                       [_passes(c, position, name) for _, c in calls[key]])


def _dead_defaults():
    """Each default in the package that no call in the package leaves
    out: a default only tests use is dead."""
    return sorted(param for param, passed in _defaults() if all(passed))


def test_every_default_is_left_out_by_some_call():
    dead = _dead_defaults()
    assert not dead, ("defaults that every call in the package overrides: "
                      + ", ".join(dead))


# Kept on purpose: the console script and ``python -m magarr.cli`` call
# main() bare, and the benchmark harness passes argv.
UNPASSED_ALLOWED = {"cli.main(argv)"}


def _unpassed_parameters():
    """Each defaulted parameter that no call in the package gives: a
    knob only tests turn."""
    return sorted(param for param, passed in _defaults()
                  if not any(passed) and param not in UNPASSED_ALLOWED)


def test_every_defaulted_parameter_is_given_by_some_call():
    unpassed = _unpassed_parameters()
    assert not unpassed, ("parameters that no call in the package gives: "
                          + ", ".join(unpassed))


def test_unpassed_allowlist_names_exist():
    assert UNPASSED_ALLOWED <= {param for param, _ in _defaults()}


def _argument(call, position, name):
    """The expression a call gives the parameter, or None when it gives
    none or its *args or **kwargs hide which."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if position is not None and position < len(call.args):
        return call.args[position]
    return None


def _constant_parameters():
    """Each parameter that every call in the package, one at least, fills
    with the same module-level UPPER_CASE constant: the function can read
    the constant itself."""
    functions, imports, assigned = _package()
    calls = _calls(functions, imports)
    found = []
    for key, (implicit, fn) in sorted(functions.items()):
        if not calls[key]:
            continue
        for position, name, _ in _parameters(implicit, fn):
            constants = set()
            for module, call in calls[key]:
                arg = _argument(call, position, name)
                if not (isinstance(arg, ast.Name) and arg.id.isupper()):
                    constants.add(None)
                    continue
                origin = _origin(module, arg.id, imports)
                known = origin[1] in assigned.get(origin[0], ())
                constants.add(origin if known else None)
            if len(constants) == 1 and None not in constants:
                found.append(f"{key[0]}.{key[1]}({name})")
    return found


def test_no_parameter_is_always_given_one_constant():
    constant = _constant_parameters()
    assert not constant, ("parameters that every call in the package fills "
                          "with one constant: " + ", ".join(constant))


# ---------------------------------------------------------------------------
# parameters that their function never reads


def _unread_parameters():
    """Each parameter, of a function in the package that is not a
    dunder, that no load in the function's body reads."""
    unread = []
    for tree in _trees():
        for fn in ast.walk(tree):
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            names, _ = _loads(*fn.body)
            unread += [f"{fn.name}({a.arg})" for a in params
                       if a.arg not in names]
    return sorted(unread)


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert not unread, ("parameters that their function never reads: "
                        + ", ".join(unread))


# ---------------------------------------------------------------------------
# dataclass fields that nothing reads

# Kept on purpose: the benchmark's homology.chain_dims counter reads it.
FIELDS_ALLOWED = {"HomologyResult.chain_dims"}


def _classes():
    return [c for tree in _trees() for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)]


def _fields(cls):
    """The annotated names in a class body: a dataclass's fields."""
    return [item.target.id for item in cls.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", "")
               == "dataclass" for d in cls.decorator_list)


def _class_attributes(cls):
    """Names a class gives its instances: fields, methods and the
    attributes its methods set on self."""
    names = set(_fields(cls))
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
            names.update(
                t.attr for t in ast.walk(item) if isinstance(t, ast.Attribute)
                and isinstance(t.ctx, ast.Store)
                and isinstance(t.value, ast.Name) and t.value.id == "self")
    return names


def _unread_fields():
    """Each field of a dataclass in the package that no attribute load
    reads.  A load ``x.name`` of a name that several classes define is
    credited to the classes that variable ``x`` is seen with elsewhere,
    through a name only that class defines; a load on anything else
    credits every class defining the name."""
    classes = _classes()
    loads = [(n.value.id if isinstance(n.value, ast.Name) else None, n.attr)
             for tree in _trees() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    owners = {}  # attribute name -> the classes defining it
    for cls in classes:
        for name in _class_attributes(cls):
            owners.setdefault(name, set()).add(cls.name)
    seen_with = {}  # variable -> classes it reads a name of their own from
    for var, attr in loads:
        if var is not None and len(owners.get(attr, ())) == 1:
            seen_with.setdefault(var, set()).update(owners[attr])
    read = set()
    for var, attr in loads:
        known = owners.get(attr, set()) & seen_with.get(var, set())
        read |= {(cls, attr) for cls in known or owners.get(attr, ())}
    return sorted(f"{c.name}.{f}" for c in classes if _is_dataclass(c)
                  for f in _fields(c) if (c.name, f) not in read)


def test_every_dataclass_field_is_read():
    unread = [f for f in _unread_fields() if f not in FIELDS_ALLOWED]
    assert not unread, ("dataclass fields never read in src/magarr: "
                        + ", ".join(unread))


def test_field_allowlist_names_exist():
    assert FIELDS_ALLOWED <= {f"{c.name}.{f}" for c in _classes()
                              if _is_dataclass(c) for f in _fields(c)}
