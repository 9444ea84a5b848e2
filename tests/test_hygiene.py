"""Source hygiene: every module-level import in the package is used,
every private module-level function or class is read, and every public one
has a reader outside the unit tests: package code outside its own
definition, a name in perfbench/*.py (spans.TRACED names functions as
strings), or tests/test_acceptance.py. Every field of a dataclass or
NamedTuple in the package is read by attribute name in those same places,
and every defaulted parameter takes two values over the calls there.
Every exception class of the package is named in an except clause of
package code, and a subclass only in a try statement that also handles its
base class; no module imports scipy, and cli neither imports nor reads
frames or a certificate kernel.

__init__.py is exempt from the import check (its imports are the public
re-exports), and so is `from __future__`. An imported name counts as used
when it is read anywhere in the module outside the import statements
themselves; a private definition counts as read when its name is read
anywhere in the package outside the definition itself. And the LM solve,
minpack.least_squares, is called at one site only.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sicladder"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name


def _read_names(tree, skip=None, attributes=False):
    """Names read anywhere in tree, outside the subtree skip; with
    attributes, also the attribute names read (module.name)."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (attributes and isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
        stack.extend(c for c in ast.iter_child_nodes(node) if c is not skip)
    return out


def test_the_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    read = _read_names(tree)
    unused = [name for name in _imported_names(tree) if name not in read]
    assert not unused, f"{path.stem} imports {unused} without using them"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_private_definitions_are_read(path):
    tree = ast.parse(path.read_text())
    elsewhere = set().union(*(_read_names(ast.parse(p.read_text()))
                              for p in PACKAGE if p != path))
    unread = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in elsewhere | _read_names(tree, skip=node)]
    assert not unread, f"{path.stem} defines {unread} and never reads them"


def test_one_least_squares_call_site():
    # the fiducial searches share one LM restart loop (fiducials._lm_restarts),
    # the single place a change to the LM step has to touch
    calls = [f"{path.stem}:{node.lineno}" for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "least_squares"]
    assert len(calls) == 1, calls


def test_public_definitions_have_a_reader():
    # anything that only its own unit tests read belongs in tests/
    perfbench = " ".join(p.read_text() for p in (SRC.parents[1] / "perfbench").glob("*.py"))
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    readers = (set(re.findall(r"\w+", perfbench))
               | {a.name for node in ast.walk(acceptance)
                  if isinstance(node, ast.ImportFrom) for a in node.names}
               | _read_names(acceptance, attributes=True))
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    unread = []
    for path, tree in trees.items():
        elsewhere = set().union(*(_read_names(t, attributes=True)
                                  for p, t in trees.items() if p != path))
        unread += [f"{path.stem}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")
                   and node.name not in readers | elsewhere
                   | _read_names(tree, skip=node, attributes=True)]
    assert not unread, f"public definitions with no reader: {unread}"


# fields kept without a reader, each with the reason; an entry that gains a
# reader fails the test below until it is dropped from here
UNREAD_FIELDS = {
    # the per-restart records of the climb result (ROADMAP item 8) report it
    "SearchResult.iterations",
}


def _is_record(node):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                for d in decorators)
            or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                   for b in node.bases))


def test_record_fields_have_a_reader():
    # a field that only unit tests read is state kept for nobody
    readers = set()
    for path in [*PACKAGE, *(SRC.parents[1] / "perfbench").glob("*.py"),
                 Path(__file__).parent / "test_acceptance.py"]:
        readers |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f"{node.name}.{st.target.id}": st.target.id
              for path in MODULES for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for st in node.body
              if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)}
    assert UNREAD_FIELDS <= set(fields)
    unread = sorted(name for name, attr in fields.items() if attr not in readers)
    assert unread == sorted(UNREAD_FIELDS), f"record fields with no reader: {unread}"


# defaulted parameters kept with a single value at every call site, each
# with the reason; an entry that takes a second value fails the test below
# until it is dropped from here
SINGLE_VALUED = {
    "check_known_polynomial_35.tol": "perfbench passes it by keyword",
}


def _constants(trees):
    """repr of each module-level NAME = literal of the package, by name."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                try:
                    out[node.targets[0].id] = repr(ast.literal_eval(node.value))
                except ValueError:
                    pass
    return out


def _value(node, constants):
    """repr of a literal or of a package constant read by name (PASS_TOL,
    cli.PASS_TOL); None for anything else, which varies."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        name = getattr(node, "id", getattr(node, "attr", None))
        return constants.get(name)


def test_defaulted_parameters_take_two_values():
    # a parameter that every caller sets alike is a constant with a knob on
    # it; calls in the package, perfbench/*.py and tests/test_acceptance.py
    # count, matched by name, and an omitted argument takes its default
    trees = [ast.parse(p.read_text()) for p in MODULES]
    constants = _constants(trees)
    defaulted = {}
    for tree in trees:
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                a = fn.args
                params = [x.arg for x in a.posonlyargs + a.args]
                defaults = dict(zip(params[len(params) - len(a.defaults):], a.defaults))
                defaults.update((x.arg, v) for x, v in zip(a.kwonlyargs, a.kw_defaults)
                                if v is not None)
                if defaults:
                    defaulted[fn.name] = (params, defaults)
    values = {}
    for path in [*MODULES, *(SRC.parents[1] / "perfbench").glob("*.py"),
                 Path(__file__).parent / "test_acceptance.py"]:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in defaulted:
                continue
            params, defaults = defaulted[name]
            starred = (any(isinstance(x, ast.Starred) for x in call.args)
                       or any(k.arg is None for k in call.keywords))
            given = dict(zip(params, call.args))
            given.update((k.arg, k.value) for k in call.keywords)
            for p, default in defaults.items():
                node = given.get(p, default)
                values.setdefault(f"{name}.{p}", set()).add(
                    None if starred else _value(node, constants))
    single = {p for p, v in values.items() if len(v) == 1 and None not in v}
    exempt = set(SINGLE_VALUED)
    assert not single - exempt, \
        f"defaulted parameters with one value at every call site: {sorted(single - exempt)}"
    assert not exempt - single, f"exempt parameters that now vary: {sorted(exempt - single)}"


def _names(node):
    """Names in an except clause's type: a name, module.name or a tuple."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    return {getattr(node, "id", getattr(node, "attr", None))}


def test_exception_classes_are_caught():
    # a subclass that no except clause names tells nothing apart; its raise
    # sites raise SicladderError with the same message
    trees = [ast.parse(p.read_text()) for p in PACKAGE]
    classes = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
               for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    errors, grown = set(), {"Exception"}
    while grown != errors:   # subclasses of subclasses, to a fixed point
        errors = grown
        grown = errors | {name for name, bases in classes.items() if bases & errors}
    errors.discard("Exception")
    caught = {n for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for n in _names(node.type)}
    assert errors, "no exception class found in the package"
    assert not errors - caught, f"exception classes no except clause names: {sorted(errors - caught)}"


def test_a_caught_subclass_is_told_apart_from_its_base():
    # a subclass earns its type where one try statement handles both it and
    # its base class, so the two outcomes differ there; caught alone, it
    # does what catching the base does
    trees = {p: ast.parse(p.read_text()) for p in PACKAGE}
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    subclasses = {name: b & bases.keys() for name, b in bases.items() if b & bases.keys()}
    alone = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Try):
                handled = set().union(*(_names(h.type) for h in node.handlers if h.type))
                alone += [f"{path.stem}:{node.lineno} {name}"
                          for name in sorted(handled & subclasses.keys())
                          if not subclasses[name] & handled]
    assert subclasses, "no exception subclass found in the package"
    assert not alone, f"subclasses caught without a handler for their base: {alone}"


# frames and the certificate kernels, which ladder.certificate_rows calls
CERTIFICATE_NAMES = {"frames", "two_design_deviation", "verify_alignment",
                     "embedded_etf", "lift_fiducial", "check_tight"}


def test_the_cli_computes_no_certificate():
    # verify's rows come from ladder.certificate_rows; cli parses, writes
    # and prints, so a certificate drifting back into it fails here
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            imported |= {part for name in dotted for part in name.split(".")}
    assert not imported & CERTIFICATE_NAMES, sorted(imported & CERTIFICATE_NAMES)
    read = _read_names(tree, attributes=True) & CERTIFICATE_NAMES
    assert not read, sorted(read)


def test_no_module_imports_scipy():
    # scipy is a test dependency only: the Nelder-Mead engine is
    # optimizer._simplex and the LM solve is minpack.least_squares
    def roots(node):
        if isinstance(node, ast.Import):
            return {a.name.split(".")[0] for a in node.names}
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return {node.module.split(".")[0]}
        return set()
    importing = [p.stem for p in PACKAGE for node in ast.walk(ast.parse(p.read_text()))
                 if "scipy" in roots(node)]
    assert not importing, f"modules that import scipy: {importing}"


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize takes a third of a second or more, and no
    # search needs it: a 9 -> 63 climb runs the package's Nelder-Mead
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, sicladder.cli\n"
            "from sicladder import optimizer as opt\n"
            "print('scipy.optimize' in sys.modules)\n"
            "cfg = opt.SearchConfig(restarts=1, max_iters=50, seed=11)\n"
            "out = opt.climb(opt.default_source(9), cfg=cfg)\n"
            "print([b.n_params for b in out.branches if b.feasible][0])\n"
            "print('scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "5", "False"]
