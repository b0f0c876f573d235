"""Checks on the package source itself."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import psl2kit

SOURCE_DIR = Path(psl2kit.__file__).parent


def _nodes():
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; invariants raise named exceptions
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_resolve():
    # a name dropped from the package must leave __all__ with it
    assert len(psl2kit.__all__) == len(set(psl2kit.__all__))
    missing = [name for name in psl2kit.__all__ if not hasattr(psl2kit, name)]
    assert missing == []


def test_no_raise_assertion_error_in_package():
    # a bare AssertionError escapes cli.INVARIANT_ERRORS as a traceback
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and raises_assertion_error(node)
    ]
    assert found == []


def test_every_package_exception_is_raised():
    # an exception class that nothing raises is dead API that callers still catch
    defined = set()
    for info in pkgutil.iter_modules(psl2kit.__path__):
        module = importlib.import_module(f"psl2kit.{info.name}")
        defined.update(
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        )
    raised = set()
    for _, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    assert defined
    assert sorted(defined - raised) == []


def test_size_caps_live_in_fields():
    # one table of caps: module-level MAX_* and *_CAP names, and exception
    # classes named for a cap or for being too large, are defined in fields.py
    caps, cap_errors = set(), set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                caps.update(
                    path.name
                    for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"MAX_\w+|\w+_CAP", t.id)
                )
            elif isinstance(node, ast.ClassDef) and re.search(r"Cap|TooLarge", node.name):
                cap_errors.add(path.name)
    assert caps == cap_errors == {"fields.py"}


def test_no_cap_parameters_or_attributes():
    # a cap taken as a parameter or stored on an object is a second source
    # for it: outside fields.py no parameter or assigned attribute is named
    # *_cap or max_*
    def named_cap(name):
        return re.fullmatch(r"\w+_cap|max_\w+", name, re.IGNORECASE)

    found = []
    for name, node in _nodes():
        if name == "fields.py":
            continue
        if isinstance(node, ast.arguments):
            params = [*node.posonlyargs, *node.args, *node.kwonlyargs, node.vararg, node.kwarg]
            found += [f"{name}:{a.lineno} {a.arg}" for a in params if a and named_cap(a.arg)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                f"{name}:{t.lineno} {t.attr}"
                for t in targets
                if isinstance(t, ast.Attribute) and named_cap(t.attr)
            ]
    assert found == []


def test_one_home_for_the_chain_base():
    # groups.py alone decides where a chain's base starts: no other module
    # passes base_prefix, and no code reads the levels of a chain but its own
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Call) and name != "groups.py":
            if any(kw.arg == "base_prefix" for kw in node.keywords):
                found.append(f"{name}:{node.lineno} base_prefix")
        elif isinstance(node, ast.Attribute) and node.attr == "_levels":
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{name}:{node.lineno} _levels")
    assert found == []
