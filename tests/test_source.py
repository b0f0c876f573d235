"""Checks on the package source itself."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
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


def test_no_dataclasses_or_typing_imports_in_package():
    # start-up is most of a short CLI run: dataclasses pulls in inspect, ast
    # and dis, and typing costs as much again; records are named tuples
    heavy = {"dataclasses", "typing"}
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] in heavy]
    assert found == []


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips site, which may import typing itself through a .pth file
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import psl2kit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SOURCE_DIR.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


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


def test_every_permutation_is_built_from_its_images_alone():
    # a permutation is its image tuple: no call passes it a second argument,
    # such as the projective line it once carried
    calls = [
        (f"{name}:{node.lineno}", len(node.args) + len(node.keywords))
        for name, node in _nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Permutation"
    ]
    assert calls
    assert [site for site, nargs in calls if nargs != 1] == []


def test_no_command_reaches_the_sylow_scan():
    # the Sylow scan and its SylowGrowthFails stay inside groups.py: no other
    # module calls it, so cli.INVARIANT_ERRORS need not catch that error
    scan = {"sylow_subgroups", "sylow_count", "_grow_sylow", "SylowGrowthFails"}
    found = [
        f"{name}:{node.lineno} {node.attr if isinstance(node, ast.Attribute) else node.id}"
        for name, node in _nodes()
        if name != "groups.py"
        and (isinstance(node, ast.Attribute) and node.attr in scan
             or isinstance(node, ast.Name) and node.id in scan)
    ]
    assert found == []


def test_enumeration_cap_guards_matrix_builds_only():
    # PSL(2,q) on the line is a chain of generators, bounded by the degree
    # cap, and the certificate builds no group; check_psl2_cap guards only
    # where SL(2,q) is built as matrices
    def names_cap(func):
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "check_psl2_cap"

    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # each node's innermost enclosing function: walk is outer first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        found += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and names_cap(node.func)
        ]
    assert sorted(found) == ["psl2.sl2_group"]


def _psl2_function(name: str, owner: str | None = None) -> ast.FunctionDef:
    tree = ast.parse((SOURCE_DIR / "psl2.py").read_text())
    body = tree.body
    if owner is not None:
        [cls] = [node for node in body if isinstance(node, ast.ClassDef) and node.name == owner]
        body = cls.body
    [func] = [node for node in body if isinstance(node, ast.FunctionDef) and node.name == name]
    return func


def _names_in(func: ast.FunctionDef) -> set[str]:
    named = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    return named | {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}


def test_certificate_enumerates_nothing():
    # the closed-form certificate and its replay build no group, no closure
    # and no orbit, and read no set of SL(2,q) codes
    forbidden = {"mat_closure", "sl2_group", "SL2Group", "orbit", "codes"}
    for func in (_psl2_function("certify_simplicity"),
                 _psl2_function("reverify", "SimplicityCertificate")):
        assert sorted(_names_in(func) & forbidden) == [], func.name


def test_reverify_shares_no_code_with_the_path_it_checks():
    # a certificate is rechecked by its own matrix arithmetic, never by the
    # helpers, closures and caches that built it
    named = _names_in(_psl2_function("reverify", "SimplicityCertificate"))
    forbidden = {
        "class_representatives",
        "_commutator",
        "_diagonalizer",
        "_GF5_WORDS",
        "mat_closure",
        "matrix_normal_closure",
        "matrix_conjugacy_representatives",
        "_conjugation",
        "_row_map",
        "SL2Group",
        "sl2_group",
        "certify_simplicity",
    }
    assert sorted(named & forbidden) == []


def test_no_top_level_name_defined_twice():
    # a second def or class of one name silently rebinds the first
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        seen = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
                seen.add(node.name)
    assert found == []
