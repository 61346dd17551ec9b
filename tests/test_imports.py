"""Every imported name is used, and every public library name has a caller.

A plain ast walk over the package modules (the package __init__, which
re-exports, is exempt), the tests and the demos.  A name counts as used when
it appears as a bare name anywhere in the module, including as the base of
an attribute chain or inside an annotation.

The second check asks the same of the package's public module-level
functions and classes, and of the public methods of those classes, with the
callers restricted to the package itself, the demos and the bench: a name
that only tests read is library surface without a caller.  A method counts
as used when its name appears as an attribute in some caller.

The third check asks the same callers to read every field of the package's
dataclasses: a field that is only ever written is state without a reader.

The fourth asks the test modules to call every public name of
tests/oracles.py, the reference oracles that the package is checked against.

The fifth keeps artifact encoding in the command line: no other package
module imports json, csv, io or hashlib.

The sixth keeps each module's private names its own: a package module
imports another's _private name only if PRIVATE_IMPORTS lists it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names that only tests read.  Reference oracles live in
# tests/oracles.py; apply_generator stays in the package because
# bench/tracing.py wraps it by name.
TEST_ORACLES = {"apply_generator"}


def _package_files() -> list[Path]:
    return [p for p in sorted((ROOT / "src" / "homogenize").glob("*.py"))
            if p.name != "__init__.py"]


def _checked_files() -> list[Path]:
    return _package_files() + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of source and never used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_is_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\n"
              "x: np.ndarray = parse('[]')\n")
    assert unused_imports(source) == ["line 4: dumps", "line 2: os"]


def test_no_unused_imports():
    files = _checked_files()
    assert any(p.parent.name == "demos" for p in files)
    offenders = [f"{p.relative_to(ROOT)} {entry}" for p in files
                 for entry in unused_imports(p.read_text())]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def unused_public_names(package: dict[str, str], callers: list[str]) -> list[str]:
    """Public top-level defs and classes, and public methods, never used in callers.

    package maps a module name to its source; a top-level name is used when
    some caller source holds it as a bare name or as an attribute, a method
    (listed as Class.method) when some caller holds it as an attribute.
    """
    names, attrs = set(), set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, funcs + (ast.ClassDef,)) or node.name.startswith("_"):
                continue
            if node.name not in names | attrs:
                out.append(f"{module}: {node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}: {node.name}.{m.name}" for m in node.body
                        if isinstance(m, funcs) and not m.name.startswith("_")
                        and m.name not in attrs]
    return out


def test_unused_public_name_is_detected():
    package = {"mod": "def used():\n    pass\n\n\ndef planted():\n    pass\n\n\n"
                      "def _private():\n    pass\n\n\nclass Kept:\n"
                      "    def called(self):\n        pass\n\n"
                      "    def unused(self):\n        pass\n\n"
                      "    def _helper(self):\n        pass\n"}
    callers = [package["mod"], "import mod\nmod.used()\nx: Kept\nx.called()\n"
               "unused = 1\n"]
    assert unused_public_names(package, callers) == ["mod: planted", "mod: Kept.unused"]


def _package_and_callers() -> tuple[dict[str, str], list[str]]:
    """The package's module sources, and every non-test caller's source."""
    package = {p.stem: p.read_text() for p in _package_files()}
    callers = list(package.values()) + [
        p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))
        + sorted((ROOT / "bench").glob("*.py"))]
    return package, callers


def test_public_names_have_non_test_callers():
    package, callers = _package_and_callers()
    flagged = {entry.split(": ")[1]: entry
               for entry in unused_public_names(package, callers)}
    offenders = [entry for name, entry in flagged.items() if name not in TEST_ORACLES]
    assert not offenders, "public names without a caller:\n" + "\n".join(offenders)
    # an oracle that gains a caller leaves the exemption list
    assert set(flagged) == TEST_ORACLES


def _oracles_and_callers() -> tuple[str, list[str]]:
    """The source of tests/oracles.py, and every test module's source."""
    tests = ROOT / "tests"
    return (tests / "oracles.py").read_text(), [
        p.read_text() for p in sorted(tests.glob("test_*.py"))]


def test_unused_oracle_is_detected():
    source, callers = _oracles_and_callers()
    # the name only appears in strings here, so no test module calls it
    extended = source + "\n\ndef orphan(fld):\n    return fld\n"
    assert unused_public_names({"oracles": extended}, callers) == ["oracles: orphan"]


def test_oracles_have_test_callers():
    source, callers = _oracles_and_callers()
    assert unused_public_names({"oracles": source}, callers) == []


def _name(node: ast.AST):
    """The name a Name or an Attribute ends in, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _wholly_read(tree: ast.AST) -> set[str]:
    """Classes passed to asdict or fields in tree, by name or as self or cls."""
    out = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call) and _name(node.func) in ("asdict", "fields") \
                and node.args and isinstance(node.args[0], ast.Name):
            arg = node.args[0].id
            out.add(cls if arg in ("self", "cls") else arg)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def unread_dataclass_fields(package: dict[str, str], callers: list[str]) -> list[str]:
    """Fields of the package's dataclasses that no caller reads, as Class.field.

    A field is read when some caller loads it as an attribute, or passes its
    class to asdict or fields, which read every field.
    """
    loaded, whole = set(), set()
    for source in callers:
        tree = ast.parse(source)
        loaded |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)}
        whole |= _wholly_read(tree)
    out = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef) or node.name in whole:
                continue
            if "dataclass" not in {_name(getattr(dec, "func", dec))
                                   for dec in node.decorator_list}:
                continue
            out += [f"{module}: {node.name}.{item.target.id}" for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id not in loaded]
    return out


def test_unread_dataclass_field_is_detected():
    package = {"mod": "from dataclasses import asdict, dataclass, fields\n\n\n"
                      "@dataclass\nclass Record:\n    used: int\n    planted: int\n\n\n"
                      "@dataclass(frozen=True)\nclass Whole:\n    a: int\n\n"
                      "    def to_json(self):\n        return asdict(self)\n\n\n"
                      "@dataclass\nclass Named:\n    b: int\n\n\n"
                      "class Plain:\n    c: int\n"}
    callers = [package["mod"], "import mod\nrec = mod.Record(1, 2)\nrec.used\n"
               "rec.planted = 3\nmod.fields(Named)\n"]
    assert unread_dataclass_fields(package, callers) == ["mod: Record.planted"]


def test_dataclass_fields_are_read_outside_tests():
    assert unread_dataclass_fields(*_package_and_callers()) == []


SERIALIZERS = {"json", "csv", "io", "hashlib"}


def serializer_imports(package: dict[str, str]) -> list[str]:
    """Imports of SERIALIZERS by package modules other than cli, as module: name."""
    out = []
    for module, source in package.items():
        if module == "cli":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [f"{module}: {name}" for name in names
                    if name.split(".")[0] in SERIALIZERS]
    return out


def _all_package_sources() -> dict[str, str]:
    init = ROOT / "src" / "homogenize" / "__init__.py"
    return {p.stem: p.read_text() for p in _package_files() + [init]}


def test_serializer_import_is_detected():
    package = _all_package_sources()
    package["planted"] = ("import os, io\nimport numpy as np\n"
                          "from json import dumps\nfrom .cli import main\n")
    assert serializer_imports(package) == ["planted: io", "planted: json"]


def test_only_cli_imports_serializers():
    package = _all_package_sources()
    assert "cli" in package and "__init__" in package
    assert serializer_imports(package) == []


# The _private names one package module may import from another, as
# module.name: the solver's preconditioner for the surface-tension descent,
# its eigenvalue guard for the spectral route, and the walker's standard
# error for the spectral Monte Carlo moment.
PRIVATE_IMPORTS = {"solver._inverse_symbols", "solver._precondition",
                   "solver._check_resolved", "walker._mean_se"}


def private_imports(package: dict[str, str]) -> list[str]:
    """Names with one leading underscore that a package module imports from
    another module, as importer: module.name."""
    out = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module:
                origin = node.module.removeprefix("homogenize.")
                out += [f"{module}: {origin}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")
                        and not alias.name.startswith("__")]
    return out


def test_private_import_is_detected():
    planted = ("from __future__ import annotations\nfrom . import __version__\n"
               "from .diffusivity import _energy, worst\n"
               "from homogenize.solver import _cg as cg\n")
    assert private_imports({"planted": planted}) == [
        "planted: diffusivity._energy", "planted: solver._cg"]


def test_private_imports_are_allowlisted():
    found = {entry.split(": ")[1]: entry
             for entry in private_imports(_all_package_sources())}
    offenders = [entry for name, entry in found.items() if name not in PRIVATE_IMPORTS]
    assert not offenders, "private names imported across modules:\n" + "\n".join(offenders)
    # a name no module imports any more leaves the allowlist
    assert set(found) == PRIVATE_IMPORTS
