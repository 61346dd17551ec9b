"""Every imported name is used in the module that imports it.

A plain ast walk over the package modules (the package __init__, which
re-exports, is exempt), the tests and the demos.  A name counts as used when
it appears as a bare name anywhere in the module, including as the base of
an attribute chain or inside an annotation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checked_files() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "homogenize").glob("*.py"))
               if p.name != "__init__.py"]
    return package + sorted((ROOT / "tests").glob("*.py")) \
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
