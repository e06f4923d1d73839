"""Docstring coverage of the public surface (every package and module
of repro).

Mirrors the ruff pydocstyle D1 rules enabled in pyproject.toml
(D100-D104, D106) so the check also runs where ruff is not installed:
every module, public class, and public function/method in these
packages and modules must carry a docstring.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
#: Packages (every module below them) and single modules.
PACKAGES = (
    SRC / "__init__.py", SRC / "__main__.py", SRC / "api", SRC / "apps",
    SRC / "bmc", SRC / "cluster", SRC / "expr", SRC / "hybrid", SRC / "intervals",
    SRC / "io", SRC / "logic", SRC / "lyapunov", SRC / "models",
    SRC / "monitor", SRC / "odes", SRC / "progress.py", SRC / "scenarios",
    SRC / "service", SRC / "smc", SRC / "solver", SRC / "status.py",
    SRC / "store.py", SRC / "tools",
)


def _public_surface():
    for package in PACKAGES:
        paths = sorted(package.rglob("*.py")) if package.is_dir() else [package]
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield path, None, tree

            def walk(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not child.name.startswith("_"):
                            yield path, f"{prefix}{child.name}", child
                    elif isinstance(child, ast.ClassDef):
                        if not child.name.startswith("_"):
                            yield path, f"class {prefix}{child.name}", child
                        yield from walk(child, f"{prefix}{child.name}.")

            yield from walk(tree, "")


@pytest.mark.parametrize(
    "path,name,node",
    [
        pytest.param(p, n, node, id=f"{p.parent.name}/{p.name}:{n or 'module'}")
        for p, n, node in _public_surface()
    ],
)
def test_has_docstring(path, name, node):
    label = name or "module docstring"
    assert ast.get_docstring(node), f"{path}: missing docstring for {label}"
