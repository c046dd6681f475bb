"""The package's import layering: domain -> reward -> estimators -> the rest."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cflearn"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported(node: ast.AST) -> list[str]:
    """Module names an import statement binds, package-relative ones as ``cflearn.x``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module:
        return [f"cflearn.{node.module}"]
    return [f"cflearn.{alias.name}" for alias in node.names]


def module_imports(path: Path) -> set[str]:
    nodes = ast.walk(ast.parse(path.read_text()))
    return {name for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom)) for name in imported(node)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    found = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found |= {(path.stem, func.name, name) for name in imported(node)}
    assert found == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_type_checking_guard(path):
    assert "TYPE_CHECKING" not in path.read_text()


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("reward", "cflearn.estimators"),
        ("estimators", "cflearn.gradients"),
        ("simulator", "cflearn.estimators"),
        ("domain", "cflearn.estimators"),
    ],
)
def test_lower_layer_does_not_import_a_higher_one(module, forbidden):
    assert forbidden not in module_imports(PACKAGE / f"{module}.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_json_goes_through_serialize_alone(path):
    imports = module_imports(path)
    assert not imports & {"json", "pickle", "multiprocessing"}
    assert ("orjson" in imports) == (path.stem == "serialize")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_yaml_goes_through_serialize_alone(path):
    assert ("yaml" in module_imports(path)) == (path.stem == "serialize")


def test_serialize_builds_no_row_objects():
    """The log reader parses records straight into a log's columns, so it names neither row class."""
    tree = ast.parse((PACKAGE / "serialize.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"Instance", "LoggedTuple"}


def test_import_cflearn_loads_no_codec():
    """The codecs load with the CLI's input boundary, so the library's start-up does not pay for them."""
    code = "import sys, cflearn; print(sorted({'orjson', 'yaml'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
