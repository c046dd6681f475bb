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


def attributes(path: Path) -> set[str]:
    """The attribute names a module reads or writes, as in ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}


def names(path: Path) -> set[str]:
    """Every name a module imports, reads or writes, attributes included."""
    tree = ast.parse(path.read_text())
    found = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    found |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return found | attributes(path)


def test_serialize_builds_no_row_objects():
    """The log reader parses records straight into a log's columns, so it names neither row class."""
    assert not names(PACKAGE / "serialize.py") & {"Instance", "LoggedTuple"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_true_rewards_are_gathered_in_simulator_alone(path):
    """``GroundTruth.reward_matrix`` is the one gather of true rewards, so no
    other module reads the truth's private fields."""
    assert path.stem == "simulator" or not attributes(path) & {"_matrix", "_row", "_counts"}


def test_truth_rewards_are_checked_where_a_truth_is_made():
    """``GroundTruth`` range-checks its rewards once, when made, so ``roll_log``
    runs no row checker on the rewards it gathers from a truth."""
    tree = ast.parse((PACKAGE / "simulator.py").read_text())
    roll_log = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "roll_log")
    assert "_check" not in {node.attr for node in ast.walk(roll_log) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_candidates_are_stacked_in_domain_and_simulator_alone(path):
    assert path.stem in ("domain", "simulator") or "_stack_candidates" not in names(path)


def transposed_copies(path: Path) -> list[int]:
    """The lines on which a module makes a contiguous copy of a transpose, ``np.ascontiguousarray(x.T)``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ascontiguousarray" and node.args
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "T"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_pass_layout_is_set_in_domain_alone(path):
    """The tensor pass sets the candidate-major layout of a pass, so no other
    module copies an array into its transpose's order."""
    assert path.stem == "domain" or transposed_copies(path) == []


def propensity_divisions(path: Path) -> list[int]:
    """The lines on which a module divides by a ``.propensities`` attribute, with ``/`` or ``/=``."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    divisors = [node.right for node in nodes if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)]
    divisors += [node.value for node in nodes if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)]
    return [node.lineno for node in divisors if isinstance(node, ast.Attribute) and node.attr == "propensities"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_propensities_divide_in_estimators_alone(path):
    """``estimators._rho`` is the one importance weight pi/mu, so no other
    module divides by a log's propensities."""
    assert path.stem == "estimators" or propensity_divisions(path) == []


@pytest.mark.parametrize("module", ["training", "cli"])
def test_softmaxes_come_from_a_pass_state(module):
    """Training and the CLI read a policy's softmax and a truth's rewards from
    a log's or a task's pass state, not from the stacking and softmax helpers."""
    assert not names(PACKAGE / f"{module}.py") & {"_probs", "_stack_candidates"}


def test_import_cflearn_loads_no_codec():
    """The codecs load with the CLI's input boundary, so the library's start-up does not pay for them."""
    code = "import sys, cflearn; print(sorted({'orjson', 'yaml'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_empty_log_rule_is_stated_in_domain_alone():
    """``domain._nonempty`` is the one statement of the empty-log rule, so
    every entry point that needs a tuple raises the same error."""
    assert [path.stem for path in MODULES if "log is empty" in path.read_text()] == ["domain"]


def test_the_estimated_control_rule_is_stated_in_estimators_alone():
    """``estimators.check_log`` states what a kind needs of a log, the 2
    tuples on which c_hat is estimated included."""
    assert [path.stem for path in MODULES if "at least 2 tuples" in path.read_text()] == ["estimators"]


def test_the_cli_keeps_no_copy_of_the_log_rules():
    """``train`` and ``evaluate_policy`` check each log, so ``cflearn train``
    checks each log once and only names the file."""
    assert "check_log" not in names(PACKAGE / "cli.py")


def test_grad_check_problems_run_no_row_checker():
    """``gradients.random_problem`` draws its columns in range, so it checks no input."""
    assert "_check" not in attributes(PACKAGE / "gradients.py")
