"""Package-wide properties: the public names and the version, the README's
library example runs, only the tabular module touches the record arrays and
the cell table, every private function is called in the package, neither the
package nor its scripts hold an assertion, and every Dataset is built through
its constructor."""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import subscan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(subscan.__file__).resolve().parent


PUBLIC_NAMES = {
    "BootstrapConfig", "ContractError", "Dataset", "DegenerateDataError",
    "EffectMeasures", "GreedyResult", "LoadError", "RelevanceConfig",
    "RelevanceEntry", "ScanConfig", "ScanResult", "Schema", "ScorePanel",
    "SubscanError", "SubsetDescriptor", "SubstitutionCandidate",
    "SubstitutionOutcome", "SyntheticSpec", "bernoulli_score",
    "cross_substitute_greedy", "enumerate_substitutions", "evaluate",
    "generate_synthetic", "load_csv", "null_score_distribution", "odds_ratio",
    "p_from_null_scores", "rank_feature_relevance", "scan",
    "single_substitution_sweep", "write_csv",
}


def test_public_names_are_pinned():
    """The package's surface is the names ``__init__.py`` imports; submodules
    and underscore names are not part of it."""
    names = {
        name for name, value in vars(subscan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_version_is_stated_once():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    versions = re.findall(r'^version = "(.*)"$', pyproject, flags=re.MULTILINE)
    assert versions == [subscan.__version__]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md#library", "exec"), namespace)
    assert namespace["result"].panel.score > 0
    assert namespace["ranking"]


def test_only_tabular_reads_record_arrays():
    """Every stage sees the data through tabular's counting functions, so a
    new record layout (such as another cell table) is a change to tabular.py
    alone."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tabular.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("rows", "outcomes", "cells"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_every_private_function_is_called_in_the_package():
    """A function or method of the package that is not one of its public
    names is referenced by name somewhere in the package outside its own body,
    so no helper lives on for tests alone: test oracles belong in tests/."""
    defs, loads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.name, node))
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                loads.append((name, path.name, node.lineno))

    def referenced_elsewhere(module: str, fn: ast.FunctionDef) -> bool:
        return any(
            name == fn.name and not (where == module and fn.lineno <= line <= fn.end_lineno)
            for name, where, line in loads
        )

    unused = [
        f"{module}:{fn.lineno} {fn.name}" for module, fn in defs
        if fn.name not in PUBLIC_NAMES and not re.fullmatch(r"__\w+__", fn.name)
        and not referenced_elsewhere(module, fn)
    ]
    assert unused == []


def test_package_holds_no_assertion():
    """The package and its scripts state a broken contract with their own errors
    and exit codes, as the CLI does with a one-line message and exit 2: an
    ``assert`` vanishes under ``python -O`` and an ``AssertionError`` ends in a
    traceback. Audits of the search, such as the ascent check, live in
    tests/oracles.py."""
    offenders = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Name) and node.id == "AssertionError":
                offenders.append(f"{path.name}:{node.lineno} AssertionError")
    assert offenders == []


def test_datasets_are_built_only_by_tabular():
    """A Dataset is made only by ``Dataset(schema, rows, outcomes)``, whose
    checks no caller can skip, and only in tabular.py: a bootstrap replicate is
    a vector of per-cell positives, not a second dataset."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                offenders.append(f"{path.name}:{node.lineno} object.__new__")
            if path.name != "tabular.py" and isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "Dataset":
                    offenders.append(f"{path.name}:{node.lineno} Dataset(...)")
    assert offenders == []
