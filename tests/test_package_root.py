"""The package root's contract: it imports exactly the names that the
benchmark harness (``perfbench/``) and the tools (``tools/``) import from
``wingraph``, and each lookup kept there has one path."""

import ast
import importlib
import pkgutil
from pathlib import Path

import wingraph
from wingraph.model import SegmenterConfig, build_model
from wingraph.relation import FusionType

REPO = Path(__file__).resolve().parents[1]


def _from_imports(path: Path, level: int) -> set[tuple[str, str]]:
    """(module, name) of each ``from <module> import name`` at relative ``level`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.module, alias.asname or alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == level for alias in node.names}


def _root_names() -> set[str]:
    return {name for _, name in _from_imports(Path(wingraph.__file__), 1)}


def test_root_imports_exactly_what_the_harness_and_tools_import():
    callers = sorted((REPO / "perfbench").glob("*.py")) + sorted((REPO / "tools").glob("*.py"))
    used = {name for path in callers for module, name in _from_imports(path, 0) if module == "wingraph"}
    assert _root_names() == used
    for name in _root_names() | {"__version__"}:
        assert hasattr(wingraph, name), name


def test_train_is_the_only_root_name_that_shadows_a_submodule():
    submodules = {info.name for info in pkgutil.iter_modules(wingraph.__path__)}
    assert _root_names() & submodules == {"train"}
    assert callable(wingraph.train)
    assert importlib.import_module("wingraph.train").train is wingraph.train


def test_each_lookup_has_one_path():
    assert not hasattr(FusionType, "from_name")
    assert type(build_model(SegmenterConfig()).parameters()) is dict
