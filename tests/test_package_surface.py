"""The package exports what the scripts and the benchmark reach, and no more.

Everything else is imported from its module.  These checks read
``scripts/*.py`` and ``perfbench/*.py`` (which no test imports) so that a
later trim of ``__all__`` cannot break them silently.
"""

import ast
import importlib.util
import re
from pathlib import Path

import chasescape

ROOT = Path(__file__).resolve().parent.parent

PACKAGE_NAMES = {
    "Engine",
    "Estimator",
    "ExperimentConfig",
    "InitMode",
    "ParameterError",
    "Params",
    "ResourceLimitError",
    "complete_graph",
    "exact_distribution_W",
    "make_rng",
    "run_coupling",
    "run_experiment",
    "run_graph_to_fixation",
    "run_to_fixation",
    "stream_seed",
}


def _package_names(source: str) -> set[str]:
    """Names taken from the package: ``from chasescape import X`` and
    ``<alias>.X`` for every name bound to the package itself, including
    ``<alias>.X`` inside string literals (code run in a subprocess)."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "chasescape" and not node.level:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "chasescape":
                    aliases.add(alias.asname or "chasescape")
                elif alias.name.startswith("chasescape.") and alias.asname is None:
                    aliases.add("chasescape")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for alias in aliases:
                names.update(re.findall(rf"\b{re.escape(alias)}\.([A-Za-z_]\w*)", node.value))
    return names


def _resolves(name: str) -> bool:
    if name in chasescape.__all__ or name.startswith("__"):
        return hasattr(chasescape, name)
    return importlib.util.find_spec(f"chasescape.{name}") is not None


def test_all_is_the_fifteen_names():
    assert set(chasescape.__all__) == PACKAGE_NAMES
    assert len(chasescape.__all__) == len(PACKAGE_NAMES)


def test_scripts_and_perfbench_reach_only_the_package_surface():
    sources = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    used = {}
    for path in sources:
        for name in _package_names(path.read_text(encoding="utf-8")):
            used.setdefault(name, []).append(path.name)
    # the walker sees both kinds of use: exported names and submodules
    assert {"Params", "run_coupling", "harness", "cli"} <= set(used)
    missing = {name: files for name, files in used.items() if not _resolves(name)}
    assert not missing, f"not exported and not a submodule: {missing}"


SRC = sorted((ROOT / "src" / "chasescape").glob("*.py"))


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _loaded_names(trees):
    """Every name the trees read: a loaded name, an attribute or an import."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_private_module_name_in_src_is_used_in_src():
    # a module-level _helper or _CONSTANT that no src module reads is dead
    # code, whatever a test still reaches through it
    trees = _trees(SRC)
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    loaded = _loaded_names(trees)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert {"_fold", "_WINDOW", "_spacings"} <= private  # the walk sees both kinds
    assert not private - loaded, f"defined but never loaded in src: {sorted(private - loaded)}"


def test_every_public_function_class_and_method_in_src_is_used_outside_tests():
    # src holds only what the program runs: a public function, class or
    # method that only tests reach belongs in the tests
    defined = set()
    for tree in _trees(SRC):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    sub.name
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    public = {name for name in defined if not name.startswith("_")}
    # the walk sees functions, classes, methods and properties
    assert {"graph_block", "GraphState", "run", "total_vertices"} <= public
    users = SRC + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    unused = public - _loaded_names(_trees(users)) - set(chasescape.__all__)
    assert not unused, f"public in src but used only by tests: {sorted(unused)}"
