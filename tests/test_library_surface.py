"""Guards on the library as a whole.

No library code exists only for the tests to call: every module-level
function, class and upper-case constant defined in src/fsocdma must be
used somewhere in src/ besides its own definition, as a name, an
attribute or an import.  A public entry point that nothing in the
repository calls may be allowlisted in ENTRY_POINTS, with a one-line
reason.  And every cache has a bound.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import fsocdma

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fsocdma"

# "module.name": "why a public entry point has no caller in the repository"
ENTRY_POINTS: dict[str, str] = {}


def _definitions(tree):
    """(name, node) of every module-level function, class and upper-case constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.lstrip("_").isupper():
                    yield target.id, node


def _uses(tree):
    """(name, node) of every identifier the tree reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def unused_definitions() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _definitions(trees[path]):
            own = {id(node) for node in ast.walk(definition)}
            if not any(used == name and id(node) not in own for used, node in uses):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_definition_is_used_outside_the_tests():
    unused = set(unused_definitions())
    only_tests = sorted(unused - set(ENTRY_POINTS))
    assert not only_tests, f"defined in src/fsocdma, used by tests or nothing: {only_tests}"
    stale = sorted(set(ENTRY_POINTS) - unused)
    assert not stale, f"allowlisted but used elsewhere or gone: {stale}"


def test_every_lru_cache_is_bounded():
    # an unbounded cache grows for the life of the process
    caches = {}
    for info in pkgutil.iter_modules(fsocdma.__path__):
        module = importlib.import_module(f"fsocdma.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = fn.cache_parameters()["maxsize"]
    assert "phylink._placement_table" in caches and "cli.make_parser" in caches
    assert {name: size for name, size in caches.items() if size is None} == {}


def project_version(text: str) -> str:
    """The [project] version of a pyproject.toml's text."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        import re

        section = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        return re.search(r'^version\s*=\s*"([^"]+)"', section, re.M).group(1)
    return tomllib.loads(text)["project"]["version"]


def test_one_version():
    # the version is kept by hand in two places; every output header records it
    assert project_version((ROOT / "pyproject.toml").read_text()) == fsocdma.__version__


def test_project_version_without_tomllib(monkeypatch):
    # the Python 3.10 path reads the same version as tomllib
    import sys

    text = (ROOT / "pyproject.toml").read_text()
    want = project_version(text)
    monkeypatch.setitem(sys.modules, "tomllib", None)
    assert project_version(text) == want
