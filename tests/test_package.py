"""The package as a whole: its sources and the names it keeps public."""

import ast
import importlib
import pathlib
import re

import endecascan

ROOT = pathlib.Path(__file__).parents[1]


def test_every_source_parses_with_the_oldest_supported_grammar():
    # pyproject.toml's requires-python is ">=3.10"
    sources = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=(3, 10))


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` +\|", section, re.M)
    modules = [p.stem for p in (ROOT / "src" / "endecascan").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)
    assert len(listed) == len(set(listed))


def public_names():
    """(module, dotted name) for every name the README's "Public names"
    section lists, one bullet per module."""
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    for bullet in re.findall(r"^- `([\w.]+)`: (.*(?:\n  .*)*)", section, re.M):
        module, names = bullet
        yield module, re.findall(r"`([\w.]+)`", names)


def test_readme_public_names_resolve():
    listed = dict(public_names())
    assert sorted(listed["endecascan"]) == sorted(endecascan.__all__)
    assert len(listed) > 1
    for module, names in listed.items():
        for name in names:
            obj = importlib.import_module(module)
            for part in name.split("."):
                obj = getattr(obj, part)
