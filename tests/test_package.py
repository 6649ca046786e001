import argparse
import pathlib
import re

import sepselect
from sepselect import cli


def test_public_names_are_sorted_unique_and_importable():
    names = sepselect.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(sepselect, name), name
    # a stale __all__ entry passes `import sepselect` and breaks only this
    namespace = {}
    exec("from sepselect import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_layout_names_every_module():
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "sepselect"
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^\s+(\w+\.py)\s", block, flags=re.M))
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py"}
    assert listed == modules


def test_readme_names_every_command_line_flag():
    # a flag missing from the README is one that only --help documents
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    } - {"-h", "--help"}
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert flags - set(re.findall(r"--[a-z][a-z-]*", readme)) == set()
