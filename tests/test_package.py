import pathlib
import re

import sepselect


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
