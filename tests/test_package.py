import argparse
import pathlib
import re

import sepselect
from sepselect import cli, tsne


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


def test_readme_states_every_tsne_schedule_constant():
    # the fixed settings are not options, so the README is their only
    # documentation outside the source
    def number(name):
        # 1e-07 is written 1e-7
        return f"{getattr(tsne, name):g}".replace("e-0", "e-")

    phrases = {
        "_OUTPUT_DIM": "{} output dimensions",
        "_GAIN_STEP": "(+{} where the gradient's sign opposes",
        "_GAIN_DECAY": "x{} otherwise",
        "_MIN_GAIN": "floor {})",
        "_EARLY_EXAGGERATION": "early exaggeration {} for the first",
        "_EXAGGERATION_ITERS": "for the first {} iterations",
        "_MOMENTUM_INITIAL": "momentum {} then",
        "_MOMENTUM_FINAL": "then {} from iteration",
        "_MOMENTUM_SWITCH_ITER": "from iteration {}, bisection",
        "_PERPLEXITY_TOL": "bisection tolerance {} in perplexity",
        "_BISECT_MAX_ITER": "at most {} bisection steps",
        "_STEP_TOL": "moved no coordinate by more than {} of the largest",
    }
    constants = {name for name in vars(tsne) if re.fullmatch(r"_[A-Z_]+", name)}
    assert constants == set(phrases)
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(readme.split("Fixed t-SNE settings", 1)[1].split("\n\n")[0].split())
    for name, phrase in phrases.items():
        assert phrase.format(number(name)) in paragraph, name
    stop = f"from iteration {number('_MOMENTUM_SWITCH_ITER')} on, every 10th step is checked"
    assert stop in paragraph


def test_readme_states_every_exit_code():
    # each code and the words its stderr message starts with
    meanings = {
        "EXIT_OK": "success",
        "EXIT_USAGE": "usage error",
        "EXIT_DATA": "data error",
        "EXIT_NUMERIC": "numerical failure",
        "EXIT_RESOURCE": "resource error",
    }
    assert {name for name in vars(cli) if name.startswith("EXIT_")} == set(meanings)
    assert len({getattr(cli, name) for name in meanings}) == len(meanings)
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    for text in (readme, cli.__doc__):
        line = " ".join(text.split("Exit codes:", 1)[1].split("\n\n")[0].split())
        for name, meaning in meanings.items():
            assert f"{getattr(cli, name)} {meaning}" in line, name


def test_readme_states_one_column_per_class_pair():
    # the feature space keeps each unordered class pair once, not the whole
    # C x C matrix of each feature
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert re.search(r"C\^2|C²|C\s*[x×]\s*C\b", readme) is None
    assert "(M, C(C-1)/2)" in readme


def test_only_distances_names_the_block_size():
    # every blocked loop takes its blocks from distances.row_blocks, so the
    # block rule has one owner
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "sepselect"
    naming = {p.name for p in package.glob("*.py") if "_BLOCK_BYTES" in p.read_text("utf-8")}
    assert naming == {"distances.py"}


def test_distances_sum_in_one_order():
    # every distance adds its feature columns in index order: no branch on
    # the inputs' memory layout, and no second summation order
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "sepselect"
    source = (package / "distances.py").read_text("utf-8")
    for name in ("c_contiguous", "f_contiguous", "flags"):
        assert name not in source, name
    assert re.search(r"\bdef _pairwise_sum\b", source) is None


def test_distances_have_one_writer():
    # every distance comes from distances.difference_sums: no block
    # generator in distances, and no module names the deleted generators
    # or the assembler of their blocks, so none imports them
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "sepselect"
    assert re.search(r"\byield\b", (package / "distances.py").read_text("utf-8")) is None
    for path in package.glob("*.py"):
        source = path.read_text("utf-8")
        for name in ("squared_blocks", "absolute_blocks", "_difference_blocks", "assembled"):
            assert re.search(rf"\b{name}\b", source) is None, (path.name, name)
