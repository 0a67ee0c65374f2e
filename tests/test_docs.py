"""The documented examples run as written: the package docstring's
doctest and the README's Library code block; the README's artifact
table and its paragraph on reads are the CLI's stage table, its ``api``
example names exactly the keys the block takes, every ``ds.NAME`` it
mentions is a Dataset attribute, and every capitalised name it puts in
backticks exists."""

import ast
import builtins
import doctest
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import chainlens
from chainlens.cli import COMMANDS
from chainlens.config import ConfigError, RunConfig
from chainlens.dataset import Dataset
from chainlens.rules import CLASSIFIER_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_doctest_passes():
    result = doctest.testmod(chainlens)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["summary"].disappeared_count == 39
    assert namespace["tau"] == pytest.approx(-1 / 3)


def test_readme_artifact_table_is_the_stage_table():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    documented = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            stage, *tiers = [re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:-1]]
            documented[stage[0]] = [
                {name.replace("<kind>", kind) for name in names for kind in CLASSIFIER_KINDS}
                for names in tiers
            ]
    assert documented == {
        stage: [set(names) for names in row.writes] for stage, row in COMMANDS.items()
    }


def test_readme_reads_paragraph_is_the_stage_table():
    # each sentence: stages, then the files they need, then " may " and
    # the files they read when present; `--input` stands for the panel
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    [paragraph] = [p for p in section.split("\n\n") if p.startswith("What each stage reads.")]
    documented = {}
    for sentence in re.split(r"\.\s", " ".join(paragraph.split())):
        needed, *present = [
            {"dataset.csv" if name == "--input" else name for name in re.findall(r"`([^`]+)`", part)
             if name == "--input" or "." in name}
            for part in sentence.split(" may ", 1)
        ]
        optional = present[0] if present else set()
        for stage in re.findall(r"`([^`]+)`", sentence):
            if stage in COMMANDS and (needed or optional):
                documented[stage] = [needed, optional]
    assert documented == {
        stage: [set(names) for names in row.reads]
        for stage, row in COMMANDS.items()
        if any(row.reads)  # generate reads nothing
    }


def test_readme_dataset_names_are_dataset_attributes():
    names = set(re.findall(r"`ds\.(\w+)", README.read_text(encoding="utf-8")))
    ds = Dataset.build([])  # an instance, so attributes set in __init__ count
    assert names
    assert sorted(name for name in names if not hasattr(ds, name)) == []


def test_readme_api_example_names_every_api_key():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    [example] = [doc for doc in map(json.loads, blocks) if "api" in doc]
    RunConfig(**example)  # the example is a valid config
    with pytest.raises(ConfigError) as error:
        RunConfig(api={"not_a_key": 1})
    allowed = ast.literal_eval(str(error.value).split("allowed: ", 1)[1])
    assert sorted(example["api"]) == allowed


def test_readme_type_names_resolve():
    # CamelCase names only: ALL_CAPS ones are environment variables
    names = set(re.findall(r"`([A-Z][a-z]\w*(?:\.\w+)*)`", README.read_text(encoding="utf-8")))
    modules = [builtins] + [
        importlib.import_module(f"chainlens.{info.name}")
        for info in pkgutil.iter_modules(chainlens.__path__)
    ]

    def resolves(name):
        head, *attributes = name.split(".")
        for module in modules:
            found = getattr(module, head, None)
            for attribute in attributes:
                found = getattr(found, attribute, None)
            if found is not None:
                return True
        return False

    assert names
    assert sorted(name for name in names if not resolves(name)) == []
