"""The CLI's panel cache: checked columns keyed by the panel CSV's bytes.

The oracle is ``load_csv`` of the same file: a cold, warm or damaged
cache entry gives the same keys, codes, days, columns (bit for bit),
quality notes and warning, and a stage gives the same output and
artifacts on a hit as on a miss.
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chainlens
from chainlens.cache import PANEL_SUFFIX, cache_dir, load_panel, read_page, write_page
from chainlens.cli import main
from chainlens.dataset import VALUE_COLUMNS, Dataset, load_csv, save_csv
from chainlens.errors import MalformedRowError
from chainlens.synthetic import SyntheticSpec, generate_synthetic

from test_cli import GOLDEN_DIGESTS, PIPELINE, snapshot_tree, write_config

# the test panel has two circulating > total rows; the stages run
# in-process warn about them, and the tests that compare the warning
# record it themselves
pytestmark = pytest.mark.filterwarnings("ignore::chainlens.errors.DataQualityWarning")

SRC = str(Path(chainlens.__file__).resolve().parents[1])
READERS = ("clean", "lifetimes", "correlate", "cluster", "classify", "flags")

SPEC = dict(
    n_coins=20,
    disappeared_fraction=0.4,
    planted_clusters=2,
    snapshot_interval_days=7,
    missing_max_supply_rate=0.1,
    price_supply_coupling=0.5,
    horizon_days=400,
    seed=7,
)


def write_panel(path: Path) -> Path:
    """A 20-coin panel with holes, extended columns, names csv must
    quote, and two rows whose circulating supply exceeds the total."""
    ds = generate_synthetic(SyntheticSpec(**SPEC))
    columns = {name: ds.column(name).copy() for name in VALUE_COLUMNS}
    columns["circulating_supply"][[3, 40]] = columns["total_supply"][[3, 40]] * 2
    keys = [key.replace("coin", 'c,"é"') for key in ds.keys]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        save_csv(Dataset(keys, ds.codes, ds.days, columns), path)
    return path


@pytest.fixture
def panel(tmp_path) -> Path:
    return write_panel(tmp_path / "panel.csv")


def entry_of(path: Path) -> Path:
    return cache_dir() / f"{hashlib.sha256(path.read_bytes()).hexdigest()}{PANEL_SUFFIX}"


def counted_parse():
    calls = []

    def parse(path):
        calls.append(path)
        return load_csv(path)

    return parse, calls


def loaded(load):
    """What ``load()`` returns and the DataQualityWarnings it issues, as
    (text, file, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataset = load()
    return dataset, [(str(w.message), w.filename, w.lineno) for w in caught]


def assert_same_panel(got, want):
    """Equal keys, codes, days and notes, and every column bit for bit."""
    (ds, notes), (oracle, oracle_notes) = got, want
    assert ds.keys == oracle.keys
    assert np.array_equal(ds.codes, oracle.codes)
    assert np.array_equal(ds.days, oracle.days)
    for name in VALUE_COLUMNS:
        assert ds.column(name).dtype == np.float64
        assert ds.column(name).tobytes() == oracle.column(name).tobytes(), name
    assert ds.quality_notes == oracle.quality_notes
    assert notes == oracle_notes


def edit_bytes(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def edit_chunk(edit):
    """Save the entry again, through the page writer, with some fields of
    its chunk replaced."""

    def damage(path):
        total_pages, chunk = read_page(path)
        write_page(path, total_pages, dataclasses.replace(chunk, **edit(chunk)))

    return damage


def with_price(change):
    def edit(chunk):
        price = chunk.columns["price"].copy()
        change(price)
        return {"columns": dict(chunk.columns, price=price)}

    return edit


def first_day(chunk):
    days = chunk.days.copy()
    days[0] = 0
    return {"days": days}


DAMAGES = {
    "truncated": edit_bytes(lambda data: data[:-5]),
    "trailing-byte": edit_bytes(lambda data: data + b"\0"),
    "bad-header": edit_bytes(lambda data: b"not json" + data),
    "wrong-dtype": edit_bytes(
        lambda data: data.replace(b"'descr': '<f8'", b"'descr': '<i8'", 1)
    ),
    "code-out-of-range": edit_chunk(
        lambda chunk: {"codes": np.where(chunk.codes == 0, len(chunk.pairs), chunk.codes)}
    ),
    "negative-value": edit_chunk(with_price(lambda price: price.__setitem__(0, -2.0))),
    "infinite-value": edit_chunk(with_price(lambda price: price.__setitem__(0, np.inf))),
    "day-off-calendar": edit_chunk(first_day),
    "pair-without-coin-key": edit_chunk(
        lambda chunk: {"pairs": (("Bit_coin", "BTC"),) + chunk.pairs[1:]}
    ),
}


class TestLoadPanel:
    def test_cold_then_warm_equal_load_csv(self, panel):
        oracle = loaded(lambda: load_csv(panel))
        assert oracle[0].quality_notes and oracle[0].has_extended_columns()
        parse, calls = counted_parse()
        assert_same_panel(loaded(lambda: load_panel(panel, parse)), oracle)
        assert len(calls) == 1
        entry = entry_of(panel)
        assert sorted(cache_dir().iterdir()) == [entry]
        assert_same_panel(loaded(lambda: load_panel(panel, parse)), oracle)
        assert len(calls) == 1

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES.keys())
    def test_damaged_entry_is_parsed_again_and_rewritten(self, panel, damage):
        oracle = loaded(lambda: load_csv(panel))
        parse, calls = counted_parse()
        load_panel(panel, parse)
        entry = entry_of(panel)
        intact = entry.read_bytes()
        damage(entry)
        assert entry.read_bytes() != intact
        assert read_page(entry) is None
        assert_same_panel(loaded(lambda: load_panel(panel, parse)), oracle)
        assert len(calls) == 2
        assert entry.read_bytes() == intact
        assert sorted(cache_dir().iterdir()) == [entry]

    def test_edited_csv_misses(self, panel):
        parse, calls = counted_parse()
        load_panel(panel, parse)
        text = panel.read_bytes()
        panel.write_bytes(text.replace(b"\r\n", b"\r\n\r\n", 2))  # a blank record
        oracle = loaded(lambda: load_csv(panel))
        assert_same_panel(loaded(lambda: load_panel(panel, parse)), oracle)
        assert len(calls) == 2
        assert len(list(cache_dir().iterdir())) == 2

    def test_csv_changed_during_the_parse_saves_no_entry(self, panel):
        def parse(path):
            dataset = load_csv(path)
            path.write_bytes(path.read_bytes() + b"\r\n")
            return dataset

        load_panel(panel, parse)
        assert not cache_dir().exists() or not list(cache_dir().iterdir())

    def test_parse_error_propagates_and_saves_nothing(self, panel):
        panel.write_bytes(panel.read_bytes() + b"A,B,2021-01-01,-1,,,,,,,,,,\r\n")
        with pytest.raises(MalformedRowError) as cold:
            load_csv(panel)
        with pytest.raises(MalformedRowError, match=re.escape(str(cold.value))):
            load_panel(panel, load_csv)
        assert not cache_dir().exists() or not list(cache_dir().iterdir())

    def test_unreadable_source_raises_what_load_csv_raises(self, tmp_path):
        with pytest.raises(IsADirectoryError) as cold:
            load_csv(tmp_path)
        with pytest.raises(IsADirectoryError, match=re.escape(str(cold.value))):
            load_panel(tmp_path, load_csv)


def stage(argv, env=None):
    """Run one CLI stage in its own process; (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "chainlens.cli"] + argv,
        env=dict(env or os.environ, PYTHONPATH=SRC),
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestStages:
    @pytest.mark.parametrize("name", READERS)
    def test_hit_and_miss_print_and_write_the_same(self, tmp_path, name):
        out = tmp_path / "out"
        out.mkdir()
        entry = entry_of(write_panel(out / "dataset.csv"))
        argv = [name, "--out", str(out), "--format", "svg", "--seed", "3"]
        miss = stage(argv)
        assert miss[0] == 0, miss[2]
        assert b"DataQualityWarning" in miss[2]
        artifacts = snapshot_tree(out)
        assert entry.is_file()
        hit = stage(argv)
        assert hit == miss
        assert snapshot_tree(out) == artifacts

    def test_malformed_csv_fails_alike_on_a_warm_cache(self, tmp_path, panel):
        out = tmp_path / "out"
        argv = ["lifetimes", "--input", str(panel), "--out", str(out)]
        assert stage(argv)[0] == 0
        warm = sorted(cache_dir().iterdir())
        assert len(warm) == 1
        panel.write_bytes(panel.read_bytes().replace(b"\r\n", b"\r\nA,B,x\r\n", 3))
        failed = stage(argv)
        assert failed[0] == 1
        assert json.loads(failed[2])["error"] == "MalformedRowError"
        cold = stage(argv, dict(os.environ, CHAINLENS_CACHE_DIR=str(tmp_path / "cold")))
        assert failed == cold
        assert sorted(cache_dir().iterdir()) == warm
        assert not (tmp_path / "cold").exists()

    @pytest.mark.parametrize("kind", ["file", "read-only"])
    def test_unusable_cache_dir_costs_only_the_entry(self, tmp_path, panel, kind):
        reference = tmp_path / "reference"
        argv = ["flags", "--input", str(panel), "--format", "json", "--out"]
        assert main(argv + [str(reference)]) == 0
        unusable = tmp_path / "unusable"
        if kind == "file":
            unusable.write_bytes(b"not a directory")
        else:
            unusable.mkdir()
            unusable.chmod(0o500)
        try:
            env = dict(os.environ, CHAINLENS_CACHE_DIR=str(unusable))
            for _ in range(2):
                out = tmp_path / "out"
                code, _, stderr = stage(argv + [str(out)], env)
                assert code == 0, stderr
                assert snapshot_tree(out) == snapshot_tree(reference)
        finally:
            unusable.chmod(0o700)
        if kind == "file":
            assert unusable.read_bytes() == b"not a directory"

    def test_default_cache_dir_is_under_home(self, tmp_path, panel, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv("CHAINLENS_CACHE_DIR")
        out = tmp_path / "out"
        out.mkdir()
        argv = ["clean", "--input", str(panel), "--out", str(out), "--format", "csv"]
        assert main(argv) == 0
        digest = hashlib.sha256(panel.read_bytes()).hexdigest()
        entries = [p for p in home.rglob("*") if p.is_file()]
        assert entries == [home / ".cache" / "chainlens" / f"{digest}{PANEL_SUFFIX}"]
        assert sorted(snapshot_tree(out)) == ["features.csv"]


class TestGoldenPipeline:
    def test_cold_and_warm_cache_match_the_golden_digests(self, tmp_path):
        golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
        for run in ("cold", "warm"):
            out = tmp_path / run
            out.mkdir()
            config = write_config(out)
            for name in PIPELINE:
                argv = [name, "--config", str(config), "--out", str(out), "--seed", "7"]
                assert main(argv) == 0, (run, name)
            digests = {
                name: hashlib.sha256(data).hexdigest()
                for name, data in snapshot_tree(out).items()
                if name != "config.json"
            }
            assert digests == golden, run
            assert [p.name for p in cache_dir().iterdir()] == [
                golden["dataset.csv"] + PANEL_SUFFIX
            ]
