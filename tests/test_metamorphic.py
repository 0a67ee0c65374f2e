"""Metamorphic relations over the whole pipeline: an input change whose
effect on every artifact is known exactly.

* Row order: ``ingest`` of the generated panel with its rows shuffled
  gives the same artifacts and model files as the generated run. Only
  ``dataset_summary.json`` differs, by the generate-only
  ``planted_disappeared`` and ``seed``.
* Date shift: generating the same panel 364 days later (52 weeks, so
  the weekdays stay) changes only date text. After each ``YYYY-MM-DD``
  is moved back by 364 days, every artifact equals the original.
* Coin names: renaming coins without changing their key order changes
  only the names; after they are renamed back, every artifact of the
  ingested panel equals the original.
* Dropping a coin: at the same cutoff, every other coin keeps its
  ``lifetimes.csv`` and ``flags.csv`` row.
* Doubling a column: doubling every ``volume_24h`` value (exact in
  binary floating point) doubles that column of ``dataset.csv`` and
  ``features.csv`` and its mean and scale in each model's normalizer,
  and changes nothing else: correlations are scale-free, and the
  max-scaled cluster features and mean/std-normalized classifier
  features come out bit for bit the same.
* Increasing transform: taking the square root of every ``volume_24h``
  value keeps their order and, on this panel, makes no new ties, so
  every Spearman and Kendall coefficient of the volume rows (pooled
  and in the pairwise matrix) stays bit for bit the same, as does
  every cell that does not read volume.

Each run goes through ``chainlens.cli.main`` in-process on a 20-coin
panel.
"""

import base64
import csv
import datetime as dt
import io
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from chainlens.cli import main
from chainlens.synthetic import SyntheticSpec

CONFIG = {"seed": 3, "generate": {"n_coins": 20, "disappeared_fraction": 0.4}}
DATA_SEED = "7"
ANALYSIS = ("clean", "lifetimes", "correlate", "cluster", "classify", "flags", "report")
SHIFT = dt.timedelta(days=364)
DATE = re.compile(rb"\d{4}-\d{2}-\d{2}")
# appended to every other coin name: its CSV row prefix then exceeds the
# 64 bytes up to which save_csv formats rows in bulk
SUFFIX = b"-renamed" * 8


def write_config(directory: Path, document: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def run_pipeline(
    out: Path, document: dict, first: list[str], stages=ANALYSIS
) -> dict[str, bytes]:
    """Run ``first`` (generate or ingest), then ``stages``; every file
    the run wrote, by its path under ``out``."""
    config = write_config(out, document)
    assert main(first + ["--config", str(config), "--out", str(out)]) == 0, first
    for stage in stages:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p != config
    }


def ingest_rows(
    tmp_path: Path, header: bytes, rows: list[bytes], document=CONFIG, stages=ANALYSIS
):
    """The artifacts of ``stages`` run on ``ingest`` of a panel CSV of
    these rows."""
    panel = tmp_path / "panel.csv"
    panel.write_bytes(b"\r\n".join([header] + rows) + b"\r\n")
    return run_pipeline(tmp_path / "out", document, ["ingest", "--input", str(panel)], stages)


def assert_same_as_generated(ingested: dict, generated: dict, checked_apart=()) -> None:
    """Every artifact of an ``ingest`` run equals the generated run's,
    but for the names ``checked_apart`` and for the generate-only
    fields of ``dataset_summary.json``."""
    assert ingested.keys() == generated.keys()
    summary = json.loads(generated["dataset_summary.json"])
    del summary["planted_disappeared"], summary["seed"]
    assert json.loads(ingested["dataset_summary.json"]) == summary
    for name, data in ingested.items():
        if name != "dataset_summary.json" and name not in checked_apart:
            assert data == generated[name], name


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> dict[str, bytes]:
    out = tmp_path_factory.mktemp("generated")
    return run_pipeline(out, CONFIG, ["generate", "--seed", DATA_SEED])


def panel_lines(generated) -> tuple[bytes, list[bytes]]:
    header, *rows = generated["dataset.csv"].split(b"\r\n")[:-1]
    return header, rows


def test_shuffled_rows_give_the_same_artifacts(generated, tmp_path):
    header, rows = panel_lines(generated)
    shuffled = rows[:]
    random.Random(11).shuffle(shuffled)
    assert shuffled != rows
    assert_same_as_generated(ingest_rows(tmp_path, header, shuffled), generated)


def test_shifted_dates_change_only_date_text(generated, tmp_path):
    start = SyntheticSpec.start_day + SHIFT
    document = dict(CONFIG, generate=dict(CONFIG["generate"], start_day=start.isoformat()))
    shifted = run_pipeline(tmp_path, document, ["generate", "--seed", DATA_SEED])

    def shift_back(match):
        day = dt.date.fromisoformat(match.group().decode()) - SHIFT
        return day.isoformat().encode()

    assert shifted.keys() == generated.keys()
    assert shifted["dataset.csv"] != generated["dataset.csv"]
    for name, data in shifted.items():
        assert DATE.sub(shift_back, data) == generated[name], name


def test_renamed_coins_change_only_their_names(generated, tmp_path):
    header, rows = panel_lines(generated)
    assert all(SUFFIX not in data for data in generated.values())
    names = sorted({row.split(b",", 1)[0] for row in rows})
    # the generated names have one length, so a suffix keeps the key order
    assert len({len(name) for name in names}) == 1
    renamed = {name: name + SUFFIX for name in names[1::2]}

    def rename(row):
        name, rest = row.split(b",", 1)
        return renamed.get(name, name) + b"," + rest

    ingested = ingest_rows(tmp_path, header, [rename(row) for row in rows])
    assert SUFFIX in ingested["dataset.csv"]
    restored = {name: data.replace(SUFFIX, b"") for name, data in ingested.items()}
    assert_same_as_generated(restored, generated)


def test_dropping_a_coin_keeps_every_other_coins_rows(generated, tmp_path):
    header, rows = panel_lines(generated)
    cutoff = json.loads(generated["survival_summary.json"])["cutoff"]
    dropped = rows[0].split(b",", 1)[0]
    kept = [row for row in rows if row.split(b",", 1)[0] != dropped]
    fewer = ingest_rows(
        tmp_path, header, kept, dict(CONFIG, cutoff=cutoff), ("lifetimes", "flags")
    )
    for name in ("lifetimes.csv", "flags.csv"):
        lines = generated[name].split(b"\r\n")
        others = [line for line in lines if not line.startswith(dropped + b"_")]
        assert len(others) == len(lines) - 1
        assert fewer[name].split(b"\r\n") == others, name


def csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def test_doubled_volume_changes_only_the_volume_values(generated, tmp_path):
    header, rows = panel_lines(generated)
    at = header.split(b",").index(b"volume_24h")

    def doubled(row):
        cells = row.split(b",")
        if cells[at]:
            cells[at] = repr(2 * float(cells[at])).encode()
        return b",".join(cells)

    scaled = ingest_rows(tmp_path, header, [doubled(row) for row in rows])
    models = [name for name in generated if name.startswith("models/")]
    assert_same_as_generated(scaled, generated, ["dataset.csv", "features.csv"] + models)

    for name in ("dataset.csv", "features.csv"):
        old, new = csv_rows(generated[name]), csv_rows(scaled[name])
        j = old[0].index("volume_24h")
        assert len(new) == len(old) and new[0] == old[0]
        for was, now in zip(old[1:], new[1:]):
            assert now[:j] + now[j + 1 :] == was[:j] + was[j + 1 :], name
            assert now[j] == was[j] == "" or float(now[j]) == 2 * float(was[j]), name

    def array(blob):
        return np.frombuffer(base64.b64decode(blob["data"]), blob["dtype"])

    for name in models:
        old, new = json.loads(generated[name]), json.loads(scaled[name])
        old_norm, new_norm = old.pop("normalizer"), new.pop("normalizer")
        assert new == old, name
        factor = np.where(np.array(old["feature_names"]) == "volume_24h", 2.0, 1.0)
        for part in ("means", "scales"):
            assert np.array_equal(array(new_norm[part]), factor * array(old_norm[part])), name


def test_increasing_transform_keeps_the_rank_coefficients(generated, tmp_path):
    header, rows = panel_lines(generated)
    at = header.split(b",").index(b"volume_24h")
    values = sorted({float(row.split(b",")[at]) for row in rows if row.split(b",")[at]})
    roots = [math.sqrt(v) for v in values]
    assert all(a < b for a, b in zip(roots, roots[1:]))  # no new ties

    def rooted(row):
        cells = row.split(b",")
        if cells[at]:
            cells[at] = repr(math.sqrt(float(cells[at]))).encode()
        return b",".join(cells)

    rooted_rows = [rooted(row) for row in rows]
    transformed = ingest_rows(tmp_path, header, rooted_rows, stages=("correlate",))
    old = csv_rows(generated["correlations.csv"])
    new = csv_rows(transformed["correlations.csv"])
    assert len(new) == len(old) and new[0] == old[0]
    ranked, moved = [], set()
    for was, now in zip(old[1:], new[1:]):
        var_a, var_b, method = was[:3]
        assert now[:3] == was[:3] and now[4] == was[4]  # the same pair over the same n
        if method != "pearson" and "volume_24h" in (var_a, var_b):
            ranked.append(now[3])
            assert now == was
        elif "volume_24h" not in var_a + var_b:
            assert now == was
        elif now != was:
            moved.add((var_a, var_b, method))
    # pooled Spearman and Kendall, and volume's five matrix pairs
    assert len(ranked) == 7 and all(ranked)
    # Pearson reads the values themselves, so it does see the transform
    assert ("price", "volume_24h", "pearson") in moved
