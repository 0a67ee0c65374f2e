"""Columnar dataset paths against the row-by-row oracles.

Every input goes through both the columnar code (``load_csv``,
``fetch_history``'s page conversion, ``Dataset.build``, ``save_csv``)
and the original row-by-row code in ``oracles.py``. Good input must
give equal snapshots, quality notes, warnings and ``save_csv`` bytes;
bad input must raise the same exception type with the same message,
line number included. The per-coin statistics (``aggregate_stats``, of
any subset of the columns the oracle covers) and the flag masks
(``manipulability_flags``) must give, coin by coin, the original
per-coin results: the same bits, NaN where those are None.
"""

import datetime as dt
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.dataset as dataset_module
from chainlens import csvtext
from chainlens.api import _parse_rows
from chainlens.classify import manipulability_flags
from chainlens.cleaning import aggregate_stats
from chainlens.correlation import AGGREGATE_FACTORS
from chainlens.dataset import CoinSnapshot, ColumnParser, Dataset, load_csv, save_csv
from chainlens.errors import DataQualityWarning
from oracles import (
    _format_cell,
    is_tie,
    oracle_aggregate_stats,
    oracle_build,
    oracle_fetch_pages,
    oracle_load_csv,
    oracle_manipulability_flags,
    oracle_save_csv,
)

HEADER = (
    "name,symbol,date,price,max_supply,total_supply,circulating_supply,"
    "volume_24h,market_cap,num_market_pairs"
)
EXTENDED = ",total_value_locked,staking_reward,total_staking_percentage,whales_percentage"


@pytest.fixture(params=[3, None], ids=["chunks_of_3", "one_chunk"])
def chunk_rows(request, monkeypatch):
    """Run each case with tiny chunks too, so errors, blank records and
    rows that save_csv formats by themselves fall on chunk boundaries."""
    if request.param is not None:
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", request.param)
        monkeypatch.setattr(dataset_module, "_WRITE_ROWS", request.param)


def outcome(call):
    """(result, DataQualityWarning messages) or the raised exception."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # compared by type and message
            return exc, None
    notes = [str(w.message) for w in caught if w.category is DataQualityWarning]
    return result, notes


def assert_same_error(got, want):
    assert isinstance(got, Exception), f"expected {want!r}, got a result"
    assert type(got) is type(want)
    assert str(got) == str(want)


def assert_matches(dataset, dataset_warnings, oracle, oracle_warnings, tmp_path):
    snapshots, notes = oracle
    assert dataset.snapshots == snapshots
    assert dataset.quality_notes == notes
    assert dataset_warnings == oracle_warnings
    assert len(dataset) == len(snapshots)
    assert dataset.keys == tuple(dict.fromkeys(s.key for s in snapshots))
    for i, key in enumerate(dataset.keys):
        coin = dataset.snapshots[dataset.offsets[i] : dataset.offsets[i + 1]]
        assert coin == tuple(s for s in snapshots if s.key == key)
    save_csv(dataset, tmp_path / "columnar.csv")
    oracle_save_csv(snapshots, tmp_path / "oracle.csv")
    assert (tmp_path / "columnar.csv").read_bytes() == (
        tmp_path / "oracle.csv"
    ).read_bytes()


def check_csv(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    got, got_warnings = outcome(lambda: load_csv(path))
    want, want_warnings = outcome(lambda: oracle_load_csv(path))
    if isinstance(want, Exception):
        assert_same_error(got, want)
        return None
    assert not isinstance(got, Exception), got
    assert_matches(got, got_warnings, want, want_warnings, tmp_path)
    return got


def columnar_pages(pages):
    parser = ColumnParser()
    for page, rows in enumerate(pages, start=1):
        parser.append(_parse_rows(parser, rows, page))
    return parser.dataset()


def check_pages(tmp_path, pages):
    # through JSON, as the client sees them
    pages = json.loads(json.dumps(pages))
    got, got_warnings = outcome(lambda: columnar_pages(pages))
    want, want_warnings = outcome(lambda: oracle_fetch_pages(pages))
    if isinstance(want, Exception):
        assert_same_error(got, want)
        assert getattr(got, "field", None) == getattr(want, "field", None)
        return None
    assert not isinstance(got, Exception), got
    assert_matches(got, got_warnings, want, want_warnings, tmp_path)
    return got


GOOD_ROWS = [
    "Bitcoin,BTC,2021-01-01,29374.15,21000000,18600000,18590000,4e10,5.4613e11,9772",
    "Bitcoin,BTC,2021-01-02,32127.27,21000000,,18591000,67000000000,597260000000,9773",
    "Dogecoin,DOGE,2021-01-01,0.004681,,127000000000,127000000000,75000000,594000000,402",
    "Aeon,AEON,2021-01-02,0.5,,,,,,",
]


class TestCsvMatchesOracle:
    def test_plain_rows(self, tmp_path, chunk_rows):
        ds = check_csv(tmp_path, "\n".join([HEADER] + GOOD_ROWS) + "\n")
        assert len(ds) == 4

    def test_empty_cells_whitespace_and_blank_lines(self, tmp_path, chunk_rows):
        text = "\n".join(
            [
                HEADER,
                "",
                " Bitcoin , BTC , 2021-01-01 , 29374.15 ,  , 18600000 ,18590000, 1e10 ,, 9772 ",
                ",,,,,,,,,",
                "  ,\t, ,,,,,,,",
                "",
                "Ether,ETH,2021-01-01,,,,,,,",
                "   ",
                "Ether,ETH, 2021-01-03,1,2,3,3,4,5,6",
            ]
        )
        ds = check_csv(tmp_path, text + "\n")
        assert ds.keys == ("Bitcoin_BTC", "Ether_ETH")

    def test_header_only(self, tmp_path, chunk_rows):
        ds = check_csv(tmp_path, HEADER + "\n")
        assert len(ds) == 0 and ds.date_range is None

    def test_extended_columns_present(self, tmp_path, chunk_rows):
        rows = [
            GOOD_ROWS[0] + ",9.25,0.5,0.25,0.4",
            GOOD_ROWS[1] + ",,,,",
            GOOD_ROWS[2] + ",1e3,,0,",
        ]
        ds = check_csv(tmp_path, "\n".join([HEADER + EXTENDED] + rows) + "\n")
        assert ds.has_extended_columns()

    def test_extended_columns_present_but_empty(self, tmp_path, chunk_rows):
        rows = [row + ",,,," for row in GOOD_ROWS]
        ds = check_csv(tmp_path, "\n".join([HEADER + EXTENDED] + rows) + "\n")
        assert not ds.has_extended_columns()

    def test_extended_columns_in_another_order(self, tmp_path, chunk_rows):
        header = "whales_percentage,date,name,symbol," + HEADER.split(",", 3)[3]
        rows = ["0.5,2021-01-01,A,B,1,2,3,4,5,6,7", ",2021-01-02,A,B,1,2,3,4,5,6,7"]
        check_csv(tmp_path, "\n".join([header] + rows) + "\n")

    def test_intraday_and_zulu_timestamps(self, tmp_path, chunk_rows):
        rows = [
            "A,B,2021-03-05T23:59:59Z,1,,,,,,",
            "A,B,2021-03-06T23:30:00-02:00,1,,,,,,",
            "A,B,2021-03-08T08:00:00,1,,,,,,",
            "A,B, 2021-03-09 ,1,,,,,,",
        ]
        ds = check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n")
        assert [s.date.day for s in ds.snapshots] == [5, 7, 8, 9]

    def test_unsorted_rows(self, tmp_path, chunk_rows):
        rows = [GOOD_ROWS[3], GOOD_ROWS[1], GOOD_ROWS[2], GOOD_ROWS[0]]
        ds = check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n")
        assert ds.keys == ("Aeon_AEON", "Bitcoin_BTC", "Dogecoin_DOGE")

    def test_circulating_above_total_noted_once(self, tmp_path, chunk_rows):
        rows = [
            "A,B,2021-01-02,1,,50,100.5,,,",
            "A,B,2021-01-01,1,,0,3,,,",
            "C,D,2021-01-01,1,,7,7,,,",
        ]
        ds = check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n")
        assert len(ds.quality_notes) == 2

    def test_numbers_that_format_specially(self, tmp_path, chunk_rows):
        rows = [
            "A,B,2021-01-01,-0,1e22,1.5e-07,0.1,123456789012345678,2.50,1e16",
            "A,B,2021-01-02,0.0,1E+3,00012,1_000,.5,5.,0x10",
        ]
        check_csv(tmp_path, "\n".join([HEADER] + rows[:1]) + "\n")
        check_csv(tmp_path, "\n".join([HEADER] + rows[1:]) + "\n")

    def test_quoted_names_round_trip(self, tmp_path, chunk_rows):
        rows = [
            '"Coin, Inc",CI,2021-01-01,1,,,,,,',
            '"Say ""hi""",HI,2021-01-01,1,,,,,,',
            '"two\nlines",TL,2021-01-01,1,,,,,,',
        ]
        check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n")

    def test_repeated_header_column_takes_the_last_cell(self, tmp_path, chunk_rows):
        header = HEADER + ",price"
        check_csv(tmp_path, header + "\nA,B,2021-01-01,1,,,,,,,2\n")


BAD_CELLS = [
    ("price", "n/a"),
    ("price", "-1"),
    ("volume_24h", "nan"),
    ("market_cap", "inf"),
    ("market_cap", "-inf"),
    ("total_supply", "1e999"),
    ("num_market_pairs", "--3"),
    ("date", "2021-13-01"),
    ("date", "yesterday"),
    ("date", ""),
    ("date", "0001-01-01T00:00:00+01:00"),
    ("name", "Wrapped_BTC"),
    ("symbol", "A_B"),
    ("name", "  "),
    ("symbol", ""),
]


def with_cell(row: str, column: str, value: str) -> str:
    cells = row.split(",")
    cells[HEADER.split(",").index(column)] = value
    return ",".join(cells)


class TestCsvErrorsMatchOracle:
    @pytest.mark.parametrize("column,value", BAD_CELLS)
    def test_bad_cell(self, tmp_path, chunk_rows, column, value):
        rows = list(GOOD_ROWS)
        rows[2] = with_cell(rows[2], column, value)
        assert check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n") is None

    @pytest.mark.parametrize("bad_at", [0, 3])
    def test_first_bad_line_wins_across_checks(self, tmp_path, chunk_rows, bad_at):
        rows = list(GOOD_ROWS) + [GOOD_ROWS[0].replace("2021-01-01", "2021-02-01")]
        rows[bad_at] = with_cell(rows[bad_at], "price", "oops")
        rows[4] = with_cell(rows[4], "date", "never")
        rows.insert(2, "")
        rows.insert(5, "A,B,2021-01-01,1")  # wrong cell count
        assert check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n") is None

    def test_bad_date_before_bad_number_in_one_row(self, tmp_path, chunk_rows):
        row = with_cell(with_cell(GOOD_ROWS[0], "date", "x"), "price", "-5")
        assert check_csv(tmp_path, "\n".join([HEADER, row]) + "\n") is None

    def test_bad_number_before_bad_name_in_one_row(self, tmp_path, chunk_rows):
        row = with_cell(with_cell(GOOD_ROWS[0], "name", "A_B"), "max_supply", "-5")
        assert check_csv(tmp_path, "\n".join([HEADER, row]) + "\n") is None

    @pytest.mark.parametrize("extra", ["A,B,2021-01-01,1,2", GOOD_ROWS[0] + ",1"])
    def test_wrong_cell_count(self, tmp_path, chunk_rows, extra):
        rows = GOOD_ROWS[:2] + ["", extra] + GOOD_ROWS[2:]
        assert check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n") is None

    def test_duplicate_coin_day(self, tmp_path, chunk_rows):
        rows = GOOD_ROWS + [GOOD_ROWS[0].replace("Bitcoin", " Bitcoin ")]
        rows.append(GOOD_ROWS[2].replace("2021-01-01", "2021-01-01T10:00:00"))
        assert check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n") is None

    def test_bad_row_beats_duplicates(self, tmp_path, chunk_rows):
        rows = GOOD_ROWS + [GOOD_ROWS[0], with_cell(GOOD_ROWS[1], "price", "x")]
        assert check_csv(tmp_path, "\n".join([HEADER] + rows) + "\n") is None

    @pytest.mark.parametrize(
        "header",
        ["", "name,symbol,date,price\n", HEADER + ",bogus\n"],
        ids=["empty_file", "missing_columns", "unknown_column"],
    )
    def test_bad_header(self, tmp_path, header):
        assert check_csv(tmp_path, header) is None

    def test_undecodable_bytes_after_a_bad_row(self, tmp_path, chunk_rows):
        path = tmp_path / "input.csv"
        good = "\n".join([HEADER, with_cell(GOOD_ROWS[0], "price", "bad")]) + "\n"
        path.write_bytes(good.encode() + b"A,B,2021-01-05,\xff\xfe,,,,,,\n")
        got, _ = outcome(lambda: load_csv(path))
        want, _ = outcome(lambda: oracle_load_csv(path))
        assert_same_error(got, want)


def json_row(name="Bitcoin", symbol="BTC", date="2021-01-01", **values):
    row = {"name": name, "symbol": symbol, "date": date}
    for column in dataset_module.NUMERIC_COLUMNS:
        row[column] = values.pop(column, None)
    row.update(values)
    return row


class TestApiPagesMatchOracle:
    def test_ints_floats_nulls_and_numeric_strings(self, tmp_path):
        pages = [
            [
                json_row(price=29374.15, max_supply=21000000, total_supply=18587962),
                json_row(date="2021-01-02", price="32127.27", volume_24h=" 7 "),
                json_row("Wabi", "WABI", price=0, market_cap="", num_market_pairs=True),
            ],
            [
                json_row("Wabi", "WABI", "2021-01-02T12:00:00Z", price=1e-300),
                json_row("Aeon", "AEON", total_value_locked=5, whales_percentage="0.5"),
            ],
        ]
        ds = check_pages(tmp_path, pages)
        assert ds.has_extended_columns()

    def test_unsorted_pages_and_supply_notes(self, tmp_path):
        pages = [
            [json_row("Zed", "Z", circulating_supply=10, total_supply=5)],
            [json_row(date="2021-01-03"), json_row(circulating_supply=2, total_supply=1)],
        ]
        ds = check_pages(tmp_path, pages)
        assert len(ds.quality_notes) == 2

    def test_empty_pages(self, tmp_path):
        check_pages(tmp_path, [[], [json_row()], []])
        check_pages(tmp_path, [[]])

    @pytest.mark.parametrize(
        "bad",
        [
            {"price": "abc"},
            {"price": -1},
            {"price": "nan"},
            {"volume_24h": "-inf"},
            {"market_cap": 10**400},
            {"date": "2021-02-30"},
            {"date": 20210101},
            {"date": "0001-01-01T00:00:00+01:00"},
            {"name": "Wrapped_BTC"},
            {"symbol": " "},
            {"staking_reward": -0.5},
        ],
    )
    def test_bad_value(self, tmp_path, bad):
        pages = [
            [json_row()],
            [json_row(date="2021-01-05"), {**json_row(date="2021-01-06"), **bad}],
        ]
        assert check_pages(tmp_path, pages) is None

    def test_missing_row_field(self, tmp_path):
        short = json_row(date="2021-01-02")
        del short["total_supply"]
        pages = [[json_row()], [json_row(date="2021-01-03"), short, json_row(price="bad")]]
        assert check_pages(tmp_path, pages) is None

    def test_bad_value_before_missing_field(self, tmp_path):
        short = json_row(date="2021-01-02")
        del short["name"]
        pages = [[json_row(price="bad"), short]]
        assert check_pages(tmp_path, pages) is None

    @pytest.mark.parametrize("row", ["oops", ["name", "symbol"], None])
    def test_row_that_is_not_an_object(self, tmp_path, row):
        assert check_pages(tmp_path, [[json_row(), row]]) is None

    def test_duplicates_across_pages(self, tmp_path):
        pages = [[json_row()], [json_row(name=" Bitcoin")]]
        assert check_pages(tmp_path, pages) is None


class TestBuildMatchesOracle:
    def test_build_sorts_notes_and_round_trips(self, tmp_path):
        day = dt.date(2021, 1, 1)
        snaps = [
            CoinSnapshot("Z_z", day, price=5, circulating_supply=3.0, total_supply=1.0),
            CoinSnapshot("A_a", day + dt.timedelta(days=2), whales_percentage=0.25),
            CoinSnapshot("A_a", day, max_supply=1e22, volume_24h=0.1),
        ]
        got, got_warnings = outcome(lambda: Dataset.build(snaps))
        want, want_warnings = outcome(lambda: oracle_build(snaps))
        assert_matches(got, got_warnings, want, want_warnings, tmp_path)
        with pytest.warns(DataQualityWarning):
            assert load_csv(tmp_path / "columnar.csv") == got

    def test_build_duplicates(self):
        day = dt.date(2021, 1, 1)
        snaps = [CoinSnapshot("A_a", day), CoinSnapshot("B_b", day)] * 2
        got, _ = outcome(lambda: Dataset.build(snaps))
        want, _ = outcome(lambda: oracle_build(snaps))
        assert_same_error(got, want)


# cells that save_csv spells in numpy, and cells it leaves to the row
# formatter: a tie between two shortest decimals, values from 2**63 on,
# subnormals
HARD_CELLS = [
    0.5,
    1e-05,
    0.00012345678901234567,
    1.7976931348623157e308,
    12345678901234567.0,
    2.0**63 - 1024,
    742190215483.6562,
    2.0**63,
    1e300,
    5e-324,
    None,
]


class TestSaveCsvMatchesOracle:
    def test_hard_names_and_cells(self, tmp_path, chunk_rows):
        names = ["A\x00B", "Coin, Inc", 'Say "hi"', "two\r\nlines", "Ünïcødé 币"]
        names.append("x" * 70)  # a prefix too long for the word matrix
        day = dt.date(2021, 1, 1)
        snaps = [
            CoinSnapshot(
                f"{name}_S{i}\x00",
                day + dt.timedelta(days=j),
                price=HARD_CELLS[(i + j) % len(HARD_CELLS)],
                volume_24h=HARD_CELLS[(3 * i + j + 1) % len(HARD_CELLS)],
                whales_percentage=HARD_CELLS[(j + 5) % len(HARD_CELLS)],
            )
            for i, name in enumerate(names)
            for j in range(5)
        ]
        got, got_warnings = outcome(lambda: Dataset.build(snaps))
        want, want_warnings = outcome(lambda: oracle_build(snaps))
        assert_matches(got, got_warnings, want, want_warnings, tmp_path)
        assert b"A\x00B,S0\x00," in (tmp_path / "columnar.csv").read_bytes()

    def test_cell_text_matches_format_cell(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 1 << 63, size=20_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate(
            [
                bits[np.isfinite(bits)],
                rng.random(20_000) * 10.0 ** rng.integers(-9, 18, 20_000),
                rng.integers(0, 1 << 62, 2_000).astype(np.float64),
                [v if v is not None else np.nan for v in HARD_CELLS],
                [1e16, 1e-4, np.nextafter(1e-4, 0), 2.0**-1022, 0.0, -0.0, 1e-100],
            ]
        )
        words, length, left = csvtext.column_text(values)
        slots = np.stack(words, axis=1).astype("<u8").view(np.uint8)
        for value, slot, n, by_row in zip(values.tolist(), slots, length.tolist(), left):
            if by_row:  # the row formatter's: from 2**63 on, subnormal or a tie
                assert value >= 2.0**63 or 0 < value < 2.0**-1022 or is_tie(value)
            else:
                cell = None if math.isnan(value) else value
                assert slot[24 - n :].tobytes().decode() == _format_cell(cell), value


DAY0 = dt.date(2021, 1, 1)
# absent, round and arbitrary values
CELLS = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 3.0]),
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
)


def day_or_none(offset):
    return None if offset is None else DAY0 + dt.timedelta(days=offset)


@st.composite
def small_panels(draw):
    """1-4 coins of 1-5 rows on days 0-9, with holes, zero, absent or
    tiny totals (most circulating values over 1e-310 overflow) and coins
    whose every volume is zero; a date range; and a cutoff from the day
    before the first on, so it can precede some coins' first rows."""
    snapshots = []
    for coin in range(draw(st.integers(1, 4))):
        zero_volume = draw(st.booleans())
        for offset in draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)):
            snapshots.append(
                CoinSnapshot(
                    f"C{coin}_c",
                    DAY0 + dt.timedelta(days=offset),
                    price=draw(CELLS),
                    max_supply=draw(CELLS),
                    total_supply=draw(st.one_of(st.sampled_from([0.0, 1e-310]), CELLS)),
                    circulating_supply=draw(CELLS),
                    volume_24h=0.0 if zero_volume else draw(CELLS),
                )
            )
    lo = draw(st.one_of(st.none(), st.integers(0, 9)))
    hi = draw(st.one_of(st.none(), st.integers(lo or 0, 9)))
    cutoff = DAY0 + dt.timedelta(days=draw(st.integers(-1, 9)))
    with warnings.catch_warnings():  # circulating over total is only a note
        warnings.simplefilter("ignore", DataQualityWarning)
        ds = Dataset.build(snapshots)
    return ds, (day_or_none(lo), day_or_none(hi)), cutoff


class TestStatsAndFlagsMatchOracle:
    @given(
        small_panels(),
        st.lists(st.sampled_from(("price",) + AGGREGATE_FACTORS), unique=True),
    )
    @settings(deadline=None, max_examples=150)
    def test_aggregate_stats(self, panel, columns):
        ds, date_range, _ = panel
        stats = aggregate_stats(ds, columns, date_range)
        oracle = oracle_aggregate_stats(ds, date_range)
        assert list(stats) == columns
        for name, (means, stds) in stats.items():
            assert means.shape == stds.shape == (len(ds.keys),)
            for index, key in enumerate(ds.keys):
                for got, want in zip((means[index], stds[index]), oracle[key][name]):
                    if want is None:
                        assert np.isnan(got)
                    else:
                        assert float(got).hex() == want.hex()

    @given(small_panels())
    @settings(deadline=None, max_examples=150)
    def test_manipulability_flags(self, panel):
        ds, date_range, cutoff = panel
        last = ds.last_rows(cutoff)
        rows = last[last >= 0]
        volume = aggregate_stats(ds, ("volume_24h",), date_range)["volume_24h"]
        masks = manipulability_flags(ds, rows, volume)
        oracle = oracle_aggregate_stats(ds, date_range)
        alive = {s.key for s in ds.snapshots if s.date <= cutoff}
        assert ds.row_keys(rows) == sorted(alive)
        for position, row in enumerate(rows.tolist()):
            snapshot = ds.snapshots[row]
            got = {name for name, mask in masks.items() if mask[position]}
            want = oracle_manipulability_flags(snapshot, oracle[snapshot.key]["volume_24h"])
            assert got == want
