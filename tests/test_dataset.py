"""Dataset model: keys, CSV round-trip, day truncation, duplicates."""

import datetime as dt
import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.dataset import (
    VALUE_COLUMNS,
    ColumnParser,
    Dataset,
    coin_key,
    load_csv,
    parse_day,
    save_csv,
    split_coin_key,
)
from chainlens.errors import (
    ChainlensError,
    DataQualityWarning,
    DuplicateCoinDayError,
    MalformedRowError,
)
from oracles import CoinSnapshot


def snap(key="Bitcoin_BTC", day="2021-01-01", **kw):
    return CoinSnapshot(key=key, date=dt.date.fromisoformat(day), **kw)


class TestCoinKey:
    def test_joins_with_underscore(self):
        assert coin_key("Bitcoin", "BTC") == "Bitcoin_BTC"

    def test_trims_whitespace(self):
        assert coin_key("  Bitcoin ", " BTC\t") == "Bitcoin_BTC"

    @pytest.mark.parametrize("name,symbol", [("", "BTC"), ("Bitcoin", ""), ("  ", "BTC")])
    def test_rejects_empty_parts(self, name, symbol):
        with pytest.raises(ValueError):
            coin_key(name, symbol)

    @pytest.mark.parametrize("name,symbol", [("Wrapped_BTC", "WBTC"), ("Coin", "A_B")])
    def test_rejects_embedded_underscore(self, name, symbol):
        with pytest.raises(ValueError):
            coin_key(name, symbol)

    def test_split_inverts_join(self):
        assert split_coin_key(coin_key("USD Coin", "USDC")) == ("USD Coin", "USDC")


# offset timestamps whose UTC day falls before year 1 or after year 9999
CALENDAR_EDGE_STAMPS = ("0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00")


class TestParseDay:
    def test_plain_date(self):
        assert parse_day("2021-03-05") == dt.date(2021, 3, 5)

    def test_truncates_intraday(self):
        assert parse_day("2021-03-05T23:59:59") == dt.date(2021, 3, 5)

    def test_zulu_timestamp_converts_to_utc_day(self):
        assert parse_day("2021-03-05T23:59:59Z") == dt.date(2021, 3, 5)

    def test_offset_timestamp_converts_to_utc_day(self):
        # 23:30-02:00 is 01:30Z the next day
        assert parse_day("2021-03-05T23:30:00-02:00") == dt.date(2021, 3, 6)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_day("not-a-date")

    @pytest.mark.parametrize("text", CALENDAR_EDGE_STAMPS)
    def test_rejects_utc_day_off_the_calendar(self, text):
        with pytest.raises(ValueError, match="invalid date"):
            parse_day(text)


class TestSnapshotValidation:
    """A row's values are checked once, by the Dataset constructor."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError) as caught:
            Dataset.build([snap(price=-1.0)])
        assert str(caught.value) == (
            "Bitcoin_BTC 2021-01-01: price must be finite and >= 0, got -1.0"
        )

    def test_rejects_infinite(self):
        with pytest.raises(ValueError) as caught:
            Dataset.build([snap(), snap(day="2021-01-02", market_cap=float("inf"))])
        assert str(caught.value) == (
            "Bitcoin_BTC 2021-01-02: market_cap must be finite and >= 0, got inf"
        )

    def test_nan_reads_as_absent(self):
        ds = Dataset.build([snap(volume_24h=float("nan"), price=2.0)])
        assert ds == Dataset.build([snap(price=2.0)])
        assert ds.snapshots[0].volume_24h is None

    def test_absent_fields_default_to_none(self):
        s = snap(price=1.0)
        assert s.max_supply is None and s.market_cap is None


class TestDatasetBuild:
    def test_sorts_by_key_then_date(self):
        ds = Dataset.build(
            [
                snap("Zcash_ZEC", "2021-01-02"),
                snap("Bitcoin_BTC", "2021-01-02"),
                snap("Bitcoin_BTC", "2021-01-01"),
            ]
        )
        got = [(s.key, s.date.day) for s in ds.snapshots]
        assert got == [("Bitcoin_BTC", 1), ("Bitcoin_BTC", 2), ("Zcash_ZEC", 2)]

    def test_duplicate_coin_day_rejected(self):
        with pytest.raises(DuplicateCoinDayError) as err:
            Dataset.build([snap(price=1.0), snap(price=2.0)])
        assert "Bitcoin_BTC" in str(err.value)
        assert "2021-01-01" in str(err.value)

    def test_supply_violation_warns_and_keeps_row(self):
        with pytest.warns(DataQualityWarning):
            ds = Dataset.build(
                [snap(circulating_supply=100.0, total_supply=50.0)]
            )
        assert len(ds) == 1
        assert len(ds.quality_notes) == 1

    def test_snapshots_and_keys(self):
        ds = Dataset.build(
            [
                snap("Bitcoin_BTC", "2021-01-01"),
                snap("Bitcoin_BTC", "2021-01-03"),
                snap("Ether_ETH", "2021-01-02"),
            ]
        )
        assert ds.keys == ("Bitcoin_BTC", "Ether_ETH")
        assert [s.date.day for s in ds.snapshots[: ds.offsets[1]]] == [1, 3]
        assert ds.date_range == (dt.date(2021, 1, 1), dt.date(2021, 1, 3))

    def test_in_range_masks_the_rows_of_an_inclusive_range(self):
        ds = Dataset.build(
            [
                snap("Bitcoin_BTC", "2021-01-01"),
                snap("Bitcoin_BTC", "2021-01-03"),
                snap("Ether_ETH", "2021-01-02"),
            ]
        )
        day = dt.date(2021, 1, 2)
        assert ds.in_range(None).tolist() == [True, True, True]
        assert ds.in_range((None, None)).tolist() == [True, True, True]
        assert ds.in_range((day, None)).tolist() == [False, True, True]
        assert ds.in_range((None, day)).tolist() == [True, False, True]
        assert ds.in_range((day, day)).tolist() == [False, False, True]
        with pytest.raises(ChainlensError, match="empty date range"):
            ds.in_range((dt.date(2021, 1, 3), day))

    def test_snapshots_order_by_key_then_day(self):
        ds = Dataset.build(
            [
                snap("Ether_ETH", "2021-01-01"),
                snap("Bitcoin_BTC", "2021-01-02"),
                snap("Bitcoin_BTC", "2021-01-01"),
            ]
        )
        assert [(s.key, s.date.day) for s in ds.snapshots] == [
            ("Bitcoin_BTC", 1),
            ("Bitcoin_BTC", 2),
            ("Ether_ETH", 1),
        ]

    def test_column_uses_nan_for_absent(self):
        ds = Dataset.build([snap(price=3.5), snap(day="2021-01-02")])
        col = ds.column("price")
        assert col[0] == 3.5 and np.isnan(col[1])

    def test_resolve_cutoff(self):
        ds = Dataset.build([snap(), snap(day="2021-01-03")])
        assert ds.resolve_cutoff() == dt.date(2021, 1, 3)
        assert ds.resolve_cutoff(dt.date(2021, 1, 2)) == dt.date(2021, 1, 2)
        with pytest.raises(ChainlensError, match="precedes the dataset's first day"):
            ds.resolve_cutoff(dt.date(2020, 12, 31))

    @pytest.mark.parametrize("cutoff", [None, dt.date(2021, 1, 1)])
    def test_resolve_cutoff_of_an_empty_panel_errors(self, cutoff):
        with pytest.raises(ChainlensError, match="no rows"):
            Dataset.build([]).resolve_cutoff(cutoff)


CSV_TEXT = """\
name,symbol,date,price,max_supply,total_supply,circulating_supply,volume_24h,market_cap,num_market_pairs
Bitcoin,BTC,2021-01-01,29374.15,21000000,18600000,18590000,40000000000,546130000000,9772
Bitcoin,BTC,2021-01-02,32127.27,21000000,,18591000,67000000000,597260000000,9773
Dogecoin,DOGE,2021-01-01,0.004681,,127000000000,127000000000,75000000,594000000,402
"""


class TestCsv:
    def test_load_parses_rows_and_absent_cells(self, tmp_path):
        path = tmp_path / "coins.csv"
        path.write_text(CSV_TEXT, encoding="utf-8")
        ds = load_csv(path)
        assert len(ds) == 3
        btc, btc_next, doge = ds.snapshots
        assert btc.price == 29374.15
        assert btc_next.total_supply is None
        assert doge.key == "Dogecoin_DOGE" and doge.max_supply is None

    def test_round_trip_is_identity(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(CSV_TEXT, encoding="utf-8")
        ds = load_csv(src)
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        assert load_csv(out) == ds

    def test_integral_floats_written_as_int_text(self, tmp_path):
        ds = Dataset.build([snap(price=5.0, max_supply=21000000.0)])
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        line = out.read_text(encoding="utf-8").splitlines()[1]
        assert ",5," in line and ",21000000," in line

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,symbol,date,price\nA,B,2021-01-01,1\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            load_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            CSV_TEXT.replace("num_market_pairs", "bogus"), encoding="utf-8"
        )
        with pytest.raises(MalformedRowError):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_TEXT.replace("0.004681", "n/a"), encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            load_csv(path)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("text", CALENDAR_EDGE_STAMPS)
    def test_date_off_the_calendar_names_line(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_TEXT.replace("2021-01-01", text, 1), encoding="utf-8")
        with pytest.raises(MalformedRowError, match="line 2: invalid date"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_TEXT + "Extra,X,2021-01-01,1,2\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    # exact texts, written out here so that they do not follow the parser
    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("price", "abc", "non-numeric price: 'abc'"),
            ("price", " abc ", "non-numeric price: 'abc'"),
            ("volume_24h", "1.5.2", "non-numeric volume_24h: '1.5.2'"),
            ("market_cap", "0x10", "non-numeric market_cap: '0x10'"),
            ("price", "-1", "price must be finite and >= 0: '-1'"),
            ("total_supply", " -1 ", "total_supply must be finite and >= 0: '-1'"),
            ("price", "nan", "price must be finite and >= 0: 'nan'"),
            ("price", "inf", "price must be finite and >= 0: 'inf'"),
            ("price", "1e999", "price must be finite and >= 0: '1e999'"),
        ],
    )
    def test_bad_cell_message(self, tmp_path, column, cell, message):
        header = CSV_TEXT.splitlines()[0]
        row = dict.fromkeys(header.split(","), "")
        row.update(name="Dogecoin", symbol="DOGE", date="2021-01-01")
        row[column] = cell
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join(CSV_TEXT.splitlines()[:2] + [",".join(row.values())]) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_parse_pauses_gc_and_restores_it(self, tmp_path, monkeypatch, enabled):
        seen = []
        add = ColumnParser.add

        def spy(self, *args):
            seen.append(gc.isenabled())
            return add(self, *args)

        monkeypatch.setattr(ColumnParser, "add", spy)
        good = tmp_path / "good.csv"
        good.write_text(CSV_TEXT, encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_TEXT.replace("0.004681", "n/a"), encoding="utf-8")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert len(load_csv(good)) == 3
            assert gc.isenabled() is enabled
            with pytest.raises(MalformedRowError):
                load_csv(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

    def test_extended_columns_round_trip(self, tmp_path):
        ds = Dataset.build(
            [snap(price=1.0, total_value_locked=9.25, whales_percentage=0.4)]
        )
        out = tmp_path / "ext.csv"
        save_csv(ds, out)
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert "total_value_locked" in header
        assert load_csv(out) == ds


finite_price = st.one_of(
    st.none(),
    st.floats(min_value=0, max_value=1e12, allow_nan=False),
    st.integers(min_value=0, max_value=10**15).map(float),
)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["CoinA_A", "CoinB_B", "CoinC_C"]),
            st.integers(min_value=0, max_value=400),
            finite_price,
            finite_price,
        ),
        max_size=25,
        unique_by=lambda t: (t[0], t[1]),
    )
)
def test_property_csv_round_trip(tmp_path_factory, rows):
    base = dt.date(2020, 1, 1)
    ds = Dataset.build(
        CoinSnapshot(
            key=key,
            date=base + dt.timedelta(days=offset),
            price=price,
            volume_24h=volume,
        )
        for key, offset, price, volume in rows
    )
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    save_csv(ds, path)
    assert load_csv(path) == ds


class TestDatasetRejectsWhatLoadRejects:
    @pytest.mark.parametrize("value", [-1.5, np.inf, -np.inf], ids=repr)
    def test_value_the_loaders_reject_is_refused(self, value):
        with pytest.raises(ValueError, match=r"C_D 2021-07-30: volume_24h must be"):
            Dataset(
                ["A_B", "C_D"],
                [0, 1, 1],
                [738000, 738000, 738001],
                {"price": [1.0, 2.0, 3.0], "volume_24h": [1.0, np.nan, value]},
            )

    def test_duplicate_coin_day_is_reported_first(self):
        with pytest.raises(DuplicateCoinDayError):
            Dataset(["A_B"], [0, 0], [738000, 738000], {"price": [1.0, -1.0]})


# name and symbol text that csv must quote or that is not ASCII; no
# underscore (it joins the key) and no control characters
name_text = st.text(
    st.one_of(
        st.sampled_from([",", '"', " ", "é", "币"]),
        st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="_"),
    ),
    min_size=1,
    max_size=8,
).filter(lambda text: text.strip() == text)
edge_value = st.one_of(
    st.just(np.nan),
    st.just(-0.0),
    st.just(5e-324),
    st.just(np.finfo(np.float64).max),
    st.floats(min_value=0, max_value=np.finfo(np.float64).tiny, allow_subnormal=True),
    st.floats(min_value=0, allow_infinity=False),
    st.sampled_from([2.0**53, 2.0**63, 2.0**64, 1e22]),
)


# a panel: per coin key, the distinct days it has rows on
edge_panel = st.dictionaries(
    st.builds(coin_key, name_text, name_text),
    st.sets(st.integers(1, dt.date.max.toordinal()), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=80)
@given(edge_panel, st.data())
def test_property_save_then_load_is_identity(tmp_path_factory, panel, data):
    keys = list(panel)
    rows = [(code, day) for code, key in enumerate(keys) for day in sorted(panel[key])]
    values = {
        name: data.draw(st.lists(edge_value, min_size=len(rows), max_size=len(rows)))
        for name in ("price", "circulating_supply", "total_supply", "whales_percentage")
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        ds = Dataset(keys, [code for code, _ in rows], [day for _, day in rows], values)
        path = tmp_path_factory.mktemp("edge") / "ds.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
    assert loaded == ds
    for name in VALUE_COLUMNS:
        assert loaded.column(name).tobytes() == ds.column(name).tobytes()
