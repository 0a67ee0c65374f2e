"""Dataset model: keys, CSV round-trip, day truncation, duplicates."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.dataset import (
    CoinSnapshot,
    Dataset,
    coin_key,
    load_csv,
    parse_day,
    save_csv,
    split_coin_key,
)
from chainlens.errors import (
    DataQualityWarning,
    DuplicateCoinDayError,
    MalformedRowError,
)


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


class TestSnapshotValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            snap(price=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            snap(volume_24h=float("nan"))

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

    def test_series_and_keys(self):
        ds = Dataset.build(
            [
                snap("Bitcoin_BTC", "2021-01-01"),
                snap("Bitcoin_BTC", "2021-01-03"),
                snap("Ether_ETH", "2021-01-02"),
            ]
        )
        assert ds.keys == ("Bitcoin_BTC", "Ether_ETH")
        assert [s.date.day for s in ds.series("Bitcoin_BTC")] == [1, 3]
        assert ds.date_range == (dt.date(2021, 1, 1), dt.date(2021, 1, 3))

    def test_snapshot_at_orders_by_key(self):
        ds = Dataset.build(
            [
                snap("Ether_ETH", "2021-01-01"),
                snap("Bitcoin_BTC", "2021-01-01"),
                snap("Bitcoin_BTC", "2021-01-02"),
            ]
        )
        day = ds.snapshot_at(dt.date(2021, 1, 1))
        assert [s.key for s in day] == ["Bitcoin_BTC", "Ether_ETH"]

    def test_column_uses_nan_for_absent(self):
        ds = Dataset.build([snap(price=3.5), snap(day="2021-01-02")])
        col = ds.column("price")
        assert col[0] == 3.5 and np.isnan(col[1])


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
        btc = ds.series("Bitcoin_BTC")
        assert btc[0].price == 29374.15
        assert btc[1].total_supply is None
        assert ds.series("Dogecoin_DOGE")[0].max_supply is None

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

    def test_schema_mapping_renames_headers(self, tmp_path):
        path = tmp_path / "alt.csv"
        path.write_text(
            CSV_TEXT.replace("volume_24h", "vol"), encoding="utf-8"
        )
        ds = load_csv(path, schema={"volume_24h": "vol"})
        assert ds.series("Bitcoin_BTC")[0].volume_24h == 40000000000.0

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_TEXT.replace("0.004681", "n/a"), encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            load_csv(path)
        assert "line 4" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_TEXT + "Extra,X,2021-01-01,1,2\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

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
