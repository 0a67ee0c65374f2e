"""History API client against the in-process mock server."""

import dataclasses
import datetime as dt
import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainlens
from chainlens.api import PAGE_SUFFIX, ApiClientConfig, fetch_history
from chainlens.cache import read_page, write_page
from chainlens.cli import main
from chainlens.dataset import load_csv
from chainlens.errors import (
    ApiError,
    AuthenticationError,
    MalformedRowError,
    RateLimitError,
    SchemaDriftError,
)
from mock_server import MockHistoryServer

FIXTURES = Path(__file__).parent / "fixtures"
PAYLOAD_DOC = json.loads((FIXTURES / "api_payload_format.json").read_text())
ROWS = PAYLOAD_DOC["example_rows"]


def config_for(server, cache_dir, **overrides):
    settings = dict(
        base_url=server.base_url,
        api_key="test-key",
        rate_limit=1000.0,
        max_attempts=4,
        backoff_seconds=0.01,
        cache_dir=cache_dir,
    )
    settings.update(overrides)
    return ApiClientConfig(**settings)


class TestFetchHistory:
    def test_two_pages_merge_into_one_series(self, tmp_path):
        rows = [r for r in ROWS if r["symbol"] == "BTC"]
        with MockHistoryServer(rows, page_size=1) as server:
            ds = fetch_history(config_for(server, tmp_path))
        assert ds.keys == ("Bitcoin_BTC",)
        assert len(ds) == 2

    def test_equals_csv_fixture_load(self, tmp_path):
        with MockHistoryServer(ROWS, page_size=2) as server:
            fetched = fetch_history(config_for(server, tmp_path))
        assert fetched == load_csv(FIXTURES / "api_equivalent.csv")

    def test_null_fields_become_absent(self, tmp_path):
        with MockHistoryServer(ROWS) as server:
            ds = fetch_history(config_for(server, tmp_path))
        aeon = [s for s in ds.snapshots if s.key == "Aeon_AEON"]
        assert aeon[1].price is None
        assert aeon[1].market_cap is None
        wabi = [s for s in ds.snapshots if s.key == "Wabi_WABI"]
        assert wabi and all(s.max_supply is None for s in wabi)

    def test_date_range_forwarded_as_params(self, tmp_path):
        window = (dt.date(2021, 1, 1), dt.date(2021, 1, 2))
        with MockHistoryServer(ROWS) as server:
            ds = fetch_history(config_for(server, tmp_path, date_range=window))
        assert ds.date_range == window


class TestRetryPolicy:
    def test_429_twice_then_success(self, tmp_path):
        with MockHistoryServer(ROWS[:2], fail_429=2) as server:
            ds = fetch_history(config_for(server, tmp_path))
            assert server.request_count == 3
        assert len(ds.snapshots) == 2

    def test_500_once_then_success(self, tmp_path):
        with MockHistoryServer(ROWS[:2], fail_500=1) as server:
            ds = fetch_history(config_for(server, tmp_path))
        assert len(ds.snapshots) == 2

    def test_throttling_exhausts_to_rate_limit_error(self, tmp_path):
        with MockHistoryServer(ROWS[:2], fail_429=99) as server:
            with pytest.raises(RateLimitError):
                fetch_history(config_for(server, tmp_path, max_attempts=3))
            assert server.request_count == 3

    def test_server_errors_exhaust_to_api_error(self, tmp_path):
        with MockHistoryServer(ROWS[:2], fail_500=99) as server:
            with pytest.raises(ApiError) as excinfo:
                fetch_history(config_for(server, tmp_path, max_attempts=2))
        assert not isinstance(excinfo.value, RateLimitError)


def closed_port():
    """A loopback port nothing listens on: bound, then closed."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestNetworkErrors:
    def setup_method(self):
        self.base_url = f"http://127.0.0.1:{closed_port()}"
        self.message = (
            f"history API unavailable after 2 attempts to {self.base_url}/v1/history "
            "(last: network error:"
        )

    def test_refused_connections_exhaust_to_api_error(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        config = ApiClientConfig(
            base_url=self.base_url,
            api_key="test-key",
            max_attempts=2,
            backoff_seconds=0.01,
            cache_dir=cache,
        )
        with pytest.raises(ApiError) as excinfo:
            fetch_history(config)
        assert not isinstance(excinfo.value, RateLimitError)
        assert str(excinfo.value).startswith(self.message)
        assert list(cache.iterdir()) == []

    def test_ingest_exits_1_with_one_json_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHAINLENS_API_KEY", "test-key")
        cache = tmp_path / "cache"
        api = {
            "base_url": self.base_url,
            "max_attempts": 2,
            "backoff_seconds": 0.01,
            "cache_dir": str(cache),
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"api": api}), encoding="utf-8")
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        error = json.loads(err)
        assert error["error"] == "ApiError"
        assert error["message"].startswith(self.message)
        assert not cache.exists() or list(cache.iterdir()) == []


class TestAuthentication:
    def test_wrong_key_rejected(self, tmp_path):
        with MockHistoryServer(ROWS) as server:
            with pytest.raises(AuthenticationError):
                fetch_history(config_for(server, tmp_path, api_key="wrong"))

    def test_key_read_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINLENS_API_KEY", "test-key")
        with MockHistoryServer(ROWS) as server:
            ds = fetch_history(config_for(server, tmp_path, api_key=None))
        assert len(ds.snapshots) == len(ROWS)

    def test_missing_key_fails_before_any_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CHAINLENS_API_KEY", raising=False)
        config = ApiClientConfig(base_url="http://127.0.0.1:1", cache_dir=tmp_path)
        with pytest.raises(AuthenticationError):
            fetch_history(config)


class TestSchemaDrift:
    def test_missing_row_field_named(self, tmp_path):
        with MockHistoryServer(ROWS, drop_field="price") as server:
            with pytest.raises(SchemaDriftError) as excinfo:
                fetch_history(config_for(server, tmp_path))
        assert excinfo.value.field == "price"

    def test_missing_envelope_field_named(self, tmp_path):
        with MockHistoryServer(ROWS, drop_envelope_field="total_pages") as server:
            with pytest.raises(SchemaDriftError) as excinfo:
                fetch_history(config_for(server, tmp_path))
        assert excinfo.value.field == "total_pages"


def page_body(data, total_pages=1):
    return json.dumps({"data": data, "page": 1, "total_pages": total_pages})


def with_price(value):
    return [dict(ROWS[0], price=value)]


class TestWrongJsonTypes:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("5", "page is not a JSON object: 5"),
            ("null", "page is not a JSON object: None"),
            ('["data", "page", "total_pages"]', "page is not a JSON object"),
            (page_body(5), "page 1 data is not a JSON list: 5"),
            (page_body({"price": 1.0}), "page 1 data is not a JSON list"),
            (page_body(ROWS, total_pages=None), "page 1 total_pages is not an integer"),
            (page_body(ROWS, total_pages=2.5), "page 1 total_pages is not an integer"),
            (page_body(ROWS, total_pages=True), "page 1 total_pages is not an integer"),
            (page_body(ROWS, total_pages="2"), "page 1 total_pages is not an integer"),
            (page_body([5]), "page 1 row is not a JSON object: 5"),
            (page_body([None]), "page 1 row is not a JSON object: None"),
            (page_body(ROWS[:1] + [3.5]), "page 1 row is not a JSON object: 3.5"),
            (page_body(with_price([1.0])), r"non-numeric price: \[1.0\]"),
            (page_body(with_price({"usd": 1.0})), "non-numeric price: {'usd': 1.0}"),
            (page_body(with_price(10**400)), "price must be finite and >= 0: 1000"),
            (page_body(with_price(-(10**400))), "price must be finite and >= 0: -1000"),
        ],
        ids=[
            "page-number",
            "page-null",
            "page-list",
            "data-number",
            "data-object",
            "total-pages-null",
            "total-pages-fraction",
            "total-pages-bool",
            "total-pages-text",
            "row-number",
            "row-null",
            "second-row-number",
            "value-list",
            "value-object",
            "value-beyond-float",
            "value-below-float",
        ],
    )
    def test_maps_to_api_error(self, tmp_path, body, message):
        with MockHistoryServer(ROWS, body=body) as server:
            with pytest.raises(ApiError, match=message):
                fetch_history(config_for(server, tmp_path))


    # exact texts, written out here so that they do not follow the parser
    @pytest.mark.parametrize(
        "value, message",
        [
            ([1.0], "non-numeric price: [1.0]"),
            ({"usd": 1.0}, "non-numeric price: {'usd': 1.0}"),
            ("abc", "non-numeric price: 'abc'"),
            (" abc ", "non-numeric price: 'abc'"),
            (-2, "price must be finite and >= 0: -2"),
            (-0.5, "price must be finite and >= 0: -0.5"),
            (" -1 ", "price must be finite and >= 0: '-1'"),
            ("nan", "price must be finite and >= 0: 'nan'"),
            ("1e999", "price must be finite and >= 0: '1e999'"),
            (10**400, "price must be finite and >= 0: 1" + "0" * 400),
        ],
    )
    def test_bad_value_message(self, tmp_path, value, message):
        with MockHistoryServer(ROWS, body=page_body(with_price(value))) as server:
            with pytest.raises(ApiError) as caught:
                fetch_history(config_for(server, tmp_path))
        assert str(caught.value) == f"bad value in page 1 row: {message}"


# one bad row's fields and the error of its first bad one: the date,
# then the value columns in order, then the coin key
BAD_ROWS = [
    ({"date": "2021-13-01", "price": "abc"}, "invalid date '2021-13-01'"),
    ({"price": "abc", "volume_24h": "-1"}, "non-numeric price: 'abc'"),
    ({"volume_24h": "-1", "name": "A_B"}, "volume_24h must be finite and >= 0: '-1'"),
    ({"name": "A_B"}, "underscore not allowed inside name or symbol: 'A_B', 'BTC'"),
    ({"symbol": " "}, "coin name and symbol must be non-empty after trimming"),
]


class TestLoadersBuildNoSnapshot:
    """The loaders name a bad row with its exact error from the raw cells
    (``check_record``); the library has no row type to build."""

    def test_good_input(self, tmp_path):
        with MockHistoryServer(ROWS) as server:
            fetched = fetch_history(config_for(server, tmp_path))
        assert len(fetched) == len(load_csv(FIXTURES / "api_equivalent.csv")) == len(ROWS)

    @pytest.mark.parametrize("change, message", BAD_ROWS)
    def test_csv_bad_row(self, tmp_path, change, message):
        header = (FIXTURES / "api_equivalent.csv").read_text().splitlines()[:2]
        row = dict(ROWS[0], **change)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(header + [",".join(map(str, row.values()))]) + "\n")
        with pytest.raises(MalformedRowError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("change, message", BAD_ROWS)
    def test_api_bad_value(self, tmp_path, change, message):
        body = page_body([ROWS[0], dict(ROWS[0], **change)])
        with MockHistoryServer(ROWS, body=body) as server:
            with pytest.raises(ApiError) as caught:
                fetch_history(config_for(server, tmp_path))
        assert str(caught.value) == f"bad value in page 1 row: {message}"


class TestCache:
    def test_rerun_is_offline(self, tmp_path):
        server = MockHistoryServer(ROWS, page_size=2)
        with server:
            config = config_for(server, tmp_path)
            first = fetch_history(config)
        # server is down now; the cache must answer everything
        again = fetch_history(config)
        assert again == first

    def test_different_params_miss_the_cache(self, tmp_path):
        with MockHistoryServer(ROWS) as server:
            fetch_history(config_for(server, tmp_path))
            first_count = server.request_count
            window = (dt.date(2021, 1, 1), dt.date(2021, 1, 2))
            fetch_history(config_for(server, tmp_path, date_range=window))
            assert server.request_count > first_count

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINLENS_CACHE_DIR", str(tmp_path / "envcache"))
        with MockHistoryServer(ROWS) as server:
            fetch_history(config_for(server, cache_dir=None))
        assert list((tmp_path / "envcache").glob("*.page"))


EXTENDED_ROWS = [
    dict(row, total_value_locked=10.0 * i, whales_percentage=None if i % 3 else 0.25)
    for i, row in enumerate(ROWS)
]


def page_files(cache_dir):
    return sorted(cache_dir.glob(f"*{PAGE_SUFFIX}"))


def edit_bytes(edit):
    """A damage that rewrites a page file's bytes."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def edit_chunk(edit):
    """A damage that saves a page again with some fields of its chunk
    replaced, through the page writer."""

    def damage(path):
        total_pages, chunk = read_page(path)
        write_page(path, total_pages, dataclasses.replace(chunk, **edit(chunk)))

    return damage


# each written to the first page file of ROWS at two rows a page
DAMAGES = {
    "truncated": edit_bytes(lambda data: data[:-5]),
    "truncated-in-header": edit_bytes(lambda data: data[:40]),
    "empty": edit_bytes(lambda data: b""),
    "trailing-bytes": edit_bytes(lambda data: data + b"\0"),
    "bad-header": edit_bytes(lambda data: b"not json" + data),
    "unknown-format": edit_bytes(lambda data: data.replace(b'"format": 1', b'"format": 2')),
    "header-length-disagrees": edit_bytes(
        lambda data: data.replace(b'"rows": 2', b'"rows": 3')
    ),
    "row-count-beyond-file": edit_bytes(
        lambda data: data.replace(b'"rows": 2', b'"rows": 2000000000000').replace(
            b"(2,), }" + b" " * 12, b"(2000000000000,), }", 1
        )
    ),
    "integer-column": edit_bytes(
        lambda data: data.replace(b"'descr': '<f8'", b"'descr': '<i8'", 1)
    ),
    "column-missing": edit_chunk(
        lambda chunk: {"columns": {n: v for n, v in chunk.columns.items() if n != "price"}}
    ),
    "code-out-of-range": edit_chunk(lambda chunk: {"codes": np.array([0, 5], np.int32)}),
    "negative-code": edit_chunk(lambda chunk: {"codes": np.array([0, -1], np.int32)}),
    "pair-without-rows": edit_chunk(
        lambda chunk: {"pairs": chunk.pairs + (("Extra", "EXT"),)}
    ),
    "pair-without-coin-key": edit_chunk(
        lambda chunk: {"pairs": (("Bit_coin", "BTC"),) + chunk.pairs[1:]}
    ),
    "day-off-calendar": edit_chunk(lambda chunk: {"days": np.array([0, 1], np.int32)}),
    "negative-value": edit_chunk(
        lambda chunk: {"columns": dict(chunk.columns, price=np.array([1.0, -2.0]))}
    ),
    "infinite-value": edit_chunk(
        lambda chunk: {"columns": dict(chunk.columns, price=np.array([1.0, np.inf]))}
    ),
}


class TestPageCache:
    @pytest.mark.parametrize("rows", [ROWS, EXTENDED_ROWS], ids=["standard", "extended"])
    def test_warm_fetch_equals_cold(self, tmp_path, rows):
        with MockHistoryServer(rows, page_size=2) as server:
            config = config_for(server, tmp_path)
            cold = fetch_history(config)
            served = server.request_count
            warm = fetch_history(config)
            assert server.request_count == served
        assert served == len(page_files(tmp_path)) == 3
        assert warm == cold
        assert warm.has_extended_columns() == (rows is EXTENDED_ROWS)
        assert np.isnan(warm.column("price")).any()  # Aeon's null price

    def test_warm_ingest_writes_identical_dataset_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINLENS_API_KEY", "test-key")
        with MockHistoryServer(EXTENDED_ROWS, page_size=2) as server:
            api = {"base_url": server.base_url, "cache_dir": str(tmp_path / "cache")}
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"api": api}), encoding="utf-8")
            for out in ("cold", "warm"):
                argv = ["ingest", "--config", str(config), "--out", str(tmp_path / out)]
                assert main(argv) == 0
            assert server.request_count == 3
        cold = (tmp_path / "cold" / "dataset.csv").read_bytes()
        assert (tmp_path / "warm" / "dataset.csv").read_bytes() == cold

    def test_warm_fetch_sends_nothing_and_leaves_requests_unloaded(self, tmp_path):
        src = str(Path(chainlens.__file__).resolve().parents[1])
        with MockHistoryServer(ROWS, page_size=2) as server:
            cold = fetch_history(config_for(server, tmp_path))
            served = server.request_count
            probe = (
                "import sys\n"
                "from chainlens.api import ApiClientConfig, fetch_history\n"
                f"ds = fetch_history(ApiClientConfig(base_url={server.base_url!r},"
                f" api_key='test-key', cache_dir={str(tmp_path)!r}))\n"
                "print(len(ds), 'requests' in sys.modules)"
            )
            proc = subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert server.request_count == served
        assert proc.stdout.split() == [str(len(cold)), "False"]

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES.keys())
    def test_damaged_page_file_is_a_miss(self, tmp_path, damage):
        with MockHistoryServer(ROWS, page_size=2) as server:
            config = config_for(server, tmp_path)
            cold = fetch_history(config)
            path = page_files(tmp_path)[0]
            intact = path.read_bytes()
            damage(path)
            assert read_page(path) is None
            served = server.request_count
            assert fetch_history(config) == cold
            assert server.request_count == served + 1
        assert path.read_bytes() == intact
        assert len(page_files(tmp_path)) == len(list(tmp_path.iterdir())) == 3

    def test_cut_off_body_does_not_poison_the_cache(self, tmp_path):
        with MockHistoryServer(ROWS, page_size=2) as server:
            config = config_for(server, tmp_path)
            server.body = '{"data": [{"name": "Bitc'
            with pytest.raises(ApiError, match="invalid JSON"):
                fetch_history(config)
            assert list(tmp_path.iterdir()) == []
            server.body = None
            served = server.request_count
            ds = fetch_history(config)
            assert server.request_count == served + 3
        assert ds == load_csv(FIXTURES / "api_equivalent.csv")

    def test_page_failing_a_row_check_leaves_no_file(self, tmp_path):
        rows = [ROWS[0], dict(ROWS[1], price=-1.0)]
        with MockHistoryServer(rows, page_size=1) as server:
            with pytest.raises(ApiError, match="price must be finite and >= 0"):
                fetch_history(config_for(server, tmp_path))
        # the first page passed and is kept; the second left nothing behind
        assert list(tmp_path.iterdir()) == page_files(tmp_path)
        assert len(page_files(tmp_path)) == 1

    def test_failed_write_does_not_fail_the_fetch(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr("chainlens.api.os.replace", refuse)
        with MockHistoryServer(ROWS, page_size=2) as server:
            ds = fetch_history(config_for(server, tmp_path))
        assert ds == load_csv(FIXTURES / "api_equivalent.csv")
        assert list(tmp_path.iterdir()) == []

    def test_old_json_bodies_are_not_read(self, tmp_path):
        with MockHistoryServer(ROWS, page_size=2) as server:
            config = config_for(server, tmp_path)
            cold = fetch_history(config)
            for path in page_files(tmp_path):
                path.with_suffix(".json").write_text("{", encoding="utf-8")
                path.unlink()
            served = server.request_count
            assert fetch_history(config) == cold
            assert server.request_count == served + 3


class TestConfigValidation:
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
    def test_bad_rate_limit(self, rate):
        with pytest.raises(ApiError, match="rate_limit must be positive"):
            ApiClientConfig(base_url="http://x", rate_limit=rate)

    @pytest.mark.parametrize("backoff", [-0.5, math.nan, math.inf])
    def test_bad_backoff(self, backoff):
        with pytest.raises(ApiError, match="backoff_seconds must be finite and >= 0"):
            ApiClientConfig(base_url="http://x", backoff_seconds=backoff)

    @pytest.mark.parametrize("setting", ["rate_limit", "backoff_seconds"])
    def test_nan_from_a_config_file_exits_1_before_any_request(
        self, tmp_path, monkeypatch, capsys, setting
    ):
        # json reads NaN; a retry used to sleep(NaN) and die with a traceback
        monkeypatch.setenv("CHAINLENS_API_KEY", "test-key")
        with MockHistoryServer(ROWS, fail_500=1) as server:
            api = {"base_url": server.base_url, "cache_dir": str(tmp_path / "cache")}
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"api": dict(api, **{setting: math.nan})}))
            rc = main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")])
            assert server.request_count == 0
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "ApiError"
        assert rc == 1

    def test_bad_attempts(self):
        with pytest.raises(ApiError):
            ApiClientConfig(base_url="http://x", max_attempts=0)

    def test_reversed_date_range(self):
        with pytest.raises(ApiError, match=r"^empty date range: 2022-01-01 > 2021-01-01$"):
            ApiClientConfig(
                base_url="http://x",
                date_range=(dt.date(2022, 1, 1), dt.date(2021, 1, 1)),
            )

    def test_empty_base_url(self):
        with pytest.raises(ApiError):
            ApiClientConfig(base_url="  ")


def test_cli_import_leaves_requests_unloaded():
    # only a fetch needs requests, or any HTTP or XML module; every other
    # stage starts without them
    src = str(Path(chainlens.__file__).resolve().parents[1])
    modules = ("requests", "urllib.request", "http.client", "xml.sax")
    probe = f"import sys, chainlens.cli; print([m in sys.modules for m in {modules!r}])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([False] * len(modules))
