"""History API client against the in-process mock server."""

import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlens
from chainlens.api import ApiClientConfig, fetch_history
from chainlens.dataset import load_csv
from chainlens.errors import (
    ApiError,
    AuthenticationError,
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
        assert len(ds.series("Bitcoin_BTC")) == 2

    def test_equals_csv_fixture_load(self, tmp_path):
        with MockHistoryServer(ROWS, page_size=2) as server:
            fetched = fetch_history(config_for(server, tmp_path))
        assert fetched == load_csv(FIXTURES / "api_equivalent.csv")

    def test_null_fields_become_absent(self, tmp_path):
        with MockHistoryServer(ROWS) as server:
            ds = fetch_history(config_for(server, tmp_path))
        aeon = ds.series("Aeon_AEON")
        assert aeon[1].price is None
        assert aeon[1].market_cap is None
        wabi = ds.series("Wabi_WABI")
        assert all(s.max_supply is None for s in wabi)

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
        assert list((tmp_path / "envcache").glob("*.json"))


class TestConfigValidation:
    def test_bad_rate_limit(self):
        with pytest.raises(ApiError):
            ApiClientConfig(base_url="http://x", rate_limit=0.0)

    def test_bad_attempts(self):
        with pytest.raises(ApiError):
            ApiClientConfig(base_url="http://x", max_attempts=0)

    def test_reversed_date_range(self):
        with pytest.raises(ApiError):
            ApiClientConfig(
                base_url="http://x",
                date_range=(dt.date(2022, 1, 1), dt.date(2021, 1, 1)),
            )

    def test_empty_base_url(self):
        with pytest.raises(ApiError):
            ApiClientConfig(base_url="  ")


def test_cli_import_leaves_requests_unloaded():
    # only a fetch needs requests; every other stage starts without it
    src = str(Path(chainlens.__file__).resolve().parents[1])
    probe = "import sys, chainlens.cli; print('requests' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
