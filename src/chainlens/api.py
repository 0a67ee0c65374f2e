"""History API client: paginated fetch with retry, throttle, and cache.

The endpoint serves daily market snapshots as JSON pages shaped like

    {"data": [{row}, ...], "page": 1, "total_pages": 3}

where each row carries ``name``, ``symbol``, ``date`` and the standard
numeric columns (null = absent); the exact payload shape is documented
by example in tests/fixtures/api_payload_format.json.

Every page that parses and passes every row check is cached on disk,
keyed by (endpoint, params), as the columns it parsed to: a
``<sha256>.page`` page file (:mod:`chainlens.cache`). A rerun with the
same config needs no network, no JSON decoding and no ``requests``. A
page file that fails a check on reading is a miss, and the page is
fetched again and its file replaced. That cache is the reason the
whole pipeline stays reproducible offline against a proprietary source.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from urllib.parse import urlencode

from .cache import cache_dir, read_page, write_page
from .dataset import (
    CSV_HEADER,
    VALUE_COLUMNS,
    Chunk,
    ColumnParser,
    Dataset,
    check_record,
)
from .errors import (
    ApiError,
    AuthenticationError,
    RateLimitError,
    SchemaDriftError,
)
from .rules import check_date_range

HISTORY_PATH = "/v1/history"
API_KEY_ENV = "CHAINLENS_API_KEY"

_REQUIRED = frozenset(CSV_HEADER)
_ENVELOPE_FIELDS = ("data", "page", "total_pages")

PAGE_SUFFIX = ".page"


@dataclass(frozen=True)
class ApiClientConfig:
    base_url: str
    api_key: str | None = None  # falls back to CHAINLENS_API_KEY
    date_range: tuple[dt.date | None, dt.date | None] | None = None
    rate_limit: float = 5.0  # requests per second
    max_attempts: int = 4
    backoff_seconds: float = 0.5
    cache_dir: str | Path | None = None  # falls back to CHAINLENS_CACHE_DIR

    def __post_init__(self):
        if not self.base_url.strip():
            raise ApiError("base_url must be non-empty")
        # NaN fails every comparison, so each check asks for the valid side
        if not self.rate_limit > 0:
            raise ApiError(f"rate_limit must be positive, got {self.rate_limit}")
        if self.max_attempts < 1:
            raise ApiError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if not 0 <= self.backoff_seconds < math.inf:
            raise ApiError(f"backoff_seconds must be finite and >= 0, got {self.backoff_seconds}")
        if self.date_range is not None:
            check_date_range(*self.date_range, ApiError)


def _page_path(cache_dir: Path, endpoint: str, params: dict) -> Path:
    digest = hashlib.sha256(
        f"{endpoint}?{urlencode(sorted(params.items()))}".encode()
    ).hexdigest()
    return cache_dir / f"{digest}{PAGE_SUFFIX}"


class _Throttle:
    """Spaces request starts at least 1/rate_limit seconds apart."""

    def __init__(self, rate_limit: float):
        self.interval = 1.0 / rate_limit
        self.last = None

    def wait(self):
        now = time.monotonic()
        if self.last is not None:
            remaining = self.interval - (now - self.last)
            if remaining > 0:
                time.sleep(remaining)
                now = time.monotonic()
        self.last = now


def _request_page(
    session: requests.Session,
    url: str,
    params: dict,
    headers: dict,
    config: ApiClientConfig,
    throttle: _Throttle,
) -> str:
    import requests  # imported on use: the stages that never fetch skip it

    last_status = None
    for attempt in range(1, config.max_attempts + 1):
        if attempt > 1:
            time.sleep(config.backoff_seconds * 2 ** (attempt - 2))
        throttle.wait()
        try:
            response = session.get(url, params=params, headers=headers, timeout=30)
        except requests.RequestException as exc:
            last_status = f"network error: {exc}"
            continue
        if response.status_code == 200:
            return response.text
        if response.status_code == 401:
            raise AuthenticationError(f"history API rejected the key at {url}")
        if response.status_code == 429 or response.status_code >= 500:
            last_status = response.status_code
            continue
        raise ApiError(f"history API returned {response.status_code} for {url}")
    if last_status == 429:
        raise RateLimitError(
            f"still throttled after {config.max_attempts} attempts to {url}"
        )
    raise ApiError(
        f"history API unavailable after {config.max_attempts} attempts "
        f"to {url} (last: {last_status})"
    )


def _parse_page(body: str) -> dict:
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ApiError(f"history API returned invalid JSON: {exc}") from exc
    if type(payload) is not dict:
        raise ApiError(f"history API page is not a JSON object: {payload!r:.80}")
    for field in _ENVELOPE_FIELDS:
        if field not in payload:
            raise SchemaDriftError(field, "response envelope")
    return payload


def _check_row(row, page: int) -> None:
    """Raise the error the row-by-row check gives for one flagged row."""
    if type(row) is not dict:
        raise ApiError(f"page {page} row is not a JSON object: {row!r:.80}")
    for field in CSV_HEADER:
        if field not in row:
            raise SchemaDriftError(field, f"page {page} row")
    try:
        check_record(row)
    except ValueError as exc:
        raise ApiError(f"bad value in page {page} row: {exc}") from exc


def _parse_rows(parser: ColumnParser, rows, page: int) -> Chunk:
    """Parse one page's rows into a chunk of columns.

    Raises for the page's first row that lacks a field or holds a bad
    value, with the row-by-row check's error.
    """
    if type(rows) is not list:
        raise ApiError(f"page {page} data is not a JSON list: {rows!r:.80}")
    complete = 0  # leading rows that are objects carrying every row field
    for row in rows:
        if type(row) is not dict or not row.keys() >= _REQUIRED:
            break
        complete += 1
    head = rows[:complete]
    cells = {
        column: list(map(dict.get, head, repeat(column)))
        for column in ("name", "symbol", "date") + VALUE_COLUMNS
    }
    chunk, bad = parser.parse(
        cells.pop("name"), cells.pop("symbol"), cells.pop("date"), cells
    )
    if bad is not None:
        _check_row(head[bad], page)
    if complete < len(rows):
        _check_row(rows[complete], page)
    return chunk


def fetch_history(config: ApiClientConfig) -> Dataset:
    """Pull the full paginated history into one Dataset.

    Each page is fetched at most once per (endpoint, params) thanks to
    the disk cache, except that a fetched page whose count differs from
    a cached page 1 fetches page 1 again, once, and starts over; retries
    with exponential backoff cover throttling and transient server
    failures. The HTTP session is opened on the first cache miss, so a
    warm run never imports ``requests``. The merged result obeys the
    same invariants as a CSV load (sorted, duplicate coin-days
    rejected).
    """
    key = config.api_key or os.environ.get(API_KEY_ENV, "")
    if not key:
        raise AuthenticationError(f"no API key: set {API_KEY_ENV} or pass api_key explicitly")
    pages_dir = cache_dir() if config.cache_dir is None else Path(config.cache_dir)
    pages_dir.mkdir(parents=True, exist_ok=True)
    url = config.base_url.rstrip("/") + HISTORY_PATH
    base_params: dict = {}
    if config.date_range is not None:
        start, end = config.date_range
        if start is not None:
            base_params["start"] = start.isoformat()
        if end is not None:
            base_params["end"] = end.isoformat()

    throttle = _Throttle(config.rate_limit)
    headers = {"X-API-Key": key, "Accept": "application/json"}
    parser = ColumnParser()
    session = None
    page = 1
    total_pages = 1  # page 1's count, which every later page must repeat
    cached_first = None  # page 1's file when read from the cache: its count may be stale
    with contextlib.ExitStack() as stack:
        while page <= total_pages:
            params = dict(base_params, page=page)
            page_file = _page_path(pages_dir, url, params)
            cached = read_page(page_file)
            if cached is not None and (page == 1 or cached[0] == total_pages):
                count, chunk = cached
                if page == 1:
                    cached_first = page_file
            else:
                if session is None:
                    import requests  # imported on the first miss only

                    session = stack.enter_context(requests.Session())
                body = _request_page(session, url, params, headers, config, throttle)
                payload = _parse_page(body)
                count = payload["total_pages"]
                if type(count) is not int:  # not a bool, float or text
                    raise ApiError(f"page {page} total_pages is not an integer")
                if count < 1:
                    raise ApiError(f"page {page} total_pages must be >= 1, got {count}")
                if page > 1 and count != total_pages:
                    if cached_first is not None:  # the history may have grown: start over
                        cached_first.unlink(missing_ok=True)  # so page 1 is fetched again
                        parser, page, total_pages, cached_first = ColumnParser(), 1, 1, None
                        continue
                    raise ApiError(
                        f"page {page} total_pages is {count}, but page 1 gave {total_pages}"
                    )
                chunk = _parse_rows(parser, payload["data"], page)
                write_page(page_file, count, chunk)
            total_pages = count
            parser.append(chunk)
            page += 1
    return parser.dataset()
