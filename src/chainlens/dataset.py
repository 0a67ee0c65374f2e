"""Per-day coin snapshots: loading, persisting, and indexing.

The CSV layout is fixed: header
``name,symbol,date,price,max_supply,total_supply,circulating_supply,volume_24h,market_cap,num_market_pairs``
with dates as ``YYYY-MM-DD``, an empty cell meaning "absent", UTF-8
text and ``.`` as the decimal separator. Four optional extended
columns (``total_value_locked,staking_reward,total_staking_percentage,whales_percentage``)
may follow for clustering features.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    ChainlensError,
    DataQualityWarning,
    DuplicateCoinDayError,
    MalformedRowError,
)

NUMERIC_COLUMNS = (
    "price",
    "max_supply",
    "total_supply",
    "circulating_supply",
    "volume_24h",
    "market_cap",
    "num_market_pairs",
)

EXTENDED_COLUMNS = (
    "total_value_locked",
    "staking_reward",
    "total_staking_percentage",
    "whales_percentage",
)

CSV_HEADER = ("name", "symbol", "date") + NUMERIC_COLUMNS


def coin_key(name: str, symbol: str) -> str:
    """Join a coin's name and symbol with an underscore.

    Both parts are trimmed first and must be non-empty afterwards.
    Underscores inside either part are rejected so the key always
    contains exactly one underscore and stays splittable.
    """
    name = name.strip()
    symbol = symbol.strip()
    if not name or not symbol:
        raise ValueError("coin name and symbol must be non-empty after trimming")
    if "_" in name or "_" in symbol:
        raise ValueError(
            f"underscore not allowed inside name or symbol: {name!r}, {symbol!r}"
        )
    return f"{name}_{symbol}"


def split_coin_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`coin_key`."""
    name, _, symbol = key.partition("_")
    if not name or not symbol or "_" in symbol:
        raise ValueError(f"not a coin key: {key!r}")
    return name, symbol


@dataclass(frozen=True)
class CoinSnapshot:
    """One coin's on-chain parameters on one calendar day (UTC)."""

    key: str
    date: dt.date
    price: float | None = None
    max_supply: float | None = None
    total_supply: float | None = None
    circulating_supply: float | None = None
    volume_24h: float | None = None
    market_cap: float | None = None
    num_market_pairs: float | None = None
    total_value_locked: float | None = None
    staking_reward: float | None = None
    total_staking_percentage: float | None = None
    whales_percentage: float | None = None

    def __post_init__(self):
        for field in fields(self):
            if field.name in ("key", "date"):
                continue
            value = getattr(self, field.name)
            if value is None:
                continue
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{field.name} must be finite and >= 0, got {value!r}"
                )


def _supply_violation(snap: CoinSnapshot) -> bool:
    return (
        snap.circulating_supply is not None
        and snap.total_supply is not None
        and snap.circulating_supply > snap.total_supply
    )


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of snapshots, one sorted series per coin.

    Build through :meth:`build` (or the loaders), which sorts rows,
    rejects duplicate coin-days, and flags supply inconsistencies.
    """

    snapshots: tuple[CoinSnapshot, ...]
    quality_notes: tuple[str, ...] = ()

    @classmethod
    def build(cls, snapshots: Iterable[CoinSnapshot]) -> "Dataset":
        rows = sorted(snapshots, key=lambda s: (s.key, s.date))
        duplicates = [
            (rows[i].key, rows[i].date.isoformat())
            for i in range(1, len(rows))
            if rows[i].key == rows[i - 1].key and rows[i].date == rows[i - 1].date
        ]
        if duplicates:
            raise DuplicateCoinDayError(duplicates)
        notes = [
            f"{s.key} {s.date.isoformat()}: circulating_supply "
            f"{s.circulating_supply} exceeds total_supply {s.total_supply}"
            for s in rows
            if _supply_violation(s)
        ]
        if notes:
            warnings.warn(
                f"{len(notes)} row(s) have circulating_supply > total_supply",
                DataQualityWarning,
                stacklevel=2,
            )
        return cls(snapshots=tuple(rows), quality_notes=tuple(notes))

    def __len__(self) -> int:
        return len(self.snapshots)

    @cached_property
    def keys(self) -> tuple[str, ...]:
        seen = dict.fromkeys(s.key for s in self.snapshots)
        return tuple(seen)

    @cached_property
    def _series_index(self) -> dict[str, tuple[int, int]]:
        index: dict[str, tuple[int, int]] = {}
        start = 0
        for i, snap in enumerate(self.snapshots):
            if snap.key != self.snapshots[start].key:
                index[self.snapshots[start].key] = (start, i)
                start = i
        if self.snapshots:
            index[self.snapshots[start].key] = (start, len(self.snapshots))
        return index

    def series(self, key: str) -> tuple[CoinSnapshot, ...]:
        """All snapshots of one coin, in date order."""
        start, stop = self._series_index[key]
        return self.snapshots[start:stop]

    @property
    def date_range(self) -> tuple[dt.date, dt.date] | None:
        if not self.snapshots:
            return None
        dates = [s.date for s in self.snapshots]
        return min(dates), max(dates)

    def snapshot_at(self, date: dt.date) -> list[CoinSnapshot]:
        """All snapshots on the given day, ordered by coin key."""
        return sorted(
            (s for s in self.snapshots if s.date == date), key=lambda s: s.key
        )

    def column(self, name: str) -> np.ndarray:
        """One numeric column over all snapshots, NaN where absent."""
        if name not in NUMERIC_COLUMNS + EXTENDED_COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        values = [getattr(s, name) for s in self.snapshots]
        return np.array(
            [np.nan if v is None else v for v in values], dtype=np.float64
        )

    def has_extended_columns(self) -> bool:
        return any(
            getattr(s, name) is not None
            for s in self.snapshots
            for name in EXTENDED_COLUMNS
        )


def day_filter(
    date_range: tuple[dt.date | None, dt.date | None] | None,
) -> Callable[[dt.date], bool]:
    """Membership test for an inclusive (start, end) day range.

    Either side (or the whole range) may be None for open-ended; a
    range whose start is after its end is an error.
    """
    lo, hi = date_range if date_range is not None else (None, None)
    if lo is not None and hi is not None and lo > hi:
        raise ChainlensError(f"empty date range: {lo} > {hi}")
    return lambda day: (lo is None or day >= lo) and (hi is None or day <= hi)


def parse_day(text: str) -> dt.date:
    """Parse a UTC calendar day, truncating any intraday part."""
    text = text.strip()
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        stamp = dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"invalid date {text!r}") from None
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(dt.timezone.utc)
    return stamp.date()


def _parse_cell(column: str, text: str) -> float | None:
    text = text.strip()
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"non-numeric {column}: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{column} must be finite and >= 0: {text!r}")
    return value


def snapshot_from_mapping(record: Mapping[str, object]) -> CoinSnapshot:
    """Build a snapshot from string-keyed cells (CSV row or API record).

    Values may be strings (CSV) or already-typed (JSON); missing keys
    and empty strings / None are treated as absent numeric fields.
    """
    name = str(record["name"])
    symbol = str(record["symbol"])
    date = record["date"]
    if not isinstance(date, dt.date):
        date = parse_day(str(date))
    numbers: dict[str, float | None] = {}
    for column in NUMERIC_COLUMNS + EXTENDED_COLUMNS:
        if column not in record:
            continue
        raw = record[column]
        if raw is None:
            numbers[column] = None
        elif isinstance(raw, str):
            numbers[column] = _parse_cell(column, raw)
        else:
            value = float(raw)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{column} must be finite and >= 0: {raw!r}")
            numbers[column] = value
    return CoinSnapshot(key=coin_key(name, symbol), date=date, **numbers)


def load_csv(path: str | Path, schema: Mapping[str, str] | None = None) -> Dataset:
    """Read a snapshot CSV into a Dataset.

    ``schema`` optionally maps canonical column names to the header
    names actually used in the file. The header must cover every
    canonical column; the four extended columns are optional; unknown
    columns are an error.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    rename = {v: k for k, v in (schema or {}).items()}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(f"{path}: empty file, header row required") from None
        columns = [rename.get(h.strip(), h.strip()) for h in header]
        known = set(CSV_HEADER) | set(EXTENDED_COLUMNS)
        unknown = [c for c in columns if c not in known]
        if unknown:
            raise MalformedRowError(f"{path}: unknown column(s) {unknown}")
        missing = [c for c in CSV_HEADER if c not in columns]
        if missing:
            raise MalformedRowError(f"{path}: missing column(s) {missing}")
        snapshots = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(columns):
                raise MalformedRowError(
                    f"{path}: line {line_no}: expected {len(columns)} cells, got {len(row)}"
                )
            record = dict(zip(columns, row))
            try:
                snapshots.append(snapshot_from_mapping(record))
            except (ValueError, KeyError) as exc:
                raise MalformedRowError(f"{path}: line {line_no}: {exc}") from exc
    return Dataset.build(snapshots)


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV; ``load_csv`` of the result is identity."""
    path = Path(path)
    columns = list(NUMERIC_COLUMNS)
    if dataset.has_extended_columns():
        columns += list(EXTENDED_COLUMNS)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "symbol", "date"] + columns)
        for snap in dataset.snapshots:
            name, symbol = split_coin_key(snap.key)
            row = [name, symbol, snap.date.isoformat()]
            row += [_format_cell(getattr(snap, c)) for c in columns]
            writer.writerow(row)
