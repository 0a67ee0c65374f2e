"""Per-day coin snapshots as columns: loading, persisting, and indexing.

The CSV layout is fixed: header
``name,symbol,date,price,max_supply,total_supply,circulating_supply,volume_24h,market_cap,num_market_pairs``
with dates as ``YYYY-MM-DD``, an empty cell meaning "absent", UTF-8
text (a leading byte-order mark, as spreadsheets' "CSV UTF-8" export
writes, is skipped) and ``.`` as the decimal separator. Four optional extended
columns (``total_value_locked,staking_reward,total_staking_percentage,whales_percentage``)
may follow for clustering features.

A :class:`Dataset` holds its rows as columns sorted by (coin key, day):

* ``keys``: the sorted coin keys (``name_symbol``), one per coin;
* ``codes``: per row, the position of its coin in ``keys``;
* ``days``: per row, the day as a proleptic Gregorian ordinal
  (``date.toordinal()``);
* one float64 array per numeric column (:meth:`Dataset.column`), NaN
  where the value is absent. The four extended columns are always
  there, all NaN when the source has none.

``offsets`` cuts the rows into one slice per coin. The loaders parse
and validate whole columns at once: numbers with vectorized finite and
``>= 0`` masks, keys and days once per distinct raw value. The
row-by-row check (:func:`check_record`) runs only on the first bad
row, to raise its exact error and line number. A number cell the
vectorized pass cannot take and every cell of the row-by-row check go
through one rule, ``_cell``.

:func:`save_csv` writes the extended columns only when one of them has
a value, each cell empty when absent, as ``str(int(v))`` when integral
and as ``repr(v)`` otherwise. It computes that text for whole columns in
numpy (:mod:`chainlens.csvtext`), with ``repr``'s digits from an integer
shortest-digits kernel, and formats a row by itself only when a cell is
one the kernel leaves to ``repr`` (subnormals, exact ties, integral
values from 2**63 on) or its coin prefix is long.

The library has no row type. ``Dataset.build`` takes any rows that
carry ``key``, ``date`` and the value columns as attributes, and
``snapshots`` gives every row as a plain named tuple of the same fields,
for callers that want one object per row. No loader and no pipeline
stage builds rows: the stages pass row positions (``in_range`` gives
the mask of a date range) and read columns.
"""

from __future__ import annotations

import csv
import datetime as dt
import gc
import itertools
import math
import warnings
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ChainlensError,
    DataQualityWarning,
    DuplicateCoinDayError,
    MalformedRowError,
)
from .rules import check_date_range, parse_day

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

VALUE_COLUMNS = NUMERIC_COLUMNS + EXTENDED_COLUMNS
# one panel row as ``Dataset.snapshots`` gives it
_Snapshot = namedtuple("Snapshot", ("key", "date") + VALUE_COLUMNS)
# a parsed cell that failed validation; absent cells are NaN
_INVALID = -math.inf
# rows parsed per pass of load_csv, which bounds the memory held by cell text
_CHUNK_ROWS = 1 << 13
# rows formatted per pass of save_csv; over 11 columns a pass holds ~5 MB
# of word matrices
_WRITE_ROWS = 1 << 13


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


def isoformat_days(days: np.ndarray) -> list[str]:
    """``YYYY-MM-DD`` text of each day ordinal, formatting each distinct day once."""
    distinct, inverse = np.unique(days, return_inverse=True)
    texts = np.array(
        [dt.date.fromordinal(d).isoformat() for d in distinct.tolist()], dtype=object
    )
    return texts[inverse].tolist()


def _positive_zeros(column: np.ndarray) -> np.ndarray:
    """``column`` with each negative zero, which ``save_csv`` writes as
    ``0``, made +0.0; copied only when it holds one."""
    if np.signbit(column[column == 0]).any():
        return column + 0.0
    return column


class Dataset:
    """Immutable coin-day panel stored as columns sorted by (key, day).

    Build through :meth:`build` (from row objects) or the loaders. The
    constructor is the one place that sorts rows, rejects keys that are
    not coin keys, duplicate coin-days and values the loaders would
    reject, and flags supply inconsistencies, so every Dataset
    round-trips through ``save_csv`` and ``load_csv``.
    """

    def __init__(
        self,
        keys: Sequence[str],
        codes: np.ndarray,
        days: np.ndarray,
        columns: Mapping[str, np.ndarray],
    ):
        """Take ownership of validated, possibly unsorted columns.

        ``keys`` are distinct coin keys and ``codes`` index into them;
        ``columns`` maps value-column names to float64 arrays (NaN for
        absent); a column left out is all absent. Raises ValueError
        naming a key ``split_coin_key`` refuses, or the coin, day and
        column of the first value (after the duplicate check) that is
        neither absent nor finite and ``>= 0``.
        """
        for key in keys:
            split_coin_key(key)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank = np.empty(len(keys), dtype=np.int64)
        rank[order] = np.arange(len(keys))
        codes = rank[np.asarray(codes, dtype=np.int64)]
        days = np.asarray(days, dtype=np.int64)
        n = days.shape[0]
        values = {
            name: _positive_zeros(np.asarray(columns[name], dtype=np.float64))
            if name in columns
            else np.full(n, np.nan)
            for name in VALUE_COLUMNS
        }
        same_key = codes[1:] == codes[:-1]
        if np.any((codes[1:] < codes[:-1]) | (same_key & (days[1:] < days[:-1]))):
            perm = np.lexsort((days, codes))
            codes, days = codes[perm], days[perm]
            values = {name: column[perm] for name, column in values.items()}
            same_key = codes[1:] == codes[:-1]
        self.keys: tuple[str, ...] = tuple(keys[i] for i in order)
        for array in (codes, days, *values.values()):
            array.flags.writeable = False
        self.codes = codes
        self.days = days
        self._columns = values

        repeated = np.flatnonzero(same_key & (days[1:] == days[:-1])) + 1
        if repeated.size:
            raise DuplicateCoinDayError(
                zip(self.row_keys(repeated), isoformat_days(days[repeated]))
            )
        for name, column in values.items():
            bad = np.flatnonzero((column < 0) | (column == math.inf))[:1]
            if bad.size:
                raise ValueError(
                    f"{self.row_keys(bad)[0]} {isoformat_days(days[bad])[0]}: {name}"
                    f" must be finite and >= 0, got {float(column[bad[0]])!r}"
                )
        circulating = values["circulating_supply"]
        total = values["total_supply"]
        over = np.flatnonzero(circulating > total)
        self.quality_notes: tuple[str, ...] = tuple(
            f"{key} {day}: circulating_supply {circ} exceeds total_supply {tot}"
            for key, day, circ, tot in zip(
                self.row_keys(over),
                isoformat_days(days[over]),
                circulating[over].tolist(),
                total[over].tolist(),
            )
        )
        if self.quality_notes:
            warnings.warn(
                f"{len(self.quality_notes)} row(s) have circulating_supply > total_supply",
                DataQualityWarning,
                stacklevel=2,
            )

    @classmethod
    def build(cls, snapshots: Iterable) -> "Dataset":
        """A panel of the given rows: any objects with a ``key``, a
        ``date`` and the value columns as attributes, None or NaN where
        a value is absent. The constructor checks the values."""
        rows = list(snapshots)
        table: dict[str, int] = {}
        codes = [table.setdefault(s.key, len(table)) for s in rows]
        days = [s.date.toordinal() for s in rows]
        columns = {
            name: np.array([getattr(s, name) for s in rows], dtype=np.float64)
            for name in VALUE_COLUMNS
        }
        return cls(list(table), np.array(codes, dtype=np.int64), days, columns)

    def __len__(self) -> int:
        return self.days.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.keys == other.keys
            and self.quality_notes == other.quality_notes
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.days, other.days)
            and all(
                np.array_equal(self._columns[n], other._columns[n], equal_nan=True)
                for n in VALUE_COLUMNS
            )
        )

    __hash__ = None

    @cached_property
    def offsets(self) -> np.ndarray:
        """Row offsets per coin: coin i owns rows ``offsets[i]:offsets[i+1]``."""
        return np.searchsorted(self.codes, np.arange(len(self.keys) + 1))

    def row_keys(self, rows) -> list[str]:
        """The coin key of each given row."""
        return np.array(self.keys, dtype=object)[self.codes[rows]].tolist()

    @cached_property
    def snapshots(self) -> tuple[tuple, ...]:
        """Every row as a named tuple of ``key``, ``date`` (a ``date``) and
        the value columns (floats, None where absent), in (key, day) order."""
        day_list = self.days.tolist()
        dates = {d: dt.date.fromordinal(d) for d in set(day_list)}
        cells = []
        for name in VALUE_COLUMNS:
            column = self._columns[name]
            boxed = column.astype(object)
            boxed[np.isnan(column)] = None
            cells.append(boxed.tolist())
        rows = zip(self.row_keys(slice(None)), map(dates.__getitem__, day_list), *cells)
        return tuple(map(_Snapshot._make, rows))

    @property
    def date_range(self) -> tuple[dt.date, dt.date] | None:
        if not len(self):
            return None
        return (
            dt.date.fromordinal(int(self.days.min())),
            dt.date.fromordinal(int(self.days.max())),
        )

    def resolve_cutoff(self, cutoff: dt.date | None = None) -> dt.date:
        """``cutoff``, by default the panel's last day; a cutoff before
        the panel's first day, or any cutoff of an empty panel, is an error."""
        if not len(self):
            raise ChainlensError("cannot resolve a cutoff: the dataset has no rows")
        first, last = self.date_range
        if cutoff is None:
            return last
        if cutoff < first:
            raise ChainlensError(f"cutoff {cutoff} precedes the dataset's first day {first}")
        return cutoff

    def last_rows(self, cutoff: dt.date | None = None) -> np.ndarray:
        """Per coin, the position of its last row on or before ``cutoff``
        (its last row when None), or -1 when it has none."""
        starts = self.offsets[:-1]
        if cutoff is None or not len(self):
            return self.offsets[1:] - 1
        # a coin's days ascend, so its rows up to the cutoff are a prefix
        kept = np.add.reduceat(self.days <= cutoff.toordinal(), starts, dtype=np.int64)
        return np.where(kept > 0, starts + kept - 1, -1)

    def in_range(self, date_range: tuple[dt.date | None, dt.date | None] | None) -> np.ndarray:
        """Row mask of the days inside an inclusive (start, end) range.

        Either side (or the whole range) may be None for open-ended; a
        range whose start is after its end is an error.
        """
        lo, hi = date_range if date_range is not None else (None, None)
        check_date_range(lo, hi)
        keep = np.ones(self.days.shape, dtype=bool)
        if lo is not None:
            keep &= self.days >= lo.toordinal()
        if hi is not None:
            keep &= self.days <= hi.toordinal()
        return keep

    def column(self, name: str) -> np.ndarray:
        """One numeric column over all rows (read-only), NaN where absent."""
        if name not in VALUE_COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        return self._columns[name]

    def has_extended_columns(self) -> bool:
        return any(not np.isnan(self._columns[n]).all() for n in EXTENDED_COLUMNS)


def _cell(column: str, raw) -> float | None:
    """One raw cell (CSV text or a JSON value) as a number, None when absent.

    Text is stripped first; None and blank text are absent. Raises
    ValueError for a cell that is not a number or not finite and >= 0.
    """
    if isinstance(raw, str):
        raw = raw.strip()
        if not raw:
            return None
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):  # not a number, or a JSON list or object
        raise ValueError(f"non-numeric {column}: {raw!r}") from None
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{column} must be finite and >= 0: {raw!r}")
    return value


def check_record(record: Mapping[str, object]) -> None:
    """Raise the ValueError of the first bad field of a row (CSV row or
    API record): its date, each value column it has in ``VALUE_COLUMNS``
    order, then its coin key. The loaders run it on the first row their
    column checks reject, to raise its exact error."""
    parse_day(str(record["date"]))
    for column in VALUE_COLUMNS:
        if column in record:
            _cell(column, record[column])
    coin_key(str(record["name"]), str(record["symbol"]))


def _cell_value(raw) -> float:
    """One raw cell as a float: NaN when absent, _INVALID when bad."""
    try:
        value = _cell("", raw)
    except ValueError:
        return _INVALID
    return math.nan if value is None else value


def _column_values(cells: Sequence) -> np.ndarray:
    """Parse one column of raw cells; NaN marks absent, _INVALID bad."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except (ValueError, TypeError, OverflowError):
        # absent cells (or bad ones) need the per-cell rules, applied
        # once per distinct cell unless a JSON cell is unhashable
        try:
            parsed = {raw: _cell_value(raw) for raw in set(cells)}
        except TypeError:
            parsed = None
        get = _cell_value if parsed is None else parsed.__getitem__
        return np.fromiter(map(get, cells), np.float64, len(cells))
    # nothing was absent, so NaN (like inf or a negative) came from the input
    values[~(np.isfinite(values) & (values >= 0))] = _INVALID
    return values


@dataclass(frozen=True)
class Chunk:
    """One parsed chunk of rows: its distinct raw ``(name, symbol)``
    pairs, and per row the position of its pair in ``pairs``, its day
    ordinal and one float64 array per value column (NaN where absent)."""

    pairs: tuple[tuple[str, str], ...]
    codes: np.ndarray
    days: np.ndarray
    columns: Mapping[str, np.ndarray]


class ColumnParser:
    """Validated columns from chunks of raw cells (CSV text or JSON values).

    Coin keys and days are parsed once per distinct raw value across
    all chunks; :meth:`dataset` joins the appended chunks.
    """

    def __init__(self):
        self._keys: dict[tuple[str, str], str | None] = {}  # None if bad
        self._days: dict[str, int] = {}  # raw date -> ordinal, -1 if bad
        self._codes: dict[str, int] = {}  # coin key -> code in the dataset
        self._chunks: list[tuple[np.ndarray, np.ndarray, Mapping]] = []

    def _key_of(self, pair: tuple[str, str]) -> str | None:
        """The coin key of a raw ``(name, symbol)`` pair, None if it has none."""
        keys = self._keys
        if pair not in keys:
            try:
                keys[pair] = coin_key(*pair)
            except ValueError:
                keys[pair] = None
        return keys[pair]

    def parse(
        self, names, symbols, dates, cells: Mapping[str, Sequence]
    ) -> tuple[Chunk, int | None]:
        """Parse one chunk of raw cells without appending it; return the
        :class:`Chunk` and the position of its first bad row, if any."""
        n = len(dates)
        raw_pairs = list(zip(map(str, names), map(str, symbols)))
        local = {pair: i for i, pair in enumerate(dict.fromkeys(raw_pairs))}
        codes = np.fromiter(map(local.__getitem__, raw_pairs), np.int64, n)
        bad = np.array([self._key_of(pair) is None for pair in local], dtype=bool)[codes]

        texts = list(map(str, dates))
        day_of = self._days
        for text in set(texts).difference(day_of):
            try:
                day_of[text] = parse_day(text).toordinal()
            except ValueError:
                day_of[text] = -1
        days = np.fromiter(map(day_of.__getitem__, texts), np.int64, n)
        bad |= days < 0

        values = {}
        for name, raw in cells.items():
            values[name] = _column_values(raw)
            bad |= values[name] == _INVALID
        first = np.flatnonzero(bad)
        return Chunk(tuple(local), codes, days, values), (
            int(first[0]) if first.size else None
        )

    def append(self, chunk: Chunk) -> None:
        """Add a parsed chunk's rows to the panel."""
        codes = self._codes
        remap = np.array(
            [codes.setdefault(self._key_of(pair), len(codes)) for pair in chunk.pairs],
            dtype=np.int64,
        )
        self._chunks.append((remap[chunk.codes], chunk.days, chunk.columns))

    def dataset(self) -> Dataset:
        if not self._chunks:
            return Dataset([], np.zeros(0, np.int64), np.zeros(0, np.int64), {})
        names = self._chunks[0][2].keys()
        return Dataset(
            list(self._codes),
            np.concatenate([codes for codes, _, _ in self._chunks]),
            np.concatenate([days for _, days, _ in self._chunks]),
            {
                name: np.concatenate([values[name] for _, _, values in self._chunks])
                for name in names
            },
        )


def _records(rows: list[list[str]], width: int, name_at: int):
    """Split one chunk of CSV records into the rows to parse, their
    positions in the chunk, and the position of the first record of
    the wrong width (None if there is none), which ends the chunk.

    Blank records are skipped. A blank record has a blank name cell,
    so the per-record scan runs only when some name is blank or some
    width is off.
    """
    if set(map(len, rows)) == {width} and all(
        name.strip() for name in set(map(itemgetter(name_at), rows))
    ):
        return rows, range(len(rows)), None
    kept, positions = [], []
    for i, row in enumerate(rows):
        if len(row) != width or not row[name_at].strip():
            if not "".join(row).strip():  # blank record
                continue
            if len(row) != width:
                return kept, positions, i
        kept.append(row)
        positions.append(i)
    return kept, positions, None


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore the caller's
    setting, also when the body raises. Parsing a panel allocates
    millions of row lists and strings but no reference cycles, so a
    collection during it only costs time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_csv(path: str | Path) -> Dataset:
    """Read a snapshot CSV into a Dataset.

    The header must cover every column of ``CSV_HEADER``; the four
    extended columns are optional; unknown columns are an error. Blank
    records are skipped; a bad record raises MalformedRowError naming
    its line (the first bad one).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as handle, _gc_paused():
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(f"{path}: empty file, header row required") from None
        columns = [h.strip() for h in header]
        known = set(CSV_HEADER) | set(EXTENDED_COLUMNS)
        unknown = [c for c in columns if c not in known]
        if unknown:
            raise MalformedRowError(f"{path}: unknown column(s) {unknown}")
        missing = [c for c in CSV_HEADER if c not in columns]
        if missing:
            raise MalformedRowError(f"{path}: missing column(s) {missing}")
        # a repeated header name takes its last cell, as a dict of the row would
        position = {name: i for i, name in enumerate(columns)}
        width = len(columns)
        name_at = position["name"]
        parser = ColumnParser()
        line_no = 2
        while True:
            rows: list[list[str]] = []
            failure = None
            try:
                rows.extend(itertools.islice(reader, _CHUNK_ROWS))
            except (csv.Error, ValueError) as exc:
                failure = exc  # raised once the rows read before it pass
            if not rows and failure is None:
                break
            kept, positions, ragged = _records(rows, width, name_at)
            if kept:
                cells = list(zip(*kept))
                chunk, bad = parser.parse(
                    cells[name_at],
                    cells[position["symbol"]],
                    cells[position["date"]],
                    {n: cells[position[n]] for n in VALUE_COLUMNS if n in position},
                )
                parser.append(chunk)
                if bad is not None:
                    try:
                        check_record(dict(zip(columns, kept[bad])))
                    except ValueError as exc:
                        raise MalformedRowError(
                            f"{path}: line {line_no + positions[bad]}: {exc}"
                        ) from exc
            if ragged is not None:
                raise MalformedRowError(
                    f"{path}: line {line_no + ragged}: expected {width} cells,"
                    f" got {len(rows[ragged])}"
                )
            if failure is not None:
                raise failure
            line_no += len(rows)
    return parser.dataset()


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV; ``load_csv`` of the result is identity.

    Rows in (key, day) order with CRLF line ends; name and symbol quoted
    as ``csv.writer`` quotes them; a cell empty when absent,
    ``str(int(v))`` when integral and ``repr(v)`` otherwise. The bytes
    are those of writing each row with ``csv.writer``, but the text is
    computed in numpy ``_WRITE_ROWS`` rows at a time
    (:func:`chainlens.csvtext.write_chunk`). ``Dataset`` already holds
    only values the loaders accept, so every Dataset can be written.
    """
    path = Path(path)
    columns = list(NUMERIC_COLUMNS)
    if dataset.has_extended_columns():
        columns += list(EXTENDED_COLUMNS)
    # imported on use: its tables take a few ms to build
    from .csvtext import Prefixes, write_chunk

    prefixes = Prefixes.of(dataset.keys)
    with path.open("wb") as handle:
        handle.write((",".join(["name", "symbol", "date"] + columns) + "\r\n").encode())
        for start in range(0, len(dataset), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            write_chunk(handle, dataset, columns, prefixes, rows)
