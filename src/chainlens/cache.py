"""Checked columns on disk: the page files both caches keep.

A page file holds one :class:`~chainlens.dataset.Chunk`: a one-line
JSON header (format version, ``total_pages``, row count, the chunk's
distinct ``(name, symbol)`` pairs and its column names), then one
``.npy`` array each of pair codes, day ordinals and value columns. It
is written through a temporary file, so it is whole or absent, and it
is checked again on every read: one that is cut short, carries trailing
bytes, or fails a header, range or value check reads as absent.

Two caches keep page files in one directory, ``CHAINLENS_CACHE_DIR``
or else ``~/.cache/chainlens``:

* the History-API client (:mod:`chainlens.api`) keeps one
  ``<sha256>.page`` file per fetched page, keyed by endpoint and
  parameters;
* the CLI keeps one ``<sha256>.panel`` file per panel CSV it has
  parsed, keyed by the CSV's bytes (:func:`load_panel`): a page file
  whose one chunk is the whole panel.

Neither cache evicts anything; every file in it is safe to delete.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import json
import os
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import (
    VALUE_COLUMNS,
    Chunk,
    ColumnParser,
    Dataset,
    coin_key,
    split_coin_key,
)

CACHE_DIR_ENV = "CHAINLENS_CACHE_DIR"
PANEL_SUFFIX = ".panel"

_PAGE_FORMAT = 1
_CODE_TYPE = np.dtype(np.int32)  # pair codes and day ordinals in a page file
_VALUE_TYPE = np.dtype(np.float64)
_FIRST_DAY = dt.date.min.toordinal()
_LAST_DAY = dt.date.max.toordinal()
_HASH_BLOCK = 1 << 20  # bytes read per step while hashing a panel


def cache_dir() -> Path:
    """The cache directory: ``CHAINLENS_CACHE_DIR``, else ``~/.cache/chainlens``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "chainlens"


def write_page(path: Path, total_pages: int, chunk: Chunk) -> None:
    """Save one checked chunk through a temporary file, so that the page
    file is whole or absent; a failed write costs only the cache entry."""
    header = {
        "format": _PAGE_FORMAT,
        "total_pages": total_pages,
        "rows": len(chunk.days),
        "pairs": chunk.pairs,
        "columns": list(chunk.columns),
    }
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with temporary.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            np.save(handle, chunk.codes.astype(_CODE_TYPE), allow_pickle=False)
            np.save(handle, chunk.days.astype(_CODE_TYPE), allow_pickle=False)
            for values in chunk.columns.values():
                np.save(handle, np.asarray(values, _VALUE_TYPE), allow_pickle=False)
        os.replace(temporary, path)
    except OSError:
        with contextlib.suppress(OSError):
            temporary.unlink(missing_ok=True)


def _read_array(handle, dtype: np.dtype, rows: int) -> np.ndarray:
    """The next ``.npy`` array in a page file, which must hold ``rows``
    items of ``dtype``."""
    if np.lib.format.read_magic(handle) != (1, 0):
        raise ValueError("unexpected .npy format version")
    shape, _, stored = np.lib.format.read_array_header_1_0(handle)
    if shape != (rows,) or stored != dtype:
        raise ValueError(f"array {shape} {stored} does not match the page header")
    data = handle.read(rows * dtype.itemsize)
    if len(data) != rows * dtype.itemsize:
        raise ValueError("page file is cut short")
    return np.frombuffer(data, dtype)


def _load_page(handle, size: int) -> tuple[int, Chunk]:
    """``total_pages`` and the chunk of an open page file of ``size``
    bytes; raises ValueError unless the file is whole and every check
    passes."""
    header = json.loads(handle.readline())
    if type(header) is not dict or header.get("format") != _PAGE_FORMAT:
        raise ValueError("not a page file of this format")
    total_pages, rows = header.get("total_pages"), header.get("rows")
    pairs, columns = header.get("pairs"), header.get("columns")
    if type(total_pages) is not int or type(rows) is not int or rows < 0:
        raise ValueError("bad total_pages or row count")
    if type(pairs) is not list or not all(
        type(pair) is list and len(pair) == 2 and all(type(part) is str for part in pair)
        for pair in pairs
    ):
        raise ValueError("pairs are not [name, symbol] lists")
    pairs = tuple(map(tuple, pairs))
    for pair in pairs:
        coin_key(*pair)  # raises ValueError for a pair with no coin key
    if columns != list(VALUE_COLUMNS):
        raise ValueError("not the value columns")
    # bounds what the arrays can ask to read by what the file holds
    if rows * (2 * _CODE_TYPE.itemsize + len(columns) * _VALUE_TYPE.itemsize) > size:
        raise ValueError("row count exceeds the file")
    codes = _read_array(handle, _CODE_TYPE, rows)
    days = _read_array(handle, _CODE_TYPE, rows)
    values = {name: _read_array(handle, _VALUE_TYPE, rows) for name in columns}
    if handle.read(1):
        raise ValueError("trailing bytes after the last array")
    if not np.array_equal(np.unique(codes), np.arange(len(pairs))):
        raise ValueError("pair codes out of range, or a pair without rows")
    if rows and not (_FIRST_DAY <= days.min() and days.max() <= _LAST_DAY):
        raise ValueError("day ordinal off the calendar")
    for column in values.values():
        if np.any(column < 0) or np.any(column == np.inf):
            raise ValueError("value neither absent nor finite and >= 0")
    return total_pages, Chunk(pairs, codes, days, values)


def read_page(path: Path) -> tuple[int, Chunk] | None:
    """The page file at ``path``, or None when it is absent or fails a check."""
    try:
        with path.open("rb") as handle:
            return _load_page(handle, os.fstat(handle.fileno()).st_size)
    except (OSError, ValueError):  # ValueError: a JSON, .npy or page check
        return None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while block := handle.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def load_panel(source: Path, parse: Callable[[Path], Dataset]) -> Dataset:
    """``parse(source)``, the panel CSV's loader, through the panel cache.

    The entry is ``<cache_dir>/<sha256 of the CSV's bytes>.panel``. On a
    hit its chunk goes through :class:`ColumnParser`, so the ``Dataset``
    constructor runs as it does after a parse, with the same quality
    notes and warning. Anything else is a miss: the CSV is parsed, and
    when its bytes are still the ones hashed before the parse, the
    panel's columns are saved as the entry. A parse error propagates
    and saves nothing; a file the cache cannot read or write costs only
    the entry.
    """
    try:
        digest = _sha256(source)
    except OSError:
        return parse(source)  # which raises what it raises for this file
    entry = cache_dir() / f"{digest}{PANEL_SUFFIX}"
    cached = read_page(entry)
    if cached is not None:
        parser = ColumnParser()
        parser.append(cached[1])
        return parser.dataset()
    dataset = parse(source)
    with contextlib.suppress(OSError):
        if _sha256(source) == digest:
            pairs = tuple(map(split_coin_key, dataset.keys))
            columns = {name: dataset.column(name) for name in VALUE_COLUMNS}
            write_page(entry, 1, Chunk(pairs, dataset.codes, dataset.days, columns))
    return dataset
