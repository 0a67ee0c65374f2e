"""The text of a panel CSV, computed in numpy a chunk of rows at a time.

``save_csv`` writes each cell as the row-by-row writer did: empty when
absent, ``str(int(v))`` when integral and ``repr(v)`` otherwise, byte
for byte. Here :func:`~chainlens.kernels.shortest_digits` gives
``repr``'s digits and whole columns are laid out as ``repr`` lays them
out: positional, or in ``e-XX`` form when more than three zeros would
follow the point. (``repr``'s ``e+XX`` form starts at 1e16, which only
integral values reach.)

A chunk of rows is a matrix of little-endian 64-bit words. A row is its
coin's csv-quoted ``name,symbol``, ``,YYYY-MM-DD``, one slot per column
and CRLF; a slot is a cell's text right-aligned in 24 bytes, with
``,`` in front. A parallel matrix of 0/1 bytes, built from each field's
length, keeps a field's own bytes and drops the padding, whatever bytes
the padding holds. A row holding a cell that the slots cannot spell, or a
long coin prefix, is formatted by itself (:func:`cell_text`) in its place.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, split_coin_key
from .kernels import shortest_digits

_LE = np.dtype("<u8")
_SLOT = 24
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
# the four ASCII digits of 0..9999 in the low bytes of a word
_QUADS = np.zeros((10000, 8), np.uint8)
_QUADS[:, :4] = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_QUADS = _QUADS.view(_LE).ravel().astype(np.uint64)


def _slot_words(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(m, 24) bytes as three uint64 arrays: word k of row i holds its
    bytes 8k to 8k + 7, the first in the lowest byte."""
    words = np.ascontiguousarray(rows, dtype=np.uint8).view(_LE).astype(np.uint64)
    return tuple(words.T.copy())


# row i marks a slot's last i bytes: as 0xFF in _TAIL, to mask text, and
# as 1 in _KEEP, to keep bytes
_ENDS = np.arange(_SLOT)[::-1] < np.arange(_SLOT + 1)[:, None]
_TAIL = _slot_words(_ENDS * 0xFF)
_KEEP = _slot_words(_ENDS)
# row b: a number with b digits after its point keeps its last b bytes
# in place and has its point in the byte before; b = 0 is no point
_STAY = _ENDS[:-1].copy()
_STAY[0] = True
_STAY = _slot_words(_STAY * 0xFF)
_POINT = _ENDS[1:] ^ _ENDS[:-1]
_POINT[0] = False
_POINT = _slot_words(_POINT * 0xFF)
_COMMAS = np.uint64(0x2C2C2C2C2C2C2C2C)
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)
# "e-XX" or "e-XXX" in the top bytes of a word, by exponent
_SUFFIXES = np.array(
    [int.from_bytes(f"e-{x:02d}".rjust(8).encode(), "little") for x in range(325)],
    dtype=np.uint64,
)
_CRLF = np.uint64(int.from_bytes(b"\r\n", "little"))
# a row whose quoted coin prefix is longer is formatted by itself, so
# one long name does not widen every row of its chunk
_PREFIX_BYTES = 64


def cell_text(value: float) -> str:
    """One cell as ``save_csv`` writes it: empty when absent, integral
    values as integers, others as ``repr``."""
    if math.isnan(value):
        return ""
    return str(int(value)) if value.is_integer() else repr(value)


def _digit_words(x: np.ndarray) -> list[np.ndarray]:
    """The 24 decimal digits of each ``x < 10**19``, zero-padded, as three words."""
    eight = np.uint64(10**8)
    high = x // eight
    top = high // eight
    words = []
    for group in (top, high - top * eight, x - high * eight):
        quad = group // np.uint64(10000)
        low = group - quad * np.uint64(10000)
        high_quad, low_quad = _QUADS[quad.astype(np.intp)], _QUADS[low.astype(np.intp)]
        words.append(high_quad | (low_quad << np.uint64(32)))
    return words


def _shift_left(words: list[np.ndarray], bits, fill) -> list[np.ndarray]:
    """Move a slot's text ``bits / 8`` bytes toward its start, with
    ``fill`` entering at its end."""
    first, middle, last = words
    back = np.uint64(64) - bits
    return [
        (first >> bits) | (middle << back),
        (middle >> bits) | (last << back),
        (last >> bits) | fill,
    ]


def column_text(values: np.ndarray):
    """Each cell of one column as text right-aligned in a slot: three
    uint64 arrays of words, the text's length (0 when absent), and the
    cells left to :func:`cell_text`: subnormals, ties between two
    shortest decimals, integral values from 2**63 on, negatives and
    infinities.

    An integral value is its digits. Another is the digits of
    :func:`~chainlens.kernels.shortest_digits` with a point where
    ``repr`` puts it, in ``e-XX`` form when more than three zeros would
    follow the point."""
    integral = values == np.floor(values)  # False where absent
    fits = integral & (values >= 0) & (values < 2.0**63)
    fractional = ~integral & ~np.isnan(values)
    by_row = integral & ~fits
    x = np.zeros(values.shape, np.uint64)
    x[fits] = values[fits]
    digits, exponent, settled = shortest_digits(values[fractional])
    x[fractional] = digits
    by_row[fractional] = ~settled
    count = np.maximum(np.searchsorted(_POW10, x, side="right"), 1)
    length = np.where(fits, count, 0)
    words = _digit_words(x)
    if not digits.size:
        return words, length, by_row

    at = np.flatnonzero(fractional)
    count = count[at]
    power = 1 - count - exponent  # of the first digit, 10**-power
    sci = power >= 5
    after = np.where(sci, count - 1, -exponent)  # digits after the point
    suffix = 4 + (power >= 100)  # e-XX or e-XXX
    length[at] = np.where(
        sci, count + (count > 1) + suffix, np.maximum(count + 1, after + 2)
    )
    text = [word[at] for word in words]
    moved = _shift_left(text, np.uint64(8), np.uint64(0))
    for k in range(3):
        stay, dot = _STAY[k][after], _POINT[k][after]
        text[k] = (text[k] & stay) | (moved[k] & ~(stay | dot)) | (_POINTS & dot)
    if sci.any():
        e = np.flatnonzero(sci)
        shifted = _shift_left(
            [word[e] for word in text],
            (8 * suffix[e]).astype(np.uint64),
            _SUFFIXES[power[e]],
        )
        for k in range(3):
            text[k][e] = shifted[k]
    for k in range(3):
        words[k][at] = text[k]
    return words, length, by_row


@dataclass(frozen=True)
class Prefixes:
    """Each coin's csv-quoted ``name,symbol``: its text, its length in
    UTF-8 bytes, and the bytes left-aligned in words, with their keep
    mask (no bytes for a prefix longer than ``_PREFIX_BYTES``)."""

    texts: list[str]
    lengths: np.ndarray
    data: np.ndarray
    keep: np.ndarray

    @classmethod
    def of(cls, keys: Sequence[str]) -> "Prefixes":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        texts = []
        for key in keys:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow(split_coin_key(key))
            texts.append(buffer.getvalue()[:-2])
        encoded = [text.encode("utf-8") for text in texts]
        lengths = np.array([len(b) for b in encoded], dtype=np.int64)
        short = np.where(lengths <= _PREFIX_BYTES, lengths, 0)
        width = 8 * ((int(short.max(initial=0)) + 7) // 8)
        raw = b"".join(
            b.ljust(width) if len(b) <= _PREFIX_BYTES else bytes(width) for b in encoded
        )
        data = np.frombuffer(raw, np.uint8).reshape(len(encoded), width)
        keep = (np.arange(width) < short[:, None]).astype(np.uint8)
        return cls(texts, lengths, data.view(_LE), keep.view(_LE))


def write_chunk(handle, dataset: Dataset, columns, prefixes: Prefixes, rows: slice):
    """Write one chunk of rows through its word matrix. Rows holding a
    cell ``column_text`` leaves, or a long prefix, are formatted one by
    one in their place."""
    codes = dataset.codes[rows]
    first = prefixes.data.shape[1]
    data = np.empty((codes.shape[0], first + 2 + 3 * len(columns) + 1), _LE)
    keep = np.empty(data.shape, _LE)
    for k in range(first):  # a word at a time: a 2-d gather is slower
        data[:, k] = prefixes.data[:, k][codes]
        keep[:, k] = prefixes.keep[:, k][codes]
    days, day_of_row = np.unique(dataset.days[rows], return_inverse=True)
    dates = [dt.date.fromordinal(d).isoformat() for d in days.tolist()]
    stamps = np.frombuffer("".join(f",{d}     " for d in dates).encode(), _LE)
    data[:, first : first + 2] = stamps.reshape(-1, 2)[day_of_row]
    keep[:, first : first + 2] = 0x0101010101010101, 0x010101  # 8 + 3 bytes
    by_row = prefixes.lengths[codes] > _PREFIX_BYTES
    at = first + 2
    for column in columns:
        words, length, left = column_text(dataset.column(column)[rows])
        by_row |= left
        for k in range(3):
            tail = _TAIL[k][length]
            data[:, at] = (words[k] & tail) | (_COMMAS & ~tail)
            keep[:, at] = _KEEP[k][length + 1]
            at += 1
    data[:, at] = _CRLF
    keep[:, at] = 0x0101

    text, kept = data.view(np.uint8), keep.view(np.bool_)
    done = 0
    for row in np.flatnonzero(by_row).tolist():
        handle.write(text[done:row][kept[done:row]])
        line = [prefixes.texts[codes[row]], dates[day_of_row[row]]]
        line += (cell_text(dataset.column(c)[rows][row].item()) for c in columns)
        handle.write((",".join(line) + "\r\n").encode("utf-8"))
        done = row + 1
    handle.write(text[done:][kept[done:]])
