"""Slow reference implementations the fast paths must match.

``oracle_build_tree`` is the original depth-first CART builder: it
re-sorts every candidate feature at every node and numbers nodes in
creation order (a node's two children get consecutive ids when it is
split; the stack pops the right child first). ``oracle_knn_predict`` is
the original full stable argsort of each distance block.

``oracle_load_csv``, ``oracle_fetch_pages``, ``oracle_build`` and
``oracle_save_csv`` are the original row-by-row dataset paths: one
validated ``CoinSnapshot`` per row, sorted with ``sorted``, duplicates
and circulating > total rows found by walking the sorted rows, and one
``csv.writer`` row per snapshot.
"""

import csv
import warnings
from pathlib import Path

import numpy as np

from chainlens.api import _ROW_FIELDS
from chainlens.dataset import (
    CSV_HEADER,
    EXTENDED_COLUMNS,
    NUMERIC_COLUMNS,
    snapshot_from_mapping,
    split_coin_key,
)
from chainlens.errors import (
    ApiError,
    DataQualityWarning,
    DuplicateCoinDayError,
    MalformedRowError,
    SchemaDriftError,
)


def _gini_pair(pos, total):
    p = pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def oracle_best_split(X, y, feature_indices):
    """Lowest weighted child Gini over midpoint thresholds.

    Ties break toward the earlier feature, then the smaller threshold.
    Returns (feature, threshold, score) or None when no split separates
    rows.
    """
    n = y.shape[0]
    best = None
    for f in feature_indices:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        boundary = np.flatnonzero(sv[1:] != sv[:-1])
        if boundary.size == 0:
            continue
        pos_prefix = np.cumsum(sy)
        left_n = (boundary + 1).astype(np.float64)
        right_n = n - left_n
        left_pos = pos_prefix[boundary].astype(np.float64)
        right_pos = float(pos_prefix[-1]) - left_pos
        weighted = (
            left_n * _gini_pair(left_pos, left_n)
            + right_n * _gini_pair(right_pos, right_n)
        ) / n
        j = int(np.argmin(weighted))
        score = float(weighted[j])
        if best is None or score < best[0]:
            cut = boundary[j]
            best = (score, f, (sv[cut] + sv[cut + 1]) / 2.0)
    if best is None:
        return None
    return best[1], best[2], best[0]


def oracle_build_tree(X, y, min_samples_split=2, max_depth=None):
    """Depth-first CART over all features, as parallel node arrays."""
    n, d = X.shape
    feature, threshold = [], []
    left, right, label = [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(np.arange(n), root, 0)]
    while stack:
        idx, node, depth = stack.pop()
        ys = y[idx]
        counts = np.bincount(ys, minlength=2)
        pure = counts[0] == 0 or counts[1] == 0
        stop = (
            pure
            or idx.shape[0] < min_samples_split
            or (max_depth is not None and depth >= max_depth)
        )
        split = None
        if not stop:
            split = oracle_best_split(X[idx], ys, range(d))
            if split is not None:
                p = counts[1] / idx.shape[0]
                parent_gini = 1.0 - p * p - (1.0 - p) * (1.0 - p)
                if split[2] > parent_gini - 1e-12:
                    split = None
        if split is None:
            label[node] = int(np.argmax(counts))
            continue
        f, thr, _ = split
        mask = X[idx, f] <= thr
        left_id = new_node()
        right_id = new_node()
        feature[node] = int(f)
        threshold[node] = float(thr)
        left[node] = left_id
        right[node] = right_id
        stack.append((idx[mask], left_id, depth + 1))
        stack.append((idx[~mask], right_id, depth + 1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "label": np.array(label, dtype=np.int64),
    }


def oracle_knn_predict(train_X, train_y, k, X):
    """Majority of the k nearest by a full stable sort of the distances.

    Blocks are cut as in ``KNNModel.predict``, so both compute each
    distance with the same matrix products.
    """
    k = min(k, train_X.shape[0])
    out = np.empty(X.shape[0], dtype=np.int64)
    chunk = max(1, int(2_000_000 // max(1, train_X.shape[0])))
    for start in range(0, X.shape[0], chunk):
        block = X[start : start + chunk]
        d2 = (
            (block * block).sum(axis=1)[:, None]
            - 2.0 * block @ train_X.T
            + (train_X * train_X).sum(axis=1)[None, :]
        )
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = train_y[nearest].sum(axis=1)
        out[start : start + chunk] = (votes * 2 > k).astype(np.int64)
    return out


def oracle_build(snapshots):
    """Sorted snapshots and quality notes, as ``Dataset.build`` made them."""
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
        if s.circulating_supply is not None
        and s.total_supply is not None
        and s.circulating_supply > s.total_supply
    ]
    if notes:
        warnings.warn(
            f"{len(notes)} row(s) have circulating_supply > total_supply",
            DataQualityWarning,
            stacklevel=2,
        )
    return tuple(rows), tuple(notes)


def oracle_load_csv(path, schema=None):
    """Row-by-row CSV load: ``(snapshots, quality_notes)``."""
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
    return oracle_build(snapshots)


def oracle_rows_to_snapshots(rows, page):
    """One API page's rows, checked and parsed one at a time."""
    snapshots = []
    for row in rows:
        for field in _ROW_FIELDS:
            if field not in row:
                raise SchemaDriftError(field, f"page {page} row")
        try:
            snapshots.append(snapshot_from_mapping(row))
        except (ValueError, KeyError) as exc:
            raise ApiError(f"bad value in page {page} row: {exc}") from exc
    return snapshots


def oracle_fetch_pages(pages):
    """The parsed ``data`` lists of successive API pages, merged as
    ``fetch_history`` merged them: ``(snapshots, quality_notes)``."""
    snapshots = []
    for page, rows in enumerate(pages, start=1):
        snapshots.extend(oracle_rows_to_snapshots(rows, page))
    return oracle_build(snapshots)


def _format_cell(value):
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def oracle_save_csv(snapshots, path):
    """One ``csv.writer`` row per snapshot."""
    columns = list(NUMERIC_COLUMNS)
    if any(
        getattr(s, name) is not None for s in snapshots for name in EXTENDED_COLUMNS
    ):
        columns += list(EXTENDED_COLUMNS)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "symbol", "date"] + columns)
        for snap in snapshots:
            name, symbol = split_coin_key(snap.key)
            row = [name, symbol, snap.date.isoformat()]
            row += [_format_cell(getattr(snap, c)) for c in columns]
            writer.writerow(row)
