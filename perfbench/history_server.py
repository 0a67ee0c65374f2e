"""Loopback stand-in for the paginated history API, run as its own process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/history_server.py SPEC.json DATASET.csv [--generate-only]

SPEC.json holds ``{"generate": {...}, "seed": N, "page_size": N,
"api_key": "..."}``; the ``generate`` knobs override the CLI's demo
defaults, exactly as a config file's ``generate`` block does. The
script generates the panel with chainlens' own generator and writes it
to DATASET.csv with ``save_csv``. With ``--generate-only`` it prints
``{"generate_s": ..., "save_csv_s": ...}`` and exits. Otherwise it
encodes every page once, binds 127.0.0.1 on a free port, prints one
JSON line that adds ``port``, ``pages`` and ``encode_s``, and serves
until SIGTERM.

``GET /v1/history?page=N`` answers in the documented envelope. The
first attempt at each page in ``FAULTS`` gets that status instead, so
the client's retry path runs on a fixed, seed-independent set of pages.
``GET /_stats`` returns request counts; ``GET /_reset`` zeroes them and
re-arms the faults.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

FAULTS = {1: 429, 2: 500, 17: 500, 30: 429}


def encode_pages(dataset, page_size: int) -> list[bytes]:
    from chainlens.dataset import EXTENDED_COLUMNS, NUMERIC_COLUMNS, split_coin_key

    columns = NUMERIC_COLUMNS + EXTENDED_COLUMNS
    rows = []
    for snap in dataset.snapshots:
        name, symbol = split_coin_key(snap.key)
        row = {"name": name, "symbol": symbol, "date": snap.date.isoformat()}
        for column in columns:
            row[column] = getattr(snap, column)
        rows.append(row)
    total = max(1, -(-len(rows) // page_size))
    return [
        json.dumps(
            {
                "data": rows[(page - 1) * page_size : page * page_size],
                "page": page,
                "total_pages": total,
            }
        ).encode()
        for page in range(1, total + 1)
    ]


class HistoryServer(HTTPServer):
    def __init__(self, pages: list[bytes], api_key: str):
        super().__init__(("127.0.0.1", 0), HistoryHandler)
        self.pages = pages
        self.api_key = api_key
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.served = 0
        self.faulted = 0
        self.pending_faults = dict(FAULTS)


class HistoryHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        server = self.server
        parsed = urlparse(self.path)
        if parsed.path == "/_stats":
            counts = {
                "requests": server.requests,
                "served": server.served,
                "faulted": server.faulted,
            }
            self._send(200, json.dumps(counts).encode())
            return
        if parsed.path == "/_reset":
            server.reset()
            self._send(200, b"{}")
            return
        server.requests += 1
        if parsed.path != "/v1/history":
            self._send(404, b'{"error": "not found"}')
            return
        if self.headers.get("X-API-Key") != server.api_key:
            self._send(401, b'{"error": "unauthorized"}')
            return
        try:
            page = int(parse_qs(parsed.query).get("page", ["1"])[0])
        except ValueError:
            page = 0
        if not 1 <= page <= len(server.pages):
            self._send(404, b'{"error": "no such page"}')
            return
        status = server.pending_faults.pop(page, None)
        if status is not None:
            server.faulted += 1
            self._send(status, b'{"error": "injected"}')
            return
        server.served += 1
        self._send(200, server.pages[page - 1])


def synthetic_spec(spec: dict):
    """The SyntheticSpec that ``chainlens generate`` builds for a config
    with this seed and ``generate`` block."""
    from chainlens.cli import GENERATE_DEFAULTS
    from chainlens.synthetic import SyntheticSpec

    return SyntheticSpec(seed=spec["seed"], **{**GENERATE_DEFAULTS, **spec["generate"]})


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["--generate-only"]):
        print(
            "usage: history_server.py SPEC.json DATASET.csv [--generate-only]",
            file=sys.stderr,
        )
        return 2
    from chainlens.dataset import save_csv
    from chainlens.synthetic import generate_synthetic

    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    synthetic = synthetic_spec(spec)

    started = time.perf_counter()
    dataset = generate_synthetic(synthetic)
    generated = time.perf_counter()
    save_csv(dataset, argv[1])
    saved = time.perf_counter()
    ready = {"generate_s": generated - started, "save_csv_s": saved - generated}
    if argv[2:]:
        print(json.dumps(ready), flush=True)
        return 0
    pages = encode_pages(dataset, spec["page_size"])
    ready["encode_s"] = time.perf_counter() - saved
    del dataset

    server = HistoryServer(pages, spec["api_key"])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    ready.update(port=server.server_address[1], pages=len(pages))
    print(json.dumps(ready), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
