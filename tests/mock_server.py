"""In-process HTTP stand-in for the history API.

Serves the documented paginated JSON shape with knobs for the failure
modes the client must survive: throttling (429), transient server
errors (500), bad credentials (401), payload schema drift, a page
body of the wrong JSON shape, and pages that disagree on the page count.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class MockHistoryServer:
    def __init__(
        self,
        rows,
        api_key="test-key",
        page_size=2,
        fail_429=0,
        fail_500=0,
        drop_field=None,
        drop_envelope_field=None,
        body=None,
        claimed_pages=None,
    ):
        self.rows = list(rows)
        self.api_key = api_key
        self.page_size = page_size
        self.fail_429 = fail_429
        self.fail_500 = fail_500
        self.drop_field = drop_field
        self.drop_envelope_field = drop_envelope_field
        self.body = body  # when set, the JSON text served for every page
        # page number -> the total_pages that page claims instead of the true count
        self.claimed_pages = dict(claimed_pages or {})
        self.request_count = 0
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.02), daemon=True
        )

    @property
    def base_url(self):
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    def shutdown(self):
        self._httpd.shutdown()
        self._httpd.server_close()

    def _handler_class(server_self):
        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, status, payload):
                self._send_text(status, json.dumps(payload))

            def _send_text(self, status, text):
                body = text.encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                with server_self._lock:
                    server_self.request_count += 1
                    if server_self.fail_429 > 0:
                        server_self.fail_429 -= 1
                        self._send(429, {"error": "throttled"})
                        return
                    if server_self.fail_500 > 0:
                        server_self.fail_500 -= 1
                        self._send(500, {"error": "flaky"})
                        return
                parsed = urlparse(self.path)
                if parsed.path != "/v1/history":
                    self._send(404, {"error": "not found"})
                    return
                if self.headers.get("X-API-Key") != server_self.api_key:
                    self._send(401, {"error": "unauthorized"})
                    return
                if server_self.body is not None:
                    self._send_text(200, server_self.body)
                    return
                query = parse_qs(parsed.query)
                page = int(query.get("page", ["1"])[0])
                size = server_self.page_size
                total_pages = server_self.claimed_pages.get(
                    page, max(1, math.ceil(len(server_self.rows) / size))
                )
                chunk = server_self.rows[(page - 1) * size : page * size]
                if server_self.drop_field is not None:
                    chunk = [
                        {k: v for k, v in row.items() if k != server_self.drop_field}
                        for row in chunk
                    ]
                envelope = {"data": chunk, "page": page, "total_pages": total_pages}
                if server_self.drop_envelope_field is not None:
                    envelope.pop(server_self.drop_envelope_field, None)
                self._send(200, envelope)

        return Handler
