"""The load generator's HTTP client: one keep-alive connection per client.

It speaks to the service exactly as the bundled client does
(``http.client`` keep-alive, JSON bodies, ``Accept-Encoding: gzip`` on
ranking pages) and decodes detect responses with
``DetectResponse.from_json`` inside the timed interval, as a user
would.  Each request carries an ``X-Request-Id`` so a traced run can
join client, router and server spans of one request.
"""

import gzip
import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.api import DetectResponse

#: Decode styles: a full ``DetectResponse`` or a plain JSON document.
DETECT, DOCUMENT = "detect", "document"


@dataclass(frozen=True)
class Op:
    """One request of a workload's fixed sequence.

    ``kind`` names the latency population (``hit``, ``page``, ...);
    ``expect`` is what the correctness oracle compares the response
    against, interpreted by the workload that built the op.
    """

    kind: str
    method: str
    path: str
    body: Optional[bytes] = None
    decode: str = DOCUMENT
    gzip: bool = False
    expect: Tuple = field(default=())


@dataclass
class Result:
    """What one op returned, and how long the client waited for it."""

    op: Op
    rid: str
    latency: float
    status: int = 0
    body: bytes = b""
    error: str = ""


class Connection:
    """A keep-alive connection that replays ops and times them."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self._port = port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def call(self, op: Op, rid: str, interned: dict, tracer=None) -> Result:
        """Send ``op``; the latency covers send, wait, read and decode."""
        headers = {"Accept": "application/json", "X-Request-Id": rid}
        if op.body is not None:
            headers["Content-Type"] = "application/json"
        if op.gzip:
            headers["Accept-Encoding"] = "gzip"
        span = tracer.begin("client", rid) if tracer else None
        start = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self._port, timeout=self._timeout
                )
            self._conn.request(op.method, op.path, op.body, headers)
            response = self._conn.getresponse()
            body = response.read()
            if response.will_close:
                self.close()
            decode = tracer.begin(
                "decode" if op.decode == DETECT else "decode.document", rid
            ) if tracer else None
            if response.getheader("Content-Encoding", "") == "gzip":
                body = gzip.decompress(body)
            if response.status < 400:
                if op.decode == DETECT:
                    DetectResponse.from_json(body)
                else:
                    json.loads(body)
            if decode is not None:
                tracer.end(decode)
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.close()
            if span is not None:
                tracer.end(span)
            return Result(op, rid, time.perf_counter() - start,
                          error=f"{type(error).__name__}: {error}")
        latency = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        # Identical bodies (every cache hit) are stored once; the
        # oracle decodes each distinct body after the timed pass.
        body = interned.setdefault(body, body)
        return Result(op, rid, latency, response.status, body)


def get_json(port: int, path: str) -> dict:
    """One untimed GET on a fresh connection (stats reads, probes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path, headers={"Accept": "application/json"})
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return json.loads(body)
    finally:
        conn.close()
