"""In-memory spans around calls into each layer's public functions.

The traced run hosts the server (and router) inside the benchmark
process and wraps, from here, the functions each layer is entered
through; nothing under ``src/`` is edited.  A span records its name,
start, end, parent span and request id.  The request id rides the
``X-Request-Id`` header, which the router forwards, so client, router
and server spans of one request share it; spans opened below a server
entry point inherit it through a thread-local context.
"""

import json
import threading
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

from percentiles import median_or_zero

# Span record fields.
NAME, START, END, PARENT, RID, SIZE = range(6)


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = getattr(self._local, "rid", None)
        record = [name, time.perf_counter(), None, parent, rid, None]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        stack.append(sid)
        return sid

    def end(self, sid: int, size: Optional[int] = None) -> None:
        self.spans[sid][END] = time.perf_counter()
        self.spans[sid][SIZE] = size
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()

    @contextmanager
    def request(self, rid: str):
        """Attribute spans opened on this thread to request ``rid``."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def wrap(self, fn: Callable, name: str, sized: bool = False):
        """``fn`` inside a span; ``sized`` records ``len`` of the result."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(sid, len(result) if sized and result else None)

        traced.__wrapped__ = fn
        return traced

    def entry(self, fn: Callable, name: str):
        """A request handler's ``do_*``: adopt the request id header."""
        tracer = self

        def traced(handler):
            with tracer.request(handler.headers.get("X-Request-Id")):
                sid = tracer.begin(name)
                try:
                    return fn(handler)
                finally:
                    tracer.end(sid)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for sid, (name, start, end, parent, rid, size) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid, "size": size,
                }) + "\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns a callable that unwraps them."""
    import repro.api.index as index_module
    import repro.core.betweenness as betweenness
    import repro.serving.http as serving
    import repro.snapshot.artifacts as artifacts
    from repro.api import DetectResponse, HomographIndex
    from repro.cluster import MutationLog, RouterRequestHandler
    from repro.core.graph import BipartiteGraph
    from repro.perf import get_kernel, register_kernel
    from repro.serving.http import HomographRequestHandler

    restore: List[Callable[[], None]] = []

    def patch(owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        restore.append(lambda: setattr(owner, attr, original))

    def wrap(owner, attr: str, name: str, sized: bool = False) -> None:
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, sized))

    for kernel in ("brandes", "rk"):
        original = get_kernel(kernel)
        register_kernel(kernel)(tracer.wrap(original, "kernel"))
        restore.append(
            lambda k=kernel, f=original: register_kernel(k)(f)
        )
    wrap(betweenness, "betweenness_scores", "kernel.scores")
    wrap(HomographIndex, "detect", "index")
    wrap(HomographIndex, "add_table", "mutation")
    wrap(HomographIndex, "remove_table", "mutation")
    wrap(BipartiteGraph, "splice_rows", "splice")
    wrap(MutationLog, "append", "oplog")
    wrap(DetectResponse, "to_dict", "encode")
    wrap(artifacts, "load_snapshot", "snapshot.load")
    wrap(index_module, "build_graph", "graph.build")
    # The server's JSON encoder is reached through its module's ``json``
    # name; a stand-in module times ``dumps`` and records body sizes.
    codec = types.SimpleNamespace(**{
        name: getattr(json, name) for name in dir(json)
        if not name.startswith("__")
    })
    codec.dumps = tracer.wrap(json.dumps, "encode.dumps", sized=True)
    patch(serving, "json", codec)
    for verb in ("do_GET", "do_POST", "do_DELETE"):
        patch(HomographRequestHandler, verb, tracer.entry(
            HomographRequestHandler.__dict__[verb], "server"))
        patch(RouterRequestHandler, verb, tracer.entry(
            RouterRequestHandler.__dict__[verb], "router"))

    def uninstall() -> None:
        while restore:
            restore.pop()()

    return uninstall


def _ms(span) -> float:
    return (span[END] - span[START]) * 1000.0


def self_ms(spans: List[list], sid: int, children: List[int]) -> float:
    """A span's duration minus the time its child spans cover."""
    span = spans[sid]
    covered, cursor = 0.0, span[START]
    for child in sorted(children, key=lambda c: spans[c][START]):
        start = max(spans[child][START], cursor)
        end = min(spans[child][END], span[END])
        if end > start:
            covered += end - start
            cursor = end
    return _ms(span) - covered * 1000.0


def layer_metrics(tracer: Tracer, results, main: str) -> Dict[str, float]:
    """Per-layer figures of one traced pass, from its spans.

    Only spans of the pass's own requests count, plus the ``setup``
    request for the set-up layers.  A layer the workload never entered
    reports 0.
    """
    spans = tracer.spans
    kinds = {result.rid: result.op.kind for result in results}
    named: Dict[str, Dict[str, List[int]]] = {}
    children: Dict[int, List[int]] = {}
    for sid, span in enumerate(spans):
        if span[END] is None:
            continue
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(sid)
        if span[RID] in kinds or span[RID] == "setup":
            named.setdefault(span[RID], {}).setdefault(
                span[NAME], []
            ).append(sid)

    def each(name: str, rid_kind: Optional[str] = None) -> List[int]:
        return [
            sid for rid, by_name in named.items()
            if rid != "setup" and (rid_kind is None or kinds[rid] == rid_kind)
            for sid in by_name.get(name, ())
        ]

    def total(rid: str, *names: str) -> float:
        by_name = named.get(rid, {})
        return float(sum(
            _ms(spans[s]) for n in names for s in by_name.get(n, ())))

    kernels = each("kernel")
    encode_ms, encode_bytes, transport, hops = [], [], [], []
    for rid, by_name in named.items():
        if rid == "setup":
            continue
        if "encode" in by_name:
            encode_ms.append(total(rid, "encode", "encode.dumps"))
            encode_bytes.extend(
                spans[s][SIZE] for s in by_name.get("encode.dumps", ())
            )
        if kinds[rid] != "page" or "client" not in by_name:
            continue
        # Pages do almost no server work, so their wire time is the
        # part that transport changes move.
        front = "router" if "router" in by_name else "server"
        transport.append(total(rid, "client") - total(rid, front)
                         - total(rid, "decode", "decode.document"))
        if "router" in by_name:
            hops.append(total(rid, "router") - total(rid, "server"))
    return {
        "kernel.p50_ms": median_or_zero(
            [_ms(spans[s]) for s in each("kernel.scores")]),
        "kernel.busy_ms": float(sum(_ms(spans[s]) for s in kernels)),
        "kernel.calls": len(kernels),
        "index.self_p50_ms": median_or_zero(
            [self_ms(spans, s, children.get(s, ())) for s in each("index")]),
        "encode.p50_ms": median_or_zero(encode_ms),
        "encode.bytes": median_or_zero(encode_bytes),
        "decode.p50_ms": median_or_zero(
            [_ms(spans[s]) for s in each("decode")]),
        "server.p50_ms": median_or_zero(
            [_ms(spans[s]) for s in each("server", main)]),
        "transport.p50_ms": median_or_zero(transport),
        "mutation.p50_ms": median_or_zero(
            [_ms(spans[s]) for s in each("mutation")]),
        "splice.p50_ms": median_or_zero(
            [_ms(spans[s]) for s in each("splice")]),
        "oplog.append_p50_ms": median_or_zero(
            [_ms(spans[s]) for s in each("oplog")]),
        "router.hop_p50_ms": median_or_zero(hops),
        "snapshot.load_ms": total("setup", "snapshot.load"),
        "graph.build_ms": total("setup", "graph.build"),
    }


def kernel_calls_by_request(tracer: Tracer) -> Dict[str, int]:
    """How many kernel calls each request id made."""
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        if span[NAME] == "kernel" and span[RID] is not None:
            calls[span[RID]] = calls.get(span[RID], 0) + 1
    return calls
