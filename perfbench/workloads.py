"""The workloads: their servers, op sequences and oracle.

Every workload is a closed loop replaying a fixed op sequence built
from ``--seed``.  Latency percentiles are taken per op kind; each
workload publishes its ``main`` kind and its ``page`` kind (a 100-row
ranking page) as end-to-end metrics and prints the rest on stderr.

The oracle is an in-process :class:`HomographIndex` built from the
same generated CSV lake and request, compared after the timed pass:
same ranking order, bit-equal scores.  Mutating workloads compare
against a from-scratch rebuild of the lake state each op saw.
"""

import itertools
import json
import random
import shutil
import urllib.parse
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import DetectRequest, DetectResponse, HomographIndex
from repro.datalake.csv_io import load_lake
from repro.datalake.lake import DataLake
from repro.datalake.table import Table

from inputs import WARM_REQUEST, Inputs
from wire import DETECT, Connection, Op, Result, get_json

PAGE_LIMIT = 100

#: Betweenness sources sampled by every ``cold_detect`` miss.
COLD_SAMPLE = 128

#: Tables ``write_mix`` cycles through, and their shape.
WRITE_POOL = 16
WRITE_EXISTING = 8
WRITE_FRESH = 8


class Reference:
    """From-scratch rankings of a base lake plus at most one extra table."""

    def __init__(self, base: List[Table]) -> None:
        self.base = base
        self._indexes: Dict[Optional[str], HomographIndex] = {}
        self._extras: Dict[str, Table] = {}
        self._rankings: Dict[Tuple, List[tuple]] = {}

    def register(self, table: Table) -> None:
        self._extras[table.name] = table

    def ranking(self, extra: Optional[str], request: DetectRequest):
        key = (extra, request)
        if key not in self._rankings:
            index = self._indexes.get(extra)
            if index is None:
                tables = list(self.base)
                if extra is not None:
                    tables.append(self._extras[extra])
                index = self._indexes[extra] = HomographIndex(
                    DataLake(tables)
                )
            response = index.detect(request)
            self._rankings[key] = [
                (e.rank, e.value, e.score) for e in response.ranking
            ]
        return self._rankings[key]

    def close(self) -> None:
        for index in self._indexes.values():
            index.close()
        self._indexes.clear()


def detect_op(kind: str, lake: str, request: DetectRequest,
              extra: Optional[str] = None) -> Op:
    body = json.dumps(request.to_dict()).encode("utf-8")
    return Op(kind, "POST", f"/lakes/{lake}/detect", body, DETECT,
              expect=("ranking", extra, request))


def page_op(kind: str, lake: str, request: DetectRequest, offset: int,
            extra: Optional[str] = None) -> Op:
    query = {"cursor": str(offset), "limit": PAGE_LIMIT}
    if request.sample_size is not None:
        query["sample_size"] = request.sample_size
        query["seed"] = request.seed
    path = (f"/lakes/{lake}/ranking/{request.measure}?"
            + urllib.parse.urlencode(query))
    return Op(kind, "GET", path, gzip=True,
              expect=("page", extra, request, offset))


class Workload:
    """Shared shape; subclasses fill in servers, sequences and checks."""

    name = ""
    lake = ""
    main = ""
    #: Every op kind the workload issues, in report order.
    kinds: Tuple[str, ...] = ()

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.inputs = inputs
        self.seed = seed
        self.reference: Optional[Reference] = None
        self._decoded: Dict[bytes, object] = {}
        self._verdicts: Dict[Tuple, Optional[str]] = {}

    # -- program under test ---------------------------------------------
    def service_args(self, run_dir: Path) -> List[str]:
        raise NotImplementedError

    def host_traced(self, run_dir: Path):
        """Start the in-process stack; returns ``(port, stop)``."""
        raise NotImplementedError

    def counters(self, port: int) -> Dict[str, float]:
        stats = get_json(port, "/stats")
        http = stats["http"]
        return {
            "index.hits": stats["cache"]["hits"],
            "index.misses": stats["cache"]["misses"],
            "index.coalesced": stats["cache"]["coalesced"],
            "gate.rejected": http["rejected"],
            "server.served": http["served"],
            "server.errors": http["errors"],
        }

    # -- op sequences -----------------------------------------------------
    def probe(self) -> Op:
        """The set-up's first request; set-up ends when it is correct."""
        return detect_op("probe", self.lake, WARM_REQUEST)

    def warmup(self) -> List[Op]:
        return []

    def cycles(self) -> Iterator[List[Op]]:
        raise NotImplementedError

    def child_pids(self, port: int) -> List[int]:
        """Processes the service spawned, which must die with it."""
        return []

    def finish(self, port: int) -> Optional[str]:
        """A check on the final served state, after the timed pass."""
        return None

    def trace_problems(self, results, kernel_calls) -> List[str]:
        """This workload's claims about the layers a traced pass entered."""
        return []

    # -- oracle -----------------------------------------------------------
    def check(self, result: Result) -> Optional[str]:
        """``None`` when the response is correct, else what was wrong."""
        if result.error:
            return result.error
        op = result.op
        created = op.method == "POST" and op.expect[0] == "mutation"
        if result.status != (201 if created else 200):
            return f"{op.method} {op.path} -> HTTP {result.status}"
        key = (result.body, op.expect)
        if key not in self._verdicts:
            self._verdicts[key] = self._compare(result.body, op)
        return self._verdicts[key]

    def _decode(self, body: bytes, detect: bool):
        if body not in self._decoded:
            self._decoded[body] = (
                DetectResponse.from_json(body) if detect
                else json.loads(body)
            )
        return self._decoded[body]

    def _compare(self, body: bytes, op: Op) -> Optional[str]:
        what = op.expect[0]
        if what == "mutation":
            _, table, tables = op.expect
            payload = self._decode(body, False)
            if payload.get("table") != table or payload.get(
                "tables"
            ) != tables:
                return f"mutation reply {payload!r}"
            return None
        want = self.reference.ranking(op.expect[1], op.expect[2])
        if what == "ranking":
            response = self._decode(body, True)
            got = [(e.rank, e.value, e.score) for e in response.ranking]
            if got != want:
                return f"{op.path}: ranking differs from the reference"
            return None
        offset = op.expect[3]
        page = self._decode(body, False)
        got = [(e["rank"], e["value"], e["score"]) for e in page["entries"]]
        if got != want[offset:offset + PAGE_LIMIT] or page["total"] != len(
            want
        ):
            return f"{op.path}: page differs from the reference"
        return None


def _distinct(rng: random.Random, bound: int) -> Iterator[int]:
    seen = set()
    while True:
        value = rng.randrange(bound)
        if value not in seen:
            seen.add(value)
            yield value


class ColdDetect(Workload):
    """Sampled-betweenness detects that all miss the cache, on TUS-small."""

    name = "cold_detect"
    lake = "tus"
    main = "miss"
    kinds = ("miss", "page")

    def __init__(self, inputs: Inputs, seed: int) -> None:
        super().__init__(inputs, seed)
        self.reference = Reference(list(load_lake(inputs.tus_csv)))
        self.total = len(self.reference.ranking(None, WARM_REQUEST))

    def service_args(self, run_dir: Path) -> List[str]:
        return ["serve", "--lake", f"{self.lake}={self.inputs.tus_csv}",
                "--port", "0"]

    def host_traced(self, run_dir: Path):
        from repro.api import Workspace
        from repro.serving.http import start_server

        index = HomographIndex.from_directory(self.inputs.tus_csv)
        index.graph  # the CSV start: lake load and first graph build
        workspace = Workspace()
        workspace.attach_index(self.lake, index)
        server = start_server(workspace)
        return server.server_address[1], server.drain

    def trace_problems(self, results, kernel_calls) -> List[str]:
        missed = sum(1 for r in results
                     if r.op.kind == "miss" and not kernel_calls.get(r.rid))
        return ([f"{missed} cold_detect misses made no kernel call"]
                if missed else [])

    def _cycle(self, rng: random.Random, seed: int) -> List[Op]:
        request = DetectRequest(
            measure="betweenness", sample_size=COLD_SAMPLE, seed=seed
        )
        offset = rng.randrange(-(-self.total // PAGE_LIMIT)) * PAGE_LIMIT
        return [detect_op("miss", self.lake, request),
                page_op("page", self.lake, request, offset)]

    def warmup(self) -> List[Op]:
        # Warm-up seeds sit above every pass seed, so no pass op can
        # hit a warm-up result in the cache.
        rng = random.Random(f"{self.seed}/cold_detect/warmup")
        return self._cycle(rng, 2 ** 31) + self._cycle(rng, 2 ** 31 + 1)

    def cycles(self) -> Iterator[List[Op]]:
        """Fresh sampling seeds, never repeated within a pass."""
        rng = random.Random(f"{self.seed}/cold_detect")
        for seed in _distinct(rng, 2 ** 31):
            yield self._cycle(rng, seed)


class WriteMix(Workload):
    """Table writes, refills, pages and hits through the cluster router."""

    name = "write_mix"
    lake = "sb"
    main = "mutate"
    kinds = ("mutate", "page", "refill", "hit")

    def __init__(self, inputs: Inputs, seed: int) -> None:
        super().__init__(inputs, seed)
        base = list(load_lake(inputs.sb_csv))
        self.reference = Reference(base)
        self.base_total = len(self.reference.ranking(None, WARM_REQUEST))
        values = sorted({
            cell for table in base for row in table.rows for cell in row
            if cell
        })
        rng = random.Random(f"{seed}/write_mix/tables")
        self.pool = [self._table(rng, values, f"bench_{i:02d}")
                     for i in range(WRITE_POOL)]
        self.warm_table = self._table(rng, values, "bench_warmup")
        for table in self.pool + [self.warm_table]:
            self.reference.register(table)

    @staticmethod
    def _table(rng: random.Random, values: List[str], name: str) -> Table:
        """Existing SB values plus fresh ones, each fresh value twice.

        The existing values splice new edges into real neighbourhoods;
        the fresh values occur in both columns so pruning keeps them.
        """
        existing = rng.sample(values, WRITE_EXISTING)
        fresh = [f"{name.upper()}_V{rng.randrange(10 ** 6):06d}_{j}"
                 for j in range(WRITE_FRESH)]
        half = WRITE_EXISTING // 2
        return Table.from_columns(name, {
            "left": existing[:half] + fresh,
            "right": fresh + existing[half:],
        })

    def service_args(self, run_dir: Path) -> List[str]:
        snapshot = run_dir / self.lake
        shutil.copytree(self.inputs.sb_snapshot, snapshot)
        return ["cluster", str(snapshot), "--replicas", "1", "--port", "0"]

    def host_traced(self, run_dir: Path):
        from repro.api import Workspace
        from repro.cluster import (
            MutationLog,
            Replica,
            ReplicaSet,
            start_router,
        )
        from repro.serving.http import start_server
        from repro.snapshot import oplog_path

        snapshot = run_dir / self.lake
        shutil.copytree(self.inputs.sb_snapshot, snapshot)
        workspace = Workspace()
        workspace.attach(self.lake, str(snapshot))
        log = MutationLog(oplog_path(snapshot))
        server = start_server(workspace, oplogs={self.lake: log})
        router = start_router(ReplicaSet(
            [Replica("primary", url=server.url, role="primary")]
        ))

        def stop() -> None:
            router.drain()
            server.drain()

        return router.server_address[1], stop

    def trace_problems(self, results, kernel_calls) -> List[str]:
        calls = sum(kernel_calls.get(r.rid, 0) for r in results)
        return ([f"write_mix reached the betweenness kernel {calls} times"]
                if calls else [])

    def counters(self, port: int) -> Dict[str, float]:
        counters = super().counters(port)
        router = get_json(port, "/cluster/stats")["router"]
        counters["router.retried"] = router["retried"]
        counters["router.bad_gateway"] = router["bad_gateway"]
        return counters

    def child_pids(self, port: int) -> List[int]:
        stats = get_json(port, "/cluster/stats")
        return [int(pid) for pid in
                stats.get("supervisor", {}).get("pids", {}).values()
                if pid is not None]

    def _cycle(self, table: Table, rng: random.Random) -> List[Op]:
        lake, name = self.lake, table.name
        columns = {column.name: list(column.values)
                   for column in table.iter_columns()}
        add = Op("mutate", "POST", f"/lakes/{lake}/tables",
                 json.dumps({"name": name, "columns": columns}).encode(),
                 expect=("mutation", name, len(self.reference.base) + 1))
        remove = Op("mutate", "DELETE",
                    f"/lakes/{lake}/tables/{urllib.parse.quote(name)}",
                    expect=("mutation", name, len(self.reference.base)))
        pages = -(-self.base_total // PAGE_LIMIT)
        first, second = (rng.randrange(pages) * PAGE_LIMIT for _ in "ab")
        return [
            add,
            detect_op("refill", lake, WARM_REQUEST, extra=name),
            page_op("page", lake, WARM_REQUEST, first, extra=name),
            remove,
            detect_op("refill", lake, WARM_REQUEST),
            page_op("page", lake, WARM_REQUEST, second),
            detect_op("hit", lake, WARM_REQUEST),
        ]

    def warmup(self) -> List[Op]:
        rng = random.Random(f"{self.seed}/write_mix/warmup")
        return self._cycle(self.warm_table, rng)

    def cycles(self) -> Iterator[List[Op]]:
        rng = random.Random(f"{self.seed}/write_mix")
        for table in itertools.cycle(self.pool):
            yield self._cycle(table, rng)

    def finish(self, port: int) -> Optional[str]:
        """Parity: the served ranking equals a rebuild of the final tables.

        Every pass ends on a whole cycle, so the final tables are the
        base lake, and the reference for a base-lake op is a
        from-scratch index over exactly those tables.
        """
        connection = Connection(port)
        try:
            result = connection.call(
                detect_op("final", self.lake, WARM_REQUEST), "final", {}
            )
        finally:
            connection.close()
        problem = self.check(result)
        return problem and f"parity after the pass: {problem}"


WORKLOADS = {w.name: w for w in (ColdDetect, WriteMix)}
