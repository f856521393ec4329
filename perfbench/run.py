#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_detect --seed 1 --seconds 30 --trace 0

``--trace 0`` spawns the program as users run it (``domainnet serve``
or ``domainnet cluster``), sets it up several times, replays the
workload's fixed op sequence for ``--seconds`` (longer if a published
percentile still lacks samples), checks every response against an
in-process reference, and prints the end-to-end metrics.

``--trace 1`` makes one such untraced pass, then hosts the same stack
inside this process with spans around each layer's entry points,
replays the same sequence, and prints the per-layer metrics plus the
tracing overhead (traced against untraced).  Spans are written to
``.perfbench/traces/``.

The last line of standard output is the result object; the report on
standard error gives every op kind's sample count and percentiles and
the program's own counters.  Run it where ``src/repro`` is missing and
it exits with status 2 without printing a result.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: A pass never runs longer than this, whatever its sample counts.
HARD_LIMIT_S = 90.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def spawn_and_probe(workload, run_dir: Path, cpus):
    """Start the service; time spawn -> first correct response."""
    from procs import Service
    from wire import Connection

    service = Service(ROOT, workload.service_args(run_dir), run_dir, cpus)
    try:
        port = service.wait_banner()
        connection = Connection(port)
        result = connection.call(workload.probe(), "probe", {})
        elapsed = time.perf_counter() - service.started
        connection.close()
    except BaseException:
        service.kill()
        raise
    return service, port, elapsed, workload.check(result)


def replay(workload, port: int, seconds: float, tracer=None):
    """Warm up, then run the closed loop; returns (warm, results, secs)."""
    from percentiles import required_samples
    from wire import Connection

    interned: dict = {}
    connection = Connection(port)
    # The reference lake and rankings this process holds are not the
    # client's working set; keep the collector from rescanning them.
    gc.freeze()
    try:
        warm = [connection.call(op, f"w{n}", interned)
                for n, op in enumerate(workload.warmup())]
        need = required_samples(0.9)
        counts = dict.fromkeys((workload.main, "page"), 0)
        results = []
        start = time.perf_counter()
        for cycle in workload.cycles():
            for op in cycle:
                results.append(connection.call(
                    op, f"c{len(results)}", interned, tracer))
                if op.kind in counts:
                    counts[op.kind] += 1
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and min(counts.values()) >= need
            ):
                break
    finally:
        gc.unfreeze()
        connection.close()
    return warm, results, elapsed


class Pass:
    """One timed pass and what the oracle made of it."""

    def __init__(self, workload, warm, results, seconds, before, after):
        self.workload = workload
        self.results = results
        self.seconds = seconds
        self.deltas = {key: after[key] - before[key] for key in before}
        self.problems = [
            problem for problem in map(workload.check, warm) if problem
        ]
        self.failed = 0
        for result in results:
            problem = workload.check(result)
            if problem:
                self.failed += 1
                self.problems.append(problem)

    def latencies(self, kind: str):
        return [r.latency * 1000.0 for r in self.results
                if r.op.kind == kind and not r.error]

    def figures(self) -> dict:
        from percentiles import percentile
        figures = {"ops_per_s": len(self.results) / self.seconds}
        for role, kind in (("main", self.workload.main), ("page", "page")):
            samples = self.latencies(kind)
            figures[f"{role}_p50_ms"] = percentile(samples, 0.5)
            figures[f"{role}_p90_ms"] = percentile(samples, 0.9)
        return figures

    def report(self, label: str) -> None:
        from percentiles import TooFewSamples, percentile
        log(f"[{label}] {len(self.results)} ops in {self.seconds:.2f}s, "
            f"{self.failed} failed")
        for kind in self.workload.kinds:
            samples = self.latencies(kind)
            line = f"[{label}]   {kind:7s} n={len(samples)}"
            for q in (0.5, 0.9):
                try:
                    line += f" p{round(q * 100)}="
                    line += f"{percentile(samples, q):.3f}ms"
                except TooFewSamples:
                    line += "unpublished"
            log(line)
        log(f"[{label}]   counters: {json.dumps(self.deltas)}")
        for problem in self.problems[:5]:
            log(f"[{label}]   problem: {problem}")


def untraced(workload, seconds: float, run_dir: Path, setups: int):
    """Set up ``setups`` times, time a pass on the last service."""
    from procs import split_cpus

    setup_times, problems, service = [], [], None
    own_cpus = os.sched_getaffinity(0)
    split = split_cpus()
    if split:
        os.sched_setaffinity(0, split[0])
    try:
        for k in range(setups):
            service, port, elapsed, problem = spawn_and_probe(
                workload, run_dir / f"setup{k}", split and split[1])
            setup_times.append(elapsed)
            if problem:
                problems.append(f"set-up probe: {problem}")
            children = workload.child_pids(port)
            if k < setups - 1:
                service.stop(children)
        before = workload.counters(port)
        warm, results, elapsed = replay(workload, port, seconds)
        after = workload.counters(port)
        final = workload.finish(port)
        service.stop(children)
        service = None
    finally:
        if service is not None:
            service.kill()
        os.sched_setaffinity(0, own_cpus)
    measured = Pass(workload, warm, results, elapsed, before, after)
    measured.problems[:0] = problems + ([final] if final else [])
    return measured, setup_times


def traced(workload, seconds: float, run_dir: Path):
    """Host the stack in-process with spans; returns (pass, tracer)."""
    from tracing import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        with tracer.request("setup"):
            port, stop = workload.host_traced(run_dir)
        try:
            before = workload.counters(port)
            warm, results, elapsed = replay(workload, port, seconds, tracer)
            after = workload.counters(port)
            final = workload.finish(port)
        finally:
            stop()
    finally:
        uninstall()
    measured = Pass(workload, warm, results, elapsed, before, after)
    if final:
        measured.problems.insert(0, final)
    return measured, tracer


def per_layer(workload, plain: "Pass", spanned: "Pass", tracer) -> dict:
    from tracing import kernel_calls_by_request, layer_metrics

    metrics = layer_metrics(tracer, spanned.results, workload.main)
    deltas = spanned.deltas
    lookups = deltas["index.hits"] + deltas["index.misses"]
    metrics.update({
        "index.hit_ratio": deltas["index.hits"] / lookups if lookups else 0.0,
        "index.misses": deltas["index.misses"],
        "index.coalesced": deltas["index.coalesced"],
        "server.served": deltas["server.served"],
        "server.errors": deltas["server.errors"],
        "gate.rejected": deltas["gate.rejected"],
        "router.retried": deltas.get("router.retried", 0),
        "router.bad_gateway": deltas.get("router.bad_gateway", 0),
        "trace.ops": len(spanned.results),
    })
    untraced_figures, traced_figures = plain.figures(), spanned.figures()
    for name in ("main_p50_ms", "page_p50_ms", "ops_per_s"):
        metrics[f"overhead.{name.replace('_ms', '')}_ratio"] = (
            traced_figures[name] / untraced_figures[name])
    spanned.problems += workload.trace_problems(
        spanned.results, kernel_calls_by_request(tracer))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import ensure_inputs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
        return 2
    inputs = ensure_inputs(WORK / "cache")
    workload = WORKLOADS[args.workload](inputs, args.seed)
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            plain, _ = untraced(workload, args.seconds, run_dir / "plain", 1)
            plain.report("untraced")
            spanned, tracer = traced(workload, args.seconds,
                                     run_dir / "traced")
            spanned.report("traced")
            metrics = per_layer(workload, plain, spanned, tracer)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{args.workload}-{args.seed}.jsonl")
            passes = (plain, spanned)
        else:
            plain, setups = untraced(workload, args.seconds, run_dir,
                                     SETUPS)
            plain.report("untraced")
            log("[setup] " + " ".join(f"{s:.3f}s" for s in setups))
            metrics = dict(plain.figures())
            metrics["setup_s"] = statistics.median(setups)
            passes = (plain,)
    finally:
        workload.reference.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        log(f"metrics {sorted(metrics)} do not match the declared "
            f"{sorted(units)}")
        return 1
    print(json.dumps({
        "correct": not any(p.problems for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
