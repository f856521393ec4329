"""Spawn ``domainnet`` CLI processes and stop them cleanly.

Every service runs in its own session (process group), prints a banner
with its bound port, and is stopped with SIGINT so it drains in-flight
requests.  A stop fails when the process exits non-zero or when a
process it spawned (a cluster's replicas) is still alive afterwards,
so a leaked replica never takes a core from the next run.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, List, Optional

BANNER = re.compile(r" on http://[^\s:]+:(\d+)")


def split_cpus():
    """``(load generator CPUs, service CPUs)``, or ``None`` on one CPU.

    On a small host the load generator and the service otherwise trade
    places between cores from one second to the next, and latency
    follows; pinning them apart keeps each on a core of its own.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class ServiceFailed(RuntimeError):
    """A spawned service misbehaved: no banner, bad exit, or a leak."""


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"


class Service:
    """One ``python -m repro.cli <args>`` child of the benchmark."""

    def __init__(self, root: Path, args: List[str], cwd: Path,
                 cpus: Optional[set] = None) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        cwd.mkdir(parents=True, exist_ok=True)
        self.log_path = cwd / "service.log"
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=str(cwd),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            start_new_session=True,
        )
        if cpus:
            # Processes the service spawns later (a cluster's replicas)
            # inherit this affinity.
            os.sched_setaffinity(self.process.pid, cpus)
        self.port: Optional[int] = None
        self.lines: List[str] = []
        self._banner = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))
            match = BANNER.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._banner.set()
        self._banner.set()

    def wait_banner(self, timeout: float = 60.0) -> int:
        """Block until the banner names the bound port; return it."""
        self._banner.wait(timeout)
        if self.port is None:
            self.kill()
            raise ServiceFailed(
                "service printed no banner; output:\n"
                + "\n".join(self.lines[-20:]) + "\n"
                + self.log_path.read_text()[-2000:]
            )
        return self.port

    def stop(self, children: Iterable[int] = (), timeout: float = 30.0):
        """SIGINT drain; fail on a non-zero exit or a surviving child."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServiceFailed(f"service ignored SIGINT for {timeout}s")
        self._reader.join(timeout)
        self._log.close()
        deadline = time.monotonic() + 10.0
        survivors = [pid for pid in children if pid_alive(pid)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors if pid_alive(pid)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while any(pid_alive(pid) for pid in survivors):
            time.sleep(0.05)
        if code != 0:
            raise ServiceFailed(
                f"service exited with {code}; stderr tail:\n"
                + self.log_path.read_text()[-2000:]
            )
        if survivors:
            raise ServiceFailed(f"child processes survived: {survivors}")

    def kill(self) -> None:
        """Last resort: SIGKILL the whole process group and reap it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        self._reader.join(10.0)
        self._log.close()
