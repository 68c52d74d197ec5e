"""Child processes, per-process CPU and memory readings, and the run directory.

Every child is started through ``Children`` so that one ``close()`` kills and
reaps all of them, whatever way the run ends.
"""

from __future__ import annotations

import os
import resource
import signal
import socket
import subprocess
import sys
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Children:
    """Owns every child process of one run and reaps them on close."""

    def __init__(self, root: str, work: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.work = work
        self._procs: list[subprocess.Popen] = []

    def spawn(self, args: list[str], log_name: str, **popen) -> subprocess.Popen:
        log = open(os.path.join(self.work, log_name), "wb")
        try:
            popen.setdefault("stdout", subprocess.DEVNULL)
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    stderr=log, **popen)
        finally:
            log.close()
        self._procs.append(proc)
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None:
                    pipe.close()
        self._procs.clear()


class BrokerProcess:
    """``maliot broker`` in a child process on a free port.

    ``ready_s`` is launch-to-listening wall time: interpreter start, imports
    and log recovery.  Readiness is read from the broker's own log line, so
    no probe connection is ever made.
    """

    def __init__(self, children: Children, data_dir: str, name: str,
                 timeout_s: float = 30.0):
        self.port = free_port()
        self.log_path = os.path.join(children.work, f"{name}.log")
        t0 = time.monotonic()
        self.proc = children.spawn(
            ["-m", "maliot.cli", "broker", "--data-dir", data_dir,
             "--port", str(self.port)],
            f"{name}.log",
        )
        self.data_dir = data_dir
        deadline = t0 + timeout_s
        while not self._listening():
            if self.proc.poll() is not None:
                raise RuntimeError(f"broker exited: {self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"broker not listening: {self.log_tail()}")
            time.sleep(0.002)
        self.ready_s = time.monotonic() - t0

    def _listening(self) -> bool:
        with open(self.log_path, "rb") as fh:
            return b"broker listening" in fh.read()

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        Children.stop(self.proc)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"broker exit {self.proc.returncode}: {self.log_tail()}")


def make_workdir(root: str) -> str:
    """A fresh directory for one run, inside the checkout."""
    base = os.path.join(root, ".bench_runs")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path
