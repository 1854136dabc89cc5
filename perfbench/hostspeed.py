"""Host-speed probe: how fast the CPUs ran during each timed interval.

On a shared host a CPU's speed drifts by up to half over seconds to
minutes, as neighbours load the physical cores under it; the thread CPU
time of a fixed pure-Python loop drifts with it, so the drift is not
steal time that a CPU-time clock would leave out.  A probe process runs
one thread pinned to each CPU the benchmark may use.  Every
:data:`INTERVAL` seconds each thread times :data:`LOOP` iterations of a
fixed loop in its own thread CPU time, so being preempted by the
program does not count, and appends ``cpu end_time cpu_seconds`` to a
file.  The loop costs about 1% of each CPU.

:meth:`HostSpeed.normalise` turns a wall time into *reference seconds*:
the wall time times :data:`REFERENCE_SECONDS` over the mean loop time
of the interval (mean per CPU, then over CPUs).  A pass that does the
same work in a slow spell and in a fast one reads about the same.

    python3 perfbench/hostspeed.py OUT_FILE

runs the probe until its standard input closes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Seconds between two samples of one CPU.
INTERVAL = 0.05

#: Iterations of the probe loop (about 0.7 ms of one CPU).
LOOP = 8000

#: Probe-loop CPU time that defines a reference second: about the loop's
#: time on the 2-vCPU, 2.0 GHz Xeon host the benchmark was sized on.
REFERENCE_SECONDS = 0.0008


def _spin() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def _sample(cpu: int, out, lock: threading.Lock) -> None:
    os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
    while True:
        started = time.thread_time()
        _spin()
        spent = time.thread_time() - started
        with lock:
            out.write(f"{cpu} {time.perf_counter()} {spent}\n")
        time.sleep(INTERVAL)


def _probe(path: str) -> None:
    out = open(path, "w", buffering=1)
    lock = threading.Lock()
    for cpu in sorted(os.sched_getaffinity(0)):
        threading.Thread(target=_sample, args=(cpu, out, lock),
                         daemon=True).start()
    sys.stdin.read()  # returns when the benchmark closes the pipe or dies


class HostSpeed:
    """The probe process and the samples it has written so far."""

    def __init__(self, directory: Path) -> None:
        self._path = directory / "hostspeed.txt"
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self._path)],
            stdin=subprocess.PIPE)
        self._samples: list[tuple[int, float, float]] = []
        self._offset = 0

    def close(self) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read(self) -> None:
        try:
            with open(self._path) as handle:
                handle.seek(self._offset)
                text = handle.read()
        except FileNotFoundError:
            return
        complete = text.rfind("\n") + 1  # a line may be half written
        self._offset += complete
        for line in text[:complete].splitlines():
            cpu, end, spent = line.split()
            self._samples.append((int(cpu), float(end), float(spent)))

    def loop_seconds(self, start: float, end: float) -> float:
        """Mean probe-loop time over ``[start, end]`` (``perf_counter``
        times), widened by one interval each side so a short window
        still holds a sample of every CPU."""
        self._read()
        start -= INTERVAL
        end += INTERVAL
        per_cpu: dict[int, list[float]] = {}
        for cpu, at, spent in self._samples:
            if start <= at <= end:
                per_cpu.setdefault(cpu, []).append(spent)
        if not per_cpu:
            raise RuntimeError("the host-speed probe wrote no samples")
        return statistics.fmean(statistics.fmean(v) for v in per_cpu.values())

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, in reference
        seconds."""
        return seconds * REFERENCE_SECONDS / self.loop_seconds(start, end)

    def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until every CPU has written a sample."""
        cpus = len(os.sched_getaffinity(0))
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            self._read()
            if len({cpu for cpu, _, _ in self._samples}) >= cpus:
                return
            if self._process.poll() is not None:
                break
            time.sleep(INTERVAL)
        raise RuntimeError("the host-speed probe did not start")


if __name__ == "__main__":
    _probe(sys.argv[1])
