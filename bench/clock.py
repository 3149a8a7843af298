"""CPU clock and machine-speed probe.

On a shared host the same work takes a varying amount of CPU time: while
neighbours load the core, interpreted code here has been measured to run up
to 40% slower for tens of seconds at a time, and numpy code about half as
much.  So the benchmark runs a fixed probe between items and scales every
time by REF_PROBE_S / probe time measured around it.  The probe is an
interpreter loop plus C-level passes over memory: from the standard library
for workloads that do not use numpy, from numpy for those that do.  Reported
times therefore read as CPU time on a machine where the probe takes
REF_PROBE_S; raw CPU times stay in the run record.
"""

from __future__ import annotations

import random
import resource
import statistics
import time

REF_PROBE_S = {"stdlib": 0.0025, "numpy": 0.0030}  # idle 2.1 GHz Xeon vCPU
PROBE_EVERY_S = 0.2  # CPU seconds of measured work between probes
WINDOW = 5  # probes on each side of an item that set its speed

_RNG = random.Random(0)
_FLOATS = [_RNG.random() for _ in range(8000)]
_BYTES = bytes(range(256)) * 2000


def _stdlib_pass() -> None:
    sorted(_FLOATS)
    sum(_FLOATS)
    _BYTES.count(7)


def _numpy_pass():
    import numpy as np

    z = np.exp(2j * np.pi * np.arange(90000) / 90000)
    k = np.arange(90000, dtype=np.int64)

    def run() -> None:
        c = np.cumsum(z)
        (c * c.conj()).real.sum()
        (k * 7919 % 89989).max()

    return run


def cpu_clock() -> float:
    """CPU seconds used by this process and the children it has waited for.

    The benchmark runs one thread and does no I/O, so CPU time is the time
    its work takes, without the time the host gave to other processes.  Work
    handed to other threads or child processes is still counted.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def make_probe(kind: str):
    """A probe: CPU seconds for a fixed amount of interpreter work plus a
    C-level pass of the given kind ('stdlib' or 'numpy')."""
    memory_pass = _numpy_pass() if kind == "numpy" else _stdlib_pass

    def probe() -> float:
        t0 = time.process_time()
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        memory_pass()
        return time.process_time() - t0

    return probe


class Speedometer:
    """Probes taken while a run measures, and the scale they give each item."""

    def __init__(self, kind: str):
        self.ref = REF_PROBE_S[kind]
        self.probe = make_probe(kind)
        self.samples: list[float] = []
        self._since = 0.0

    def tick(self, cpu_s: float) -> int:
        """Account cpu_s of measured work; probe when due.  Returns the index
        of the latest probe, which places the next item between probes."""
        self._since += cpu_s
        if not self.samples or self._since >= PROBE_EVERY_S:
            self.samples.append(self.probe())
            self._since = 0.0
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """REF_PROBE_S over the median probe near probe `index`."""
        lo = max(0, index - WINDOW + 1)
        near = self.samples[lo : index + WINDOW + 1]
        return self.ref / statistics.median(near)


def probe_scale(repeats: int = 5) -> float:
    """Scale from a few back-to-back standard-library probes (around set-up,
    where importing numpy first would hide its import time)."""
    probe = make_probe("stdlib")
    return REF_PROBE_S["stdlib"] / statistics.median(probe() for _ in range(repeats))
