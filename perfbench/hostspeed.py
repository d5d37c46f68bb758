"""Host-speed calibration: a fixed kernel timed between measurements.

On a shared machine the speed of the host drifts by tens of percent
over tens of seconds (CPU time tracks wall time, so this is not
scheduling but slower execution). The benchmark times this kernel
before and after every measured operation; dividing an operation's
time by the kernel's time around it removes most of the drift.
Reported times are scaled back to a reference host on which one kernel
run takes ``REFERENCE_S`` seconds.

The kernel calls nothing of the program, but it runs in the same
process (also from a signal handler in the middle of a race), so its
time can depend on the cache, allocator and heap state the program
leaves behind. A program change that degrades that state slows the
kernel too, and part of the slowdown is then divided out of the
scaled figures. The raw times and kernel samples therefore go into the
run record: compare ``kernel_ms_median`` between the runs of parent
and change before trusting a scaled difference. The same kernel
median on both sides with a slower workload is a change of the
program. A slower kernel on one side is drift of the host or a change
that reached the kernel; read the raw times beside the scaled ones
then.

The kernel mixes what the simulator spends its time on: small-object
Python loops and dict updates, small-array NumPy calls (stable
argsort, scatter-add, gathers, cumulative sums) and JSON encoding.
"""

from __future__ import annotations

import gc
import json
import signal
import subprocess
import sys
import time

import numpy as np

#: Kernel time of the reference host the reported figures are scaled to.
REFERENCE_S = 0.020

#: Arguments of the set-up reference: a fresh interpreter importing
#: libraries the program's set-up imports, and nothing of the program.
SPAWN_REFERENCE = ("-c", "import numpy, scipy.sparse")
#: Set-up reference time of the reference host ``setup_s`` is scaled to.
SPAWN_REFERENCE_S = 0.5


class _Cell:
    __slots__ = ("src", "dst", "load")

    def __init__(self, src: int, dst: int, load: float) -> None:
        self.src = src
        self.dst = dst
        self.load = load


def kernel() -> float:
    """Run the fixed calibration work once; return its wall seconds."""
    rng = np.random.default_rng(12345)
    # The collector's pauses depend on what the program left on the
    # heap; keep them out of the host's speed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_work(rng)
    finally:
        if collecting:
            gc.enable()


def _timed_work(rng: np.random.Generator) -> float:
    start = time.perf_counter()
    total = 0.0
    for _ in range(3):
        cells = [_Cell(i % 31, (i * 7) % 29, float(i % 13))
                 for i in range(3000)]
        table: dict = {}
        for cell in cells:
            key = (cell.src, cell.dst)
            table[key] = table.get(key, 0.0) + cell.load
        total += sum(v for v in table.values() if v > 3.0)
        for _ in range(40):
            src = rng.integers(0, 32, 256)
            dst = rng.integers(0, 32, 256)
            pid = src * 32 + dst
            ordered = pid[np.argsort(pid, kind="stable")]
            new_group = np.empty(len(ordered), dtype=bool)
            new_group[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
            load = np.zeros((32, 32))
            np.add.at(load, (src, dst), 1.0)
            total += float(np.cumsum(load[src, dst])[-1])
            total += int(new_group.sum())
        sample = {str(k): v for k, v in list(table.items())[:200]}
        total += len(json.dumps(sample, sort_keys=True))
    elapsed = time.perf_counter() - start
    if total <= 0:  # keeps the work observable
        raise RuntimeError("calibration kernel produced nothing")
    return elapsed


class HostClock:
    """Times operations against interleaved kernel samples."""

    def __init__(self) -> None:
        kernel()  # warm caches and the NumPy dispatch paths
        self.samples = [kernel()]
        self.factor = REFERENCE_S / self.samples[0]

    def time(self, fn, *args, sample_every: float | None = None,
             **kwargs):
        """Run ``fn``; return ``(result, raw_s, scaled_s)``, where
        ``scaled_s`` is the time on the reference host.

        The kernel runs after ``fn``. With ``sample_every`` (seconds)
        it also runs inside ``fn``, from an interval-timer signal
        handler on this (the main) thread, so a long operation is
        scaled piece by piece as the host's speed changes under it;
        the handler's own time is left out of ``raw_s``. Use it only
        where ``fn`` runs in this thread alone: a kernel run from the
        handler would compete with any other process or thread doing
        the measured work.
        """
        # (start, end, kernel seconds) of every sample, in order.
        marks = [(None, time.perf_counter(), self.samples[-1])]

        def tick(signum, frame) -> None:
            begin = time.perf_counter()
            took = kernel()
            marks.append((begin, time.perf_counter(), took))

        previous = None
        if sample_every:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, sample_every,
                             sample_every)
        try:
            result = fn(*args, **kwargs)
        finally:
            if sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        finished = time.perf_counter()
        after = kernel()
        self.samples.extend(took for _, _, took in marks[1:])
        self.samples.append(after)
        marks.append((finished, None, after))
        raw = scaled = 0.0
        for (_, resumed, before), (paused, _, next_) in zip(marks,
                                                            marks[1:]):
            raw += paused - resumed
            scaled += (paused - resumed) * REFERENCE_S / (
                (before + next_) / 2)
        #: Reference-host seconds per host second over the last call;
        #: scales times taken inside ``fn`` the same way.
        self.factor = scaled / raw if raw > 0 else REFERENCE_S / after
        return result, raw, scaled

    def sample(self) -> None:
        """Take a kernel sample now (after unmeasured work, so the next
        :meth:`time` starts from the host's current speed)."""
        self.samples.append(kernel())

    def record(self) -> dict:
        """Kernel samples of the run, for the run record."""
        ordered = sorted(self.samples)
        return {"kernel_ms_median": 1e3 * ordered[len(ordered) // 2],
                "kernel_ms_min": 1e3 * ordered[0],
                "kernel_ms_max": 1e3 * ordered[-1],
                "kernel_samples": len(ordered)}


def spawn_reference() -> float:
    """Run the set-up reference once; return its wall seconds.

    Set-up is spawning an interpreter and importing modules, and this
    child spends its time the same way. Over 101 set-ups of
    ``cori_week`` (2-core x86-64 container, Python 3.11.7), the
    quartile spread over median of single set-up times was 0.20 raw,
    0.17 divided by :func:`kernel` before it, 0.14 divided by an
    ``import numpy`` child and 0.07 divided by this one.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, *SPAWN_REFERENCE], check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start
