"""Measurement helpers of the reconstruction benchmark.

The benchmark times the program from outside: :class:`Tracer` keeps the
benchmark's own spans around calls into public functions in memory, and
:meth:`Tracer.wrap` times a method of one program object by replacing it on
that instance only.  Nothing here is imported by, or patched into, the
program's modules.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Sequence

#: A slice latency tail needs this many samples beyond it ...
TAIL_BEYOND = 10
#: ... and a run needs this many samples before that percentile is a tail.
TAIL_MIN_SAMPLES = 40


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail(samples: Sequence[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns the value and a label with the sample count.  A run with fewer
    than forty samples has no such tail; it reports its maximum instead,
    and the label says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= TAIL_MIN_SAMPLES:
        return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} samples"
    return ordered[-1], f"max of {n} samples (fewer than {TAIL_MIN_SAMPLES}: no tail percentile)"


class Tracer:
    """In-memory spans: name, start, end, parent span and thread.

    Disabled tracers record nothing and wrap nothing, so untraced runs pay
    only the ``enabled`` test.  Self time is a span's duration minus the
    part its child spans cover.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attributes: Any):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "child": 0.0,
            "parent": stack[-1]["name"] if stack else None,
            "thread": threading.get_ident(),
            **attributes,
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1]["child"] += record["end"] - record["start"]
            with self._lock:
                self.spans.append(record)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as span ``name`` (this instance only)."""
        if not self.enabled:
            return
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, timed)

    def _named(self, name: str, since: float) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name and s["start"] >= since]

    def mean(self, name: str, *, since: float = float("-inf")) -> float:
        """Mean duration of the spans called ``name`` that started at ``since`` or later."""
        spans = self._named(name, since)
        return sum(s["end"] - s["start"] for s in spans) / len(spans) if spans else 0.0

    def write(self, path: str, extra: Iterable[dict] = ()) -> None:
        """Write the benchmark's spans, then ``extra`` records, as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"kind": "bench_span", **s}, default=str) + "\n")
            for r in extra:
                fh.write(json.dumps(r, default=str) + "\n")


def _blas_threads() -> str:
    """The thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def environment() -> dict[str, str]:
    """The environment block printed with every run."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", ""),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS", ""),
    }


def calibrate() -> float:
    """Seconds for a fixed GEMM plus a fixed Python loop.

    Timed in every run, so drift of the machine between runs can be told
    apart from drift of the program.
    """
    import numpy as np

    a = np.arange(256 * 256, dtype=float).reshape(256, 256) / 65536.0
    t0 = time.perf_counter()
    b = a
    for _ in range(20):
        b = a @ b
        b /= np.abs(b).max()
    acc = 0
    for i in range(200_000):
        acc += i & 7
    elapsed = time.perf_counter() - t0
    if not np.isfinite(b).all() or acc != 700_000:
        raise RuntimeError("calibration kernel produced a wrong result")
    return elapsed


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Summed peak resident memory (VmHWM) of this process and ``pids``."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
