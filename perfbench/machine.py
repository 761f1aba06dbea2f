"""Machine record and a numpy triad for the sustainable memory bandwidth."""

import os
import platform
import statistics
import time

import numpy as np
import scipy

_FALLBACK_LLC = 32 << 20


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes():
    """Size of the largest cache level cpu0 reports, in bytes."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        entries = os.listdir(base)
    except OSError:
        return _FALLBACK_LLC
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                raw = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        size = int(raw.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1] or _FALLBACK_LLC


def _blas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))
    except (TypeError, KeyError):
        return "unknown"


def record(blas_threads):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "llc_mb": llc_bytes() / 1e6,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": blas_threads,
    }


def triad_gbs(array_bytes, passes=5):
    """Median bandwidth of a = b + s*c over `passes` sweeps, in GB/s.

    Counts 24 bytes per element (read b and c, write a), as STREAM
    does. The sweep runs in blocks so that s*c stays in cache and only
    the three arrays stream through memory.
    """
    n = array_bytes // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    block = 1 << 16
    tmp = np.empty(block)
    rates = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            np.multiply(c[lo:hi], 3.0, out=tmp[:hi - lo])
            np.add(b[lo:hi], tmp[:hi - lo], out=a[lo:hi])
        rates.append(24 * n / (time.perf_counter() - t0) / 1e9)
    if a[-1] != 7.0:
        raise RuntimeError("triad produced a wrong result")
    return statistics.median(rates)
