"""Environment record attached to every benchmark result.

Everything here is read-only: interpreter and numpy versions, the BLAS
library numpy loaded and the thread count it reports, the CPUs this
process may run on, and the last-level cache size from sysfs.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads")


def blas_threads():
    """Thread count reported by the BLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() or "mkl" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        if not os.path.isfile(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def last_level_cache():
    """(level, size text) of the highest cache level cpu0 reports."""
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return best


def environment(numpy, transform_shape):
    """The record; transform_shape is the workload's largest transform."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    X, d = transform_shape.X, transform_shape.d
    llc = last_level_cache()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc": f"L{llc[0]} {llc[1]}" if llc else None,
        "largest_transform": {
            "shape": repr(transform_shape),
            "complex_vector_bytes_computed": X * 16,
            "int64_digit_matrix_bytes_computed": X * d * 8,
        },
    }
