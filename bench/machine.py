"""Machine and build provenance recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Dict, Optional

_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                "openblas_get_config")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> Dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out["L" + level] = _read(str(index / "size")).strip()
    return out


def _ram_mb() -> Optional[float]:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root``, read without running git."""
    git = root / ".git"
    head = _read(str(git / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    value = _read(str(git / ref)).strip()
    if value:
        return value
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine(root: Path) -> Dict[str, object]:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "commit": git_commit(root),
    }


def blas_info() -> Dict[str, object]:
    """BLAS vendor, version and thread count of the loaded OpenBLAS.

    Call after numpy is imported; reads the mapped libraries of this
    process to find it.
    """
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info: Dict[str, object] = {"name": blas.get("name"), "version": blas.get("version"),
                               "threads": None}
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREADS:
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_int
                info["threads"] = getattr(lib, name)()
                break
        for name in _BLAS_CONFIG:
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                info["config"] = getattr(lib, name)().decode()
                break
    return info
