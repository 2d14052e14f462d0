"""Paths, environment and provenance shared by the benchmark scripts.

Only the standard library is imported here, so the entry point can
validate the checkout and report the environment before numpy or samdyn
load.
"""

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "samdyn"
REFERENCE = HERE / "reference" / "phase_grid.json"
RESULTS = HERE / "results"
WORK = HERE / "work"


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads(libs_dir: str) -> dict:
    """Thread count and build string of each OpenBLAS bundled in a wheel.

    numpy and scipy each ship their own copy; loading the same file again
    returns the handle the interpreter already holds, so this reads the
    live setting without changing it.
    """
    out = {}
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            threads = getattr(lib, name, None)
            if threads is not None:
                config = getattr(lib, name.replace("num_threads", "config"))
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                out[os.path.basename(path)] = {
                    "threads": int(threads()), "config": config().decode().strip()}
                break
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout's own repository, read from .git without
    running git (a checkout that is not a repository gives None, never a
    parent directory's repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_stats() -> dict:
    """Line count and content digest of the package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        blob = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    """Software, BLAS and CPU record stored with every result."""
    import numpy
    import scipy

    libs = {}
    for mod in (numpy, scipy):
        libs.update(_blas_threads(os.path.join(os.path.dirname(mod.__file__), "..",
                                               f"{mod.__name__}.libs")))
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": libs,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        **src_stats(),
    }
