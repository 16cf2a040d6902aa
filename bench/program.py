"""Locate the program under test: the `edgesub` package in the checkout's `src/`.

Importing this module pins every BLAS library to one thread, so it must be
imported before numpy.  The benchmark measures the sources next to it and
nothing installed elsewhere: without `src/edgesub` it stops with an error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no `src/edgesub` package to measure."""


def import_edgesub():
    """Import `edgesub` from the checkout's `src/` and return the package."""
    package_dir = SRC / "edgesub"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no edgesub package at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgesub

    if Path(edgesub.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"edgesub was imported from {edgesub.__file__}, not {package_dir}")
    return edgesub
