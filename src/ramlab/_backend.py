"""Kernel backend selection.

Hot kernels other than the numpy-only all-sources BFS sweep and walk steps
ship in two implementations: numba ``@njit`` and pure numpy. numba is an optional extra
(``pip install -e .[numba]``). The numba path is used when numba imports
cleanly, unless the environment variable ``RAMLAB_PURE_NUMPY`` is set to
``1``/``true``/``yes`` before the package is imported, which forces the
numpy path (useful for debugging).
"""

import os

PURE_NUMPY_ENV = "RAMLAB_PURE_NUMPY"

try:
    from numba import njit  # noqa: F401

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """Decorator stand-in so kernel definitions import without numba."""

        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


def _forced_numpy() -> bool:
    return os.environ.get(PURE_NUMPY_ENV, "0").strip().lower() in ("1", "true", "yes")


USING_NUMBA = NUMBA_AVAILABLE and not _forced_numpy()


def backend_name() -> str:
    """Name of the active kernel backend: 'numba' or 'numpy'."""
    return "numba" if USING_NUMBA else "numpy"
