"""Exact-computation laboratory for random-walk mixing on regular graphs.

Construct Ramanujan and near-Ramanujan graph families, evolve simple and
nonbacktracking walk distributions exactly, decompose the nonbacktracking
operator, and compare measured mixing behavior against closed-form
predictions.
"""

__version__ = "0.1.0"

__all__ = ["backend_name", "__version__"]


def backend_name() -> str:
    """Name of the kernel backend, always 'numpy': the benchmark records it."""
    return "numpy"
