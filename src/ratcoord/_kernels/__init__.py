"""Hot-loop kernels in pure Python, with one compiled twin.

Only ``linear_points_in_box`` has a compiled twin (``_speed``, built from
Cython).  It is used when it imported successfully and the problem fits its
fixed-width integer encoding; otherwise each call transparently falls back
to the reference implementation in :mod:`ratcoord._kernels.pure`.  The other
kernels (cover BFS, run enumeration, ``linear_point_counts``) always run the
pure ones.  Set ``RATCOORD_PURE=1`` to force the pure backend (used by the
benchmark and the backend-equivalence tests).
"""

from __future__ import annotations

import functools
import importlib
import os

from . import pure

_speed = None
if not os.environ.get("RATCOORD_PURE"):
    try:
        _speed = importlib.import_module("ratcoord._kernels._speed")
    except ImportError:
        _speed = None

BACKEND = "compiled" if _speed is not None else "python"


def _dispatch(name):
    """Kernel ``name``: the compiled one, or the pure one on OverflowError."""
    reference = getattr(pure, name)
    if _speed is None:
        return reference
    compiled = getattr(_speed, name)

    @functools.wraps(reference)
    def kernel(*args):
        try:
            return compiled(*args)
        except OverflowError:
            return reference(*args)

    return kernel


linear_points_in_box = _dispatch("linear_points_in_box")
bfs_layer_counts = pure.bfs_layer_counts  # no compiled twin
accepting_run_profiles = pure.accepting_run_profiles  # no compiled twin
linear_point_counts = pure.linear_point_counts  # no compiled twin
