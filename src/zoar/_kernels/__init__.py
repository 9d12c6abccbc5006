"""Kernel surfaces.

Every surface comes from :mod:`.pure`, the written spec of the bit
contract, except ``materialize_block``: when the C extension ``_ckern``
(built from ``_ckern.c``) imports, directions are filled by it, with the
same bits as the pure implementation, so the choice affects speed only.
``BACKEND`` names the one in use, ``"compiled"`` or ``"pure"``.
"""

import numpy as np

from . import pure
from .bits import GOLDEN, MASK64, fold, mix64, np_fold, np_mix64, stream_words
from .pure import (COORDINATE, GAUSSIAN, SPHERE, materialize, uniform_doubles,
                   weighted_direction_sum)

try:
    from . import _ckern
except ImportError:
    _ckern = None


def compiled_materialize_block(seeds, tag: int, dim: int) -> np.ndarray:
    """``pure.materialize_block`` through the C kernel; identical bits."""
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    out = np.empty(seeds.shape + (dim,))
    _ckern.fill_directions(seeds, tag, out)
    return out


if _ckern is None:
    BACKEND = "pure"
    materialize_block = pure.materialize_block
else:
    BACKEND = "compiled"
    materialize_block = compiled_materialize_block
