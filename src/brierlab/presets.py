"""Synthetic empirical pools for the bundled grids.

The study grids themselves live only in ``configs/*.json``. Two of the full
grid's distributions are empirical pools standing in for fitted per-subject
risks at incidences 7% and 26.3%; this module generates them from the study
seed (``scripts/generate_pools.py`` writes them to ``configs/pools/``), and
they are clearly labeled synthetic.
"""

from __future__ import annotations

from .dgm import derive_stream, make_synthetic_pool
from .validation import check_integers

__all__ = [
    "DEFAULT_SEED",
    "FULL_GRID_INCIDENCES",
    "synthetic_pools",
]

DEFAULT_SEED = 20250810

# Target incidences of the two synthetic empirical pools.
FULL_GRID_INCIDENCES = (0.07, 0.263)

# Two-element stream addresses (tag, pool index) for pool generation. Cell
# streams use three elements for q and y, (cell, block, 0 or 2), and four for
# transform noise, (cell, block, 1, t), so these can never collide with them.
_POOL_STREAM_TAG = 1_000_003


def synthetic_pools(seed: int, pool_size: int = 5000):
    """The two synthetic stand-in pools (7% and 26.3% incidence) for a seed, an integer >= 0."""
    check_integers(("seed", seed, 0))
    names = ("osteoporosis-synthetic", "smoking-synthetic")
    pools = []
    for index, (incidence, name) in enumerate(zip(FULL_GRID_INCIDENCES, names)):
        rng = derive_stream(seed, _POOL_STREAM_TAG, index)
        pools.append(
            make_synthetic_pool(incidence, size=pool_size, rng=rng, label=name)
        )
    return pools
