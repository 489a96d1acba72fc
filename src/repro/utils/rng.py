"""Seeded random-number-generator helper.

Every stochastic component in the library takes an explicit
``numpy.random.Generator`` so experiments are reproducible end to end. This
helper centralizes their construction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``Generator``; pass through if one is already supplied.

    ``None`` yields a nondeterministic generator (OS entropy), which is
    only appropriate for exploratory use — experiments should always seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
