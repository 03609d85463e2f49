"""Built-in scalar observables h of the Birkhoff sums, by name.

An observable is its function alone.  The bounds take its constants L(h)
and ||h||_inf from the config's ``inputs`` (``lipschitz_L`` and
``sup_norm``, default 1); the README lists them for each built-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Observable", "OBSERVABLES"]


@dataclass(frozen=True)
class Observable:
    fn: Callable

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _coord(x):
    return x


def _centered(x):
    return x - 0.5


def _zero(x):
    return np.zeros_like(x)


def _tent(x):
    # distance to 1/2 on [0, 1]; 1-Lipschitz test function
    return np.abs(x - 0.5)


OBSERVABLES: dict[str, Observable] = {
    "coordinate": Observable(_coord),
    "centered": Observable(_centered),
    "zero": Observable(_zero),
    "tent": Observable(_tent),
}
