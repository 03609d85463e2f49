"""Built-in scalar observables with analytic Lipschitz constants.

Each observable carries its Lipschitz constant L(h) and sup norm
||h||_inf for reference.  The bound formulas do not read them: they take
``lipschitz_L`` and ``sup_norm`` from the config's ``inputs`` (default 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Observable", "OBSERVABLES", "get_observable"]


@dataclass(frozen=True)
class Observable:
    name: str
    fn: Callable
    lipschitz: float
    sup_norm: float

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
    "coordinate": Observable("coordinate", _coord, lipschitz=1.0, sup_norm=1.0),
    "centered": Observable("centered", _centered, lipschitz=1.0, sup_norm=0.5),
    "zero": Observable("zero", _zero, lipschitz=0.0, sup_norm=0.0),
    "tent": Observable("tent", _tent, lipschitz=1.0, sup_norm=0.5),
}


def get_observable(name: str) -> Observable:
    try:
        return OBSERVABLES[name]
    except KeyError:
        raise KeyError(f"unknown observable {name!r}; have {sorted(OBSERVABLES)}") from None
