"""The config schema: rules, the table of each block, their readers, and
:class:`ExperimentConfig`.

A rule is (what, test(value, space), convert): the values ``test``
accepts, on the system's space where that matters (``{space}`` in
``what``), and what ``convert`` reads from them.  A table maps each key of
a block to (rule, default): None leaves the key out, ``...`` makes it
needed.  ``read_kind`` refuses a key that its kind's table lacks; ``read``
ignores it.  Every reader raises :class:`ConfigError`, the one error on
which ``rdslab`` exits 2.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .observables import OBSERVABLES
from .spaces import Interval

__all__ = ["ConfigError", "number", "integer", "one_of", "list_of", "check", "read", "read_kind",
           "checked", "CONFIG", "SYSTEMS", "MAPS", "SPACES", "REFERENCES", "PARAMS",
           "ExperimentConfig"]


class ConfigError(ValueError):
    """A config the experiment cannot run on, named by block and key."""


def _number(v) -> bool:
    """A JSON number that is finite as a double."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def number(what: str, ok=lambda v: True) -> tuple:
    """The rule of a finite number that ``ok`` accepts, read as a float."""
    return what, lambda v, space: _number(v) and ok(v), float


REAL = number("a finite number")
POSITIVE = number("a positive number", lambda v: v > 0)
NONNEGATIVE = number("a number >= 0", lambda v: v >= 0)
TEXT = ("a string", lambda v, space: isinstance(v, str), str)
OBJECT = ("an object", lambda v, space: isinstance(v, dict), lambda v: v)


def integer(minimum: int) -> tuple:
    """The rule of an integral number >= ``minimum`` (3 or 3.0), read as an int."""
    return (f"an integer >= {minimum}",
            lambda v, space: _number(v) and float(v).is_integer() and v >= minimum, int)


def one_of(names, convert=str) -> tuple:
    """The rule of a string among ``names``, read by ``convert``."""
    return f"one of {', '.join(names)}", lambda v, space: isinstance(v, str) and v in names, convert


def list_of(rule: tuple, least: int = 0) -> tuple:
    """The rule of a list of at least ``least`` entries, each read by ``rule``."""
    what, test, convert = rule
    return (f"a {'nonempty ' if least else ''}list, each entry {what}",
            lambda v, space: isinstance(v, (list, tuple)) and len(v) >= least
            and all(test(x, space) for x in v), lambda v: [convert(x) for x in v])


def check(rule: tuple, value, name: str, space=None):
    """``value`` read by ``rule``; a ConfigError naming ``name`` unless the
    rule accepts it."""
    what, test, convert = rule
    if not test(value, space):
        raise ConfigError(f"{name} must be {what.format(space=space)}, got {value!r}")
    return convert(value)


def read(block: dict, keys: dict, where: str, space=None) -> dict:
    """The value of each key of ``keys`` (key -> (rule, default)) in
    ``block``, which ``where`` names."""
    out = {}
    for key, (rule, default) in keys.items():
        value = block.get(key, default)
        if value is ...:
            raise ConfigError(f"{where} needs {key!r}")
        out[key] = None if value is None and key not in block else check(
            rule, value, f"{where} {key!r}", space)
    return out


def read_kind(block, table: dict, where: str, label: str, space=None) -> tuple:
    """(kind, values) of an object whose ``kind`` is a key of ``table``,
    its values read by ``table[kind]``; any other key is refused."""
    kind = check(OBJECT, block, where).get("kind")
    if not (isinstance(kind, str) and kind in table):
        raise ConfigError(f"{where} needs a {label} 'kind' of {', '.join(table)}, got {kind!r}")
    where = f"{where}: {label} kind {kind!r}"
    unknown = [key for key in block if key != "kind" and key not in table[kind]]
    if unknown:
        raise ConfigError(f"{where} has no key {unknown[0]!r}; it reads {['kind', *table[kind]]}")
    return kind, read(block, table[kind], where, space)


def checked(where: str, make, refusal=ValueError):
    """``make()``; a ``refusal`` it raises (a range that a constructor or a
    check refuses) as a ConfigError prefixed with ``where``."""
    try:
        return make()
    except refusal as e:
        raise ConfigError(f"{where}: {e}") from None


POINT = ("a finite number in {space}", lambda v, space: _number(v) and not (
    isinstance(space, Interval) and not space.a <= v <= space.b), float)
START = ("{space.m} finite numbers, not all 0", lambda v, space: isinstance(
    v, (list, tuple, np.ndarray)) and len(v) == space.m and all(map(_number, v)) and any(v),
         lambda v: np.asarray(v, dtype=float))
_ROWS, _POSITIVES = list_of(list_of(REAL), 1), list_of(POSITIVE, 1)
MATRIX = ("a square list of lists of finite numbers", lambda v, space: _ROWS[1](v, space)
          and all(len(r) == len(v) for r in v), _ROWS[2])
T_LADDER = ("a strictly increasing nonempty list of positive numbers", lambda v, space:
            _POSITIVES[1](v, space) and all(a < b for a, b in zip(v, v[1:])), _POSITIVES[2])
ATOMS = ("a nonempty list of [map, weight] pairs",
         lambda v, space: isinstance(v, list) and len(v) > 0, lambda v: v)
PAIR = ("a [map, weight] pair", lambda v, space: isinstance(v, list) and len(v) == 2, tuple)
# a null space is no space block: the system's maps decide
SPACE = ("an object", lambda v, space: v is None or isinstance(v, dict), lambda v: v)
H = one_of(OBSERVABLES, OBSERVABLES.__getitem__)  # the h of a Birkhoff sum

# the fields of ExperimentConfig
CONFIG = {"system": (OBJECT, ...), "observable": (TEXT, ...), "params": (OBJECT, ...),
          "inputs": (OBJECT, ...), "n": (integer(1), ...), "trials": (integer(1), ...),
          "seed": (integer(0), ...), "t_ladder": (T_LADDER, ...), "bound": (TEXT, ...)}
SYSTEMS = {"halving-ifs": {}, "moebius-uniform": {"lo": (REAL, 1.0), "hi": (REAL, 2.0)},
           "moebius-two-atom": {"alpha1": (REAL, 1.0), "alpha2": (REAL, 2.0),
                                "weight1": (REAL, 0.5)},
           "identity": {}, "atoms": {"atoms": (ATOMS, ...), "space": (SPACE, None)}}
MAPS = {"moebius": {"alpha": (REAL, ...)}, "polynomial": {"alpha": (REAL, ...)},
        "affine": {"slope": (REAL, ...), "offset": (REAL, ...)},
        "projective": {"matrix": (MATRIX, ...),
                       "chart": (one_of(("projective", "circle")), "projective")}}
SPACES = {"interval": {"a": (REAL, 0.0), "b": (REAL, 1.0)}, "circle": {},
          "projective": {"m": (integer(2), 2)}}
# the reference measure of the kappa observables (``params.reference``)
REFERENCES = {"lebesgue": {"atoms": (integer(1), 512)},
              "simulate": {"burn_in": (integer(0), 1000), "samples": (integer(1), 2000),
                           "stride": (integer(1), 1)}}
# the params of each command and tail observable; ``x0`` and ``start``
# (``harness.orbit_start``) and ``reference`` have readers of their own
PARAMS = {
    "lambda": {"n_ladder": (list_of(integer(0), 1), [10, 100]), "grid": (integer(2), 64),
               "ceiling": (POSITIVE, None)},
    "corr-dim": {"epsilon0": (POSITIVE, 0.1), "rungs": (integer(3), 5)},
    "asclt": {"h": (H, "centered"),
              "n_ladder": (list_of(integer(1), 1), [2**k for k in range(6, 15)]),
              "sigma_n": (integer(1), 200), "sigma_trials": (integer(1), 4000)},
    "birkhoff": {"h": (H, "coordinate")},
    "sync": {"B": (list_of(POINT, 1), ...)},
    "corr-sum": {"epsilon": (POSITIVE, ...)},
}


@dataclass
class ExperimentConfig:
    system: dict
    observable: str = "birkhoff"
    params: dict = field(default_factory=dict)
    n: int = 100
    t_ladder: list = field(default_factory=lambda: [0.1, 0.2, 0.3])
    trials: int = 1000
    seed: int = 0
    bound: str = "lln"
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        vars(self).update(read(vars(self), CONFIG, "config"))
