"""Modulation alphabets and the moment summaries that drive identifiability.

Every alphabet is normalized to unit average power, and ``moments`` takes
any sample vector to unit power, so the moment values feed directly into the
information-matrix formulas without extra scaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_POWER_TOL = 1e-12

# beta below this reads as zero: the samples lie on one line through the origin
_BETA_TOL = 1e-9

_KINDS = ("bpsk", "sdpsk", "qpsk", "dqpsk", "8psk", "16qam", "64qam", "custom")
_ALIASES = {"psk8": "8psk", "qam16": "16qam", "qam64": "64qam"}


class ConfigError(ValueError):
    """A configuration value or input file is malformed or out of range.

    Every config dataclass and entry point raises it from its own value
    checks, so a caller can tell bad configuration from a failure that
    depends on the data."""


def _db_to_linear(db, key: str) -> float:
    """10^(db / 10); ``ConfigError`` naming ``key`` unless it is finite and > 0."""
    db = float(db)
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ConfigError(f"{key} = {db!r} dB has no finite linear value > 0")
    return linear


class InvalidConstellationError(ConfigError):
    """Raised when an alphabet is empty, zero-power, non-finite, malformed,
    or has duplicate points."""


@dataclass(frozen=True)
class Constellation:
    """Unit-power symbol alphabet."""

    points: np.ndarray
    name: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise InvalidConstellationError("constellation has no points")
        power = float(np.mean(np.abs(pts) ** 2))
        if abs(power - 1.0) > 1e-9:
            raise InvalidConstellationError(
                f"constellation {self.name!r} mean power {power} != 1"
            )
        # duplicate detection on the normalized points
        if len({(round(p.real, 12), round(p.imag, 12)) for p in pts}) != pts.size:
            raise InvalidConstellationError(f"constellation {self.name!r} has duplicate points")

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class Moments:
    """Unit-power moments mu20 = E[x^2] / E|x|^2, mu4 = E[|x|^4] / (E|x|^2)^2
    and mu6 = E[|x|^6] / (E|x|^2)^3: scalars for a vector, arrays for a stack."""

    mu20: complex | np.ndarray
    mu4: float | np.ndarray
    mu6: float | np.ndarray

    def __post_init__(self):
        if np.any(self.mu4 < 1.0 - 1e-12) or np.any(self.mu6 < self.mu4 - 1e-12):
            raise ValueError("moment ordering violated (needs unit-power samples)")

    @property
    def beta(self):
        """1 - |mu20|^2: zero when the samples lie on one line through the origin."""
        return 1.0 - abs(self.mu20) ** 2


def _builtin_points(kind: str) -> np.ndarray:
    if kind in ("bpsk", "sdpsk"):
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    if kind in ("qpsk", "dqpsk"):
        s = 1.0 / math.sqrt(2.0)
        return np.array([(a + 1j * b) * s for a in (1, -1) for b in (1, -1)])
    if kind == "8psk":
        return np.exp(2j * np.pi * np.arange(8) / 8.0)
    if kind == "16qam":
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        grid = np.array([a + 1j * b for a in levels for b in levels])
        return grid / math.sqrt(10.0)
    if kind == "64qam":
        levels = np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0])
        grid = np.array([a + 1j * b for a in levels for b in levels])
        return grid / math.sqrt(42.0)
    raise InvalidConstellationError(f"unknown constellation kind {kind!r}")


def make_constellation(kind: str, points=None, name: str | None = None) -> Constellation:
    """Build a unit-power alphabet by name, or a custom one from raw points.

    Custom points are accepted un-normalized and scaled to unit mean power.
    """
    key = str(kind).strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _KINDS:
        raise InvalidConstellationError(f"unsupported constellation {kind!r}")
    if key != "custom":
        if points is not None:
            raise InvalidConstellationError("points only allowed for kind='custom'")
        return Constellation(points=_builtin_points(key), name=name or key)
    if points is None:
        raise InvalidConstellationError("custom constellation needs points")
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise InvalidConstellationError("custom constellation is empty")
    if not np.all(np.isfinite(pts)):
        raise InvalidConstellationError("custom constellation has a non-finite point")
    power = float(np.mean(np.abs(pts) ** 2))
    if power <= _POWER_TOL:
        raise InvalidConstellationError("custom constellation has zero power")
    return Constellation(points=pts * (1.0 / math.sqrt(power)), name=name or "custom")


def _json_pairs(raw) -> np.ndarray | None:
    """The complex values of a parsed JSON array of [re, im] number pairs, or
    None when ``raw`` is not one (booleans are not numbers) or a number is
    too large for a float."""
    if not (isinstance(raw, list) and all(
            isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
            for p in raw)):
        return None
    try:
        return np.array([complex(re, im) for re, im in raw], dtype=complex)
    except OverflowError:
        return None


def load_constellation_json(path) -> Constellation:
    """Load a custom alphabet from a JSON array of [re, im] number pairs."""
    with open(path) as fh:
        pts = _json_pairs(json.load(fh))
    if pts is None:
        raise InvalidConstellationError(f"{path}: need a JSON array of [re, im] number "
                                        "pairs, each number within float range")
    return make_constellation("custom", points=pts, name=str(path))


def constellation_from(name) -> Constellation:
    """The alphabet of a ``.json`` point list, else of a built-in kind."""
    if str(name).endswith(".json"):
        return load_constellation_json(name)
    return make_constellation(name)


def moments(x) -> Moments:
    """Moments of the samples x at unit power, along the last axis: an
    alphabet passes its ``points``, a stack of rows gives one value per row.
    A row without power has nan moments; an empty row raises ``ValueError``."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] == 0:
        raise ValueError(f"moments need at least one sample per row, got shape {x.shape}")
    # powers in place: a fresh temporary per power doubles the cost on a block
    a2 = np.abs(x)
    a2 *= a2
    power = np.sum(a2, axis=-1)
    s20 = np.sum(x * x, axis=-1)
    p = power / x.shape[-1]
    a4 = a2 * a2
    with np.errstate(invalid="ignore", divide="ignore"):
        # part by part: numpy's complex division takes 49 / 49 to 1 - 2^-53
        mu20 = s20.real / power + 1j * (s20.imag / power)
        mu4 = np.mean(a4, axis=-1) / (p * p)
        a4 *= a2
        mu6 = np.mean(a4, axis=-1) / (p * p * p)
    if x.ndim == 1:
        mu20, mu4, mu6 = complex(mu20), float(mu4), float(mu6)
    return Moments(mu20=mu20, mu4=mu4, mu6=mu6)


def predicted_fim_rank(m: Moments):
    """Predicted information-matrix rank, 2 where beta vanishes, else 4 (a row
    without power too): an int for one vector, an array for a stack."""
    rank = np.where(m.beta < _BETA_TOL, 2, 4)
    return int(rank) if rank.ndim == 0 else rank
