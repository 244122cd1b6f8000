"""Modulation alphabets and the moment summaries that drive identifiability.

Every alphabet is normalized to unit average power, so the moment values
feed directly into the information-matrix formulas without extra scaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_POWER_TOL = 1e-12

# beta = 1 - |E[x^2]|^2 below this counts as zero: the symbols lie on one line
# through the origin and IQ imbalance is unidentifiable (rank-2 information)
_BETA_TOL = 1e-9

_KINDS = ("bpsk", "sdpsk", "qpsk", "dqpsk", "8psk", "16qam", "64qam", "custom")
_ALIASES = {"psk8": "8psk", "qam16": "16qam", "qam64": "64qam"}


class ConfigError(ValueError):
    """A configuration value or input file is malformed or out of range.

    Every config dataclass and entry point raises it from its own value
    checks, so a caller can tell bad configuration from a failure that
    depends on the data."""


class InvalidConstellationError(ConfigError):
    """Raised when an alphabet is empty, zero-power, non-finite, malformed,
    or has duplicate points."""


@dataclass(frozen=True)
class Constellation:
    """Unit-power symbol alphabet.

    ``scale`` records the factor applied to the raw input points during
    power normalization (1.0 for the built-in alphabets).
    """

    kind: str
    points: np.ndarray
    name: str
    scale: float = 1.0

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
    """Alphabet moments: mu20 = E[x^2], mu4 = E[|x|^4], mu6 = E[|x|^6], beta = 1 - |mu20|^2."""

    mu20: complex
    mu4: float
    mu6: float
    beta: float

    def __post_init__(self):
        if abs(self.beta - (1.0 - abs(self.mu20) ** 2)) > 1e-12:
            raise ValueError("beta inconsistent with mu20")
        if self.mu4 < 1.0 - 1e-12 or self.mu6 < self.mu4 - 1e-12:
            raise ValueError("moment ordering violated (needs unit-power alphabet)")


@dataclass(frozen=True)
class DirectionalSensitivity:
    """Gain/phase information weights (beta_eps, beta_phi) and their cross term."""

    beta_eps: float
    beta_phi: float
    j_epsphi: float

    def __post_init__(self):
        if abs(self.beta_eps + self.beta_phi - 1.0) > 1e-12:
            raise ValueError("beta_eps + beta_phi must equal 1")


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

    Custom points are accepted un-normalized; they are scaled to unit mean
    power and the applied scale is recorded on the result.
    """
    key = str(kind).strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _KINDS:
        raise InvalidConstellationError(f"unsupported constellation {kind!r}")
    if key != "custom":
        if points is not None:
            raise InvalidConstellationError("points only allowed for kind='custom'")
        return Constellation(kind=key, points=_builtin_points(key), name=name or key)
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
    scale = 1.0 / math.sqrt(power)
    return Constellation(kind="custom", points=pts * scale, name=name or "custom", scale=scale)


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


def moments(c: Constellation) -> Moments:
    """Exact uniform-average moments over the alphabet points."""
    x = c.points
    mu20 = complex(np.mean(x**2))
    mu4 = float(np.mean(np.abs(x) ** 4))
    mu6 = float(np.mean(np.abs(x) ** 6))
    beta = 1.0 - abs(mu20) ** 2
    # clip fp fuzz so the Moments invariant holds exactly
    beta = min(max(beta, 0.0), 1.0)
    if abs(beta - (1.0 - abs(mu20) ** 2)) > 1e-12:
        beta = 1.0 - abs(mu20) ** 2
    return Moments(mu20=mu20, mu4=mu4, mu6=mu6, beta=beta)


def directional_sensitivities(m: Moments, eps: float, phi: float) -> DirectionalSensitivity:
    """Split the IQ information between the gain and phase directions.

    beta_eps = (1 - Re{e^{-2j phi} mu20})/2 and beta_phi its complement;
    the cross term is (1+eps)/2 * Im{e^{-2j phi} mu20}.
    """
    z = np.exp(-2j * phi) * m.mu20
    beta_eps = 0.5 * (1.0 - z.real)
    beta_phi = 0.5 * (1.0 + z.real)
    j_epsphi = 0.5 * (1.0 + eps) * z.imag
    return DirectionalSensitivity(beta_eps=beta_eps, beta_phi=beta_phi, j_epsphi=j_epsphi)


def predicted_fim_rank(m: Moments) -> int:
    """Predicted information-matrix rank: 2 when beta vanishes, else 4."""
    return 2 if m.beta < _BETA_TOL else 4


def beta_vanishes(x) -> np.ndarray:
    """Whether beta = 1 - |E[x^2]|^2 of symbols x (taken at unit power)
    vanishes, by the tolerance of ``predicted_fim_rank``: the symbols lie on
    one line through the origin, the rank-2 case. Evaluated along the last
    axis; all-zero symbols do not count."""
    x = np.asarray(x, dtype=complex)
    power = np.sum(np.abs(x) ** 2, axis=-1)
    return np.abs(np.sum(x * x, axis=-1)) ** 2 > (1.0 - _BETA_TOL) * power ** 2
