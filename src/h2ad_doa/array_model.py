"""Geometry and gain math for a grouped coprime-subarray receiver.

The physical array is a uniform line of ``N = sum(K_q * M_q)`` antennas
partitioned into ``Q`` groups.  Group ``q`` holds ``K_q`` subarrays of
``M_q`` antennas each, with one RF chain per subarray.  Analog combining
collapses every subarray to a single output, so group ``q`` behaves as a
``K_q``-element virtual ULA whose element spacing is ``M_q * d``.  All
estimators in this package operate on those virtual arrays.  Elements sit
half a wavelength apart, ``d = SPACING``.

Subarray sizes must be pairwise coprime: spatial undersampling by the
factor ``M_q`` folds the visible region ``M_q``-fold, and coprimality is
what guarantees the folded candidate sets of different groups share
exactly one angle.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Keys accepted in a config file, in canonical order.
CONFIG_KEYS = ("M", "K")

#: Element spacing ``d`` in wavelengths.  Half a wavelength is the widest
#: spacing without grating lobes, and it gives each group exactly ``M_q``
#: candidate angles.
SPACING = 0.5

#: Largest subarray size M_q: bounds the M_q-element steering sum of every
#: gain evaluation and the 4*M_q-wide first hidden layer of an MLP branch.
MAX_SUBARRAY_SIZE = 256

#: Largest subarray count K_q: bounds the 4*degree**2 FFT-sample budget of
#: a root certificate (degree 2(K_q - 1)) and the K_q x T snapshot block.
MAX_SUBARRAYS = 256


class ConfigError(ValueError):
    """Array configuration that cannot describe a valid receiver."""


def check_integer(field: str, value, low: int | None, high: int | None = None) -> None:
    """Raise ``ConfigError`` naming ``field`` unless ``value`` is a Python or
    numpy integer within ``[low, high]``, where a bound of None is open;
    floats, integral or not, and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{field}={value!r} must be an integer")
    if high is None:
        if low is not None and value < low:
            raise ConfigError(f"{field}={value} must be >= {low}")
    elif low is None:
        if value > high:
            raise ConfigError(f"{field}={value} must be <= {high}")
    elif not low <= value <= high:
        raise ConfigError(f"{field}={value} must be within [{low}, {high}]")


def check_real(field: str, value) -> None:
    """Raise ``ConfigError`` naming ``field`` unless ``value`` is a Python or
    numpy real number, or a 0-d array of one; bools, complex numbers,
    strings and None are refused."""
    scalar = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if isinstance(scalar, bool) or not isinstance(scalar, numbers.Real):
        raise ConfigError(f"{field}={value!r} must be a real number")


@dataclass(frozen=True)
class GroupGeometry:
    """Geometry of one group's virtual ULA.

    Parameters
    ----------
    subarray_size : int
        Antennas per subarray (``M_q``).
    num_subarrays : int
        RF chains in the group (``K_q``), the virtual array length.
    """

    subarray_size: int
    num_subarrays: int

    @property
    def virtual_spacing(self) -> float:
        """Spacing of the virtual ULA in wavelengths (``M_q * d``)."""
        return self.subarray_size * SPACING


@dataclass(frozen=True)
class ArrayConfig:
    """Receiver layout: subarray sizes and subarray counts.

    Construction checks it with :func:`validate_config`.

    Parameters
    ----------
    M : tuple of int
        Subarray size per group, pairwise coprime; stored as a tuple.
    K : tuple of int
        Number of subarrays per group; stored as a tuple.
    """

    M: tuple[int, ...]
    K: tuple[int, ...]

    def __post_init__(self) -> None:
        # tuples keep every config hashable, as the simulator's memo needs
        object.__setattr__(self, "M", tuple(self.M))
        object.__setattr__(self, "K", tuple(self.K))
        validate_config(self)

    @property
    def num_groups(self) -> int:
        return len(self.M)

    @property
    def total_antennas(self) -> int:
        """Total element count ``N = sum(K_q * M_q)``."""
        return int(sum(k * m for k, m in zip(self.K, self.M)))

    def group(self, q: int) -> GroupGeometry:
        """Geometry of group ``q``; a ``q`` that is not an integer in
        ``[0, num_groups - 1]`` raises ``ConfigError``."""
        check_integer("q", q, 0, self.num_groups - 1)
        return self._geometries[q]

    @functools.cached_property
    def _geometries(self) -> tuple[GroupGeometry, ...]:
        # built on first use and kept: the config is frozen
        return tuple(
            GroupGeometry(subarray_size=m, num_subarrays=k)
            for m, k in zip(self.M, self.K)
        )


def validate_config(cfg: ArrayConfig) -> ArrayConfig:
    """Check a configuration and return it unchanged.

    Raises
    ------
    ConfigError
        If any two subarray sizes share a common factor, if any ``M_q < 2``
        or ``K_q < 2``, or on shape or type problems (mismatched lists, an
        ``M_q`` or ``K_q`` that :func:`check_integer` refuses), ``M_q``
        above ``MAX_SUBARRAY_SIZE`` or ``K_q`` above ``MAX_SUBARRAYS``.
    """
    if len(cfg.M) == 0:
        raise ConfigError("configuration has no groups")
    if len(cfg.M) != len(cfg.K):
        raise ConfigError(
            f"M has {len(cfg.M)} groups but K has {len(cfg.K)}"
        )
    for q, (m, k) in enumerate(zip(cfg.M, cfg.K)):
        check_integer(f"M[{q}]", m, None, MAX_SUBARRAY_SIZE)
        check_integer(f"K[{q}]", k, None, MAX_SUBARRAYS)
        if m < 2:
            raise ConfigError(f"group {q}: subarray size M={m}, need at least 2")
        if k < 2:
            raise ConfigError(f"group {q}: subarray count K={k}, need at least 2")
    for q in range(len(cfg.M)):
        for k in range(q + 1, len(cfg.M)):
            factor = math.gcd(cfg.M[q], cfg.M[k])
            if factor != 1:
                raise ConfigError(
                    f"subarray sizes M[{q}]={cfg.M[q]} and M[{k}]={cfg.M[k]} share a "
                    f"factor {factor}; group sizes must be pairwise coprime"
                )
    return cfg


def gain_coefficient(geom: GroupGeometry, theta: float) -> complex:
    """Analog combining gain ``e_q(theta)`` of one subarray.

    The sum of :func:`element_steering`,
    ``sum_m exp(j*2*pi*m*d*sin(theta))`` over the ``M_q`` elements.  The closed-form geometric ratio has a removable
    0/0 at broadside, so the sum is evaluated as written; at
    ``theta = 0`` it equals ``M_q`` exactly.

    Parameters
    ----------
    geom : GroupGeometry
    theta : float
        Angle in radians off broadside.

    Returns
    -------
    complex
    """
    return complex(np.sum(element_steering(geom, theta)))


def element_steering(geom: GroupGeometry, theta: float) -> np.ndarray:
    """Steering vector of one subarray (``M_q`` elements, spacing ``d``)."""
    m = np.arange(geom.subarray_size)
    phases = (2.0 * np.pi) * m * SPACING * np.sin(theta)
    return np.exp(1j * phases)


def virtual_steering(geom: GroupGeometry, theta: float) -> np.ndarray:
    """Steering vector of the group's virtual ULA.

    ``K_q`` elements at spacing ``M_q * d``; element ``k`` is
    ``exp(j*2*pi*M_q*d*sin(theta)*k)``.  Unit modulus per
    element, first element 1.

    Parameters
    ----------
    geom : GroupGeometry
    theta : float
        Angle in radians off broadside.

    Returns
    -------
    ndarray of complex, shape (K_q,)
    """
    k = np.arange(geom.num_subarrays)
    phase_step = (2.0 * np.pi) * geom.virtual_spacing * np.sin(theta)
    return np.exp(1j * phase_step * k)


def position_weighted_gain(geom: GroupGeometry, theta: float) -> complex:
    """Conjugate-weighted element-position sum used by the exact CRLB.

    ``sum_m (m*d) * exp(-j*2*pi*m*d*sin(theta))`` over the subarray,
    i.e. the element positions weighted by the conjugated element
    steering vector.  Units are wavelengths.
    """
    m = np.arange(geom.subarray_size)
    positions = m * SPACING
    return complex(np.sum(positions * np.conj(element_steering(geom, theta))))


def _integer(key: str, value) -> int:
    """A JSON integer, or an integral number such as ``16.0``, as ``int``."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")


def load_config(path) -> ArrayConfig:
    """Read and validate a JSON config file.

    Expected keys: ``M`` and ``K``, lists of integers; the group count is
    their length.  Unknown keys are rejected, and so is any value of the
    wrong type: booleans, strings and null, and a fraction where an integer
    is expected.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; allowed: {list(CONFIG_KEYS)}")
    for key in CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"config {path} is missing required key '{key}'")
    for key in CONFIG_KEYS:
        if not isinstance(raw[key], list):
            raise ConfigError(
                f"{key} must be a list of integers, got {json.dumps(raw[key])}"
            )
    M = tuple(_integer(f"M[{i}]", v) for i, v in enumerate(raw["M"]))
    K = tuple(_integer(f"K[{i}]", v) for i, v in enumerate(raw["K"]))
    return ArrayConfig(M=M, K=K)


def save_config(cfg: ArrayConfig, path) -> None:
    """Write a configuration as a JSON config file."""
    with open(path, "w") as fh:
        json.dump({"M": list(cfg.M), "K": list(cfg.K)}, fh, indent=2)
        fh.write("\n")
