"""Geometry and gain math for a grouped coprime-subarray receiver.

The physical array is a uniform line of ``N = sum(K_q * M_q)`` antennas
partitioned into ``Q`` groups.  Group ``q`` holds ``K_q`` subarrays of
``M_q`` antennas each, with one RF chain per subarray.  Analog combining
collapses every subarray to a single output, so group ``q`` behaves as a
``K_q``-element virtual ULA whose element spacing is ``M_q * d``.  All
estimators in this package operate on those virtual arrays.

Subarray sizes must be pairwise coprime: spatial undersampling by the
factor ``M_q`` folds the visible region ``M_q``-fold, and coprimality is
what guarantees the folded candidate sets of different groups share
exactly one angle.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Keys accepted in a config file, in canonical order.
CONFIG_KEYS = ("groups", "M", "K", "d_over_lambda", "lambda_m")

#: Largest subarray size M_q: bounds the M_q-element steering sum of every
#: gain evaluation and the 4*M_q-wide first hidden layer of an MLP branch.
MAX_SUBARRAY_SIZE = 256

#: Largest subarray count K_q: bounds the 4*degree**2 FFT-sample budget of
#: a root certificate (degree 2(K_q - 1)) and the K_q x T snapshot block.
MAX_SUBARRAYS = 256


class ConfigError(ValueError):
    """Array configuration that cannot describe a valid receiver."""


def check_integer(field: str, value) -> None:
    """Raise ``ConfigError`` naming ``field`` unless ``value`` is a Python or
    numpy integer; floats, integral or not, and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{field}={value!r} must be an integer")


class NonCoprimeError(ConfigError):
    """Two subarray sizes share a common factor."""

    def __init__(self, q: int, k: int, m_q: int, m_k: int):
        self.groups = (q, k)
        super().__init__(
            f"subarray sizes M[{q}]={m_q} and M[{k}]={m_k} share a factor "
            f"{math.gcd(m_q, m_k)}; group sizes must be pairwise coprime"
        )


class GroupTooSmallError(ConfigError):
    """A group with fewer than two subarrays or two antennas per subarray."""

    def __init__(self, q: int, what: str, value: int):
        self.group = q
        super().__init__(f"group {q}: {what}={value}, need at least 2")


@dataclass(frozen=True)
class GroupGeometry:
    """Geometry of one group's virtual ULA.

    Parameters
    ----------
    group_index : int
        Position of the group in the configuration, 0-based.
    subarray_size : int
        Antennas per subarray (``M_q``).
    num_subarrays : int
        RF chains in the group (``K_q``), the virtual array length.
    spacing : float
        Physical element spacing ``d`` in meters.
    wavelength : float
        Carrier wavelength in meters.
    """

    group_index: int
    subarray_size: int
    num_subarrays: int
    spacing: float
    wavelength: float

    @property
    def virtual_spacing(self) -> float:
        """Spacing of the virtual ULA in meters (``M_q * d``)."""
        return self.subarray_size * self.spacing


@dataclass(frozen=True)
class ArrayConfig:
    """Receiver layout: subarray sizes, subarray counts, spacing.

    Construction checks it with :func:`validate_config`.

    Parameters
    ----------
    M : tuple of int
        Subarray size per group, pairwise coprime; stored as a tuple.
    K : tuple of int
        Number of subarrays per group; stored as a tuple.
    d_over_lambda : float
        Element spacing in wavelengths.  Half-wavelength is the supported
        operating point; the candidate-count contract assumes it.
    wavelength : float
        Carrier wavelength in meters.
    """

    M: tuple[int, ...]
    K: tuple[int, ...]
    d_over_lambda: float = 0.5
    wavelength: float = 1.0

    def __post_init__(self) -> None:
        # tuples keep every config hashable, as the simulator's memo needs
        object.__setattr__(self, "M", tuple(self.M))
        object.__setattr__(self, "K", tuple(self.K))
        validate_config(self)

    @property
    def num_groups(self) -> int:
        return len(self.M)

    @property
    def spacing(self) -> float:
        """Physical element spacing ``d`` in meters."""
        return self.d_over_lambda * self.wavelength

    @property
    def total_antennas(self) -> int:
        """Total element count ``N = sum(K_q * M_q)``."""
        return int(sum(k * m for k, m in zip(self.K, self.M)))

    def group(self, q: int) -> GroupGeometry:
        """Geometry of group ``q``."""
        return GroupGeometry(
            group_index=q,
            subarray_size=self.M[q],
            num_subarrays=self.K[q],
            spacing=self.spacing,
            wavelength=self.wavelength,
        )


def validate_config(cfg: ArrayConfig) -> ArrayConfig:
    """Check a configuration and return it unchanged.

    Raises
    ------
    NonCoprimeError
        If any two subarray sizes share a common factor.
    GroupTooSmallError
        If any ``M_q < 2`` or ``K_q < 2``.
    ConfigError
        On shape, type or sign problems (mismatched lists, an ``M_q`` or
        ``K_q`` that :func:`check_integer` refuses, non-positive spacing
        or wavelength), ``M_q`` above ``MAX_SUBARRAY_SIZE`` or ``K_q``
        above ``MAX_SUBARRAYS``, or element spacing above half a
        wavelength, where grating lobes alias the angle itself.
    """
    if len(cfg.M) == 0:
        raise ConfigError("configuration has no groups")
    if len(cfg.M) != len(cfg.K):
        raise ConfigError(
            f"M has {len(cfg.M)} groups but K has {len(cfg.K)}"
        )
    for q, (m, k) in enumerate(zip(cfg.M, cfg.K)):
        check_integer(f"M[{q}]", m)
        check_integer(f"K[{q}]", k)
        if m < 2:
            raise GroupTooSmallError(q, "subarray size M", m)
        if k < 2:
            raise GroupTooSmallError(q, "subarray count K", k)
        if m > MAX_SUBARRAY_SIZE:
            raise ConfigError(f"group {q}: subarray size M={m} exceeds {MAX_SUBARRAY_SIZE}")
        if k > MAX_SUBARRAYS:
            raise ConfigError(f"group {q}: subarray count K={k} exceeds {MAX_SUBARRAYS}")
    for q in range(len(cfg.M)):
        for k in range(q + 1, len(cfg.M)):
            if math.gcd(cfg.M[q], cfg.M[k]) != 1:
                raise NonCoprimeError(q, k, cfg.M[q], cfg.M[k])
    if not cfg.d_over_lambda > 0:
        raise ConfigError(f"d_over_lambda={cfg.d_over_lambda} must be positive")
    if not cfg.d_over_lambda <= 0.5:
        raise ConfigError(
            f"d_over_lambda={cfg.d_over_lambda} exceeds 0.5: grating lobes make "
            "the element array itself ambiguous"
        )
    if not cfg.wavelength > 0:
        raise ConfigError(f"wavelength={cfg.wavelength} must be positive")
    return cfg


def gain_coefficient(geom: GroupGeometry, theta: float) -> complex:
    """Analog combining gain ``e_q(theta)`` of one subarray.

    The sum of :func:`element_steering`,
    ``sum_m exp(j*(2*pi/lambda)*m*d*sin(theta))`` over the ``M_q`` elements.  The closed-form geometric ratio has a removable
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
    phases = (2.0 * np.pi / geom.wavelength) * m * geom.spacing * np.sin(theta)
    return np.exp(1j * phases)


def virtual_steering(geom: GroupGeometry, theta: float) -> np.ndarray:
    """Steering vector of the group's virtual ULA.

    ``K_q`` elements at spacing ``M_q * d``; element ``k`` is
    ``exp(j*(2*pi/lambda)*M_q*d*sin(theta)*k)``.  Unit modulus per
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
    phase_step = (
        (2.0 * np.pi / geom.wavelength) * geom.virtual_spacing * np.sin(theta)
    )
    return np.exp(1j * phase_step * k)


def position_weighted_gain(geom: GroupGeometry, theta: float) -> complex:
    """Conjugate-weighted element-position sum used by the exact CRLB.

    ``sum_m (m*d) * exp(-j*(2*pi/lambda)*m*d*sin(theta))`` over the
    subarray, i.e. the element positions weighted by the conjugated
    element steering vector.  Units are meters.
    """
    m = np.arange(geom.subarray_size)
    positions = m * geom.spacing
    return complex(np.sum(positions * np.conj(element_steering(geom, theta))))


def _integer(key: str, value) -> int:
    """A JSON integer, or an integral number such as ``16.0``, as ``int``."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")


def _number(key: str, value) -> float:
    """A finite JSON number as ``float``."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {json.dumps(value)}")
    return number


def load_config(path) -> ArrayConfig:
    """Read and validate a JSON config file.

    Expected keys: ``groups`` (int), ``M`` (list), ``K`` (list),
    ``d_over_lambda`` (float, optional), ``lambda_m`` (float, optional).
    Unknown keys are rejected, and so is any value of the wrong type:
    booleans, strings and null, a fraction where an integer is expected,
    and a non-finite number.
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
    for key in ("groups", "M", "K"):
        if key not in raw:
            raise ConfigError(f"config {path} is missing required key '{key}'")
    for key in ("M", "K"):
        if not isinstance(raw[key], list):
            raise ConfigError(
                f"{key} must be a list of integers, got {json.dumps(raw[key])}"
            )
    M = tuple(_integer(f"M[{i}]", v) for i, v in enumerate(raw["M"]))
    K = tuple(_integer(f"K[{i}]", v) for i, v in enumerate(raw["K"]))
    groups = _integer("groups", raw["groups"])
    if groups != len(M):
        raise ConfigError(f"groups={groups} does not match len(M)={len(M)}")
    cfg = ArrayConfig(
        M=M,
        K=K,
        d_over_lambda=_number("d_over_lambda", raw.get("d_over_lambda", 0.5)),
        wavelength=_number("lambda_m", raw.get("lambda_m", 1.0)),
    )
    return cfg


def save_config(cfg: ArrayConfig, path) -> None:
    """Write a configuration as a JSON config file."""
    raw = {
        "groups": cfg.num_groups,
        "M": list(cfg.M),
        "K": list(cfg.K),
        "d_over_lambda": cfg.d_over_lambda,
        "lambda_m": cfg.wavelength,
    }
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2)
        fh.write("\n")
