"""Test-only simulation oracles: the infinite-snapshot covariance,
noise-only snapshot blocks and the large-``M_q`` closed-form CRLB."""

import numpy as np

from h2ad_doa.array_model import ArrayConfig, gain_coefficient, virtual_steering
from h2ad_doa.fusion import _guard_angle
from h2ad_doa.signal_sim import (
    GroupSnapshots,
    _complex_normal,
    _stream,
    check_operating_point,
)


def exact_covariance(scenario, q):
    """Infinite-snapshot covariance of group ``q``.

    ``(1/M_q)|e_q|^2 a a^H + sigma_v^2 I`` with unit signal power; its
    trace is ``K_q * (|e_q|^2 / M_q + sigma_v^2)``.
    """
    geom = scenario.cfg.group(q)
    gain = gain_coefficient(geom, scenario.theta0)
    steer = virtual_steering(geom, scenario.theta0)
    r = (abs(gain) ** 2 / geom.subarray_size) * np.outer(steer, steer.conj())
    r += scenario.noise_variance * np.eye(geom.num_subarrays)
    return (r + r.conj().T) / 2.0


def noise_only_snapshots(scenario, q):
    """Group ``q``'s snapshot block without the emitter: the noise that
    ``simulate_group`` adds, drawn from the same ``(seed, q)`` stream."""
    geom = scenario.cfg.group(q)
    noise = _complex_normal(
        _stream(scenario.seed, q), (geom.num_subarrays, scenario.snapshots)
    )
    return GroupSnapshots(group_index=q, data=np.sqrt(scenario.noise_variance) * noise)


def crlb_group_approx(
    cfg: ArrayConfig, q: int, theta0: float, snr_db: float, snapshots: int
) -> float:
    """Large-``M_q`` simplification of the single-group CRLB, in rad^2.

    Substitutes ``|e_q|^2 -> M_q^2`` and ``Upsilon_q -> K_q * M_q^3``
    and drops the cross term, leaving a bound proportional to
    ``1/M_q^2`` so that the approximate bound ratio between groups is
    exactly ``M_1^2 / M_q^2``.
    """
    check_operating_point(snr_db, snapshots)
    _guard_angle(theta0)
    geom = cfg.group(q)
    k_q = geom.num_subarrays
    snr = 10.0 ** (snr_db / 10.0)
    denominator = (
        8.0
        * snapshots
        * np.pi**2
        * snr
        * np.cos(theta0) ** 2
        * k_q
        * (k_q**2 - 1)
        * geom.spacing**2
        * geom.subarray_size**2
    )
    return float(12.0 * geom.wavelength**2 / denominator)
