"""Test-only simulation oracles: a freshly keyed Philox stream, the
infinite-snapshot covariance, noise-only snapshot blocks, the large-``M_q``
closed-form CRLB, an out-of-place candidate unfold and an uncached
per-group chain of the whole estimate."""

import math

import numpy as np

from h2ad_doa.array_model import SPACING, ArrayConfig, gain_coefficient, virtual_steering
from h2ad_doa.fusion import _guard_angle, fused_crlb, weights_crlb_ratio, weights_exact
from h2ad_doa.signal_sim import (
    _EMITTER_STREAM,
    _complex_normal,
    check_operating_point,
    sample_covariance,
)
from h2ad_doa.subspace import enumerate_candidates, noise_subspace, root_music_phase


def philox_stream(seed, stream_id):
    """A Philox generator built and keyed for (seed, stream id): the
    reference that ``signal_sim``'s re-keyed generator must match."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        philox_stream(scenario.seed, q), (geom.num_subarrays, scenario.snapshots)
    )
    return np.sqrt(scenario.noise_variance) * noise


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
        * SPACING**2
        * geom.subarray_size**2
    )
    return float(12.0 / denominator)


def uncached_snapshots(scenario, q):
    """Group ``q``'s snapshot block from its plain expression: a fresh
    ``Philox(key=...)`` per stream, and the gain and steering vector
    computed on the spot."""
    geom = scenario.cfg.group(q)
    amplitude = gain_coefficient(geom, scenario.theta0) / np.sqrt(geom.subarray_size)
    steer = virtual_steering(geom, scenario.theta0)
    x = _complex_normal(philox_stream(scenario.seed, _EMITTER_STREAM), (scenario.snapshots,))
    noise = _complex_normal(
        philox_stream(scenario.seed, q), (geom.num_subarrays, scenario.snapshots)
    )
    return amplitude * np.outer(steer, x) + np.sqrt(scenario.noise_variance) * noise


def masked_candidates(phase_hat, geom):
    """``enumerate_candidates(phase_hat, geom).angles`` with the sines
    formed out of place and clamped by ``np.clip``."""
    scale = 1.0 / (2.0 * np.pi * geom.virtual_spacing)
    two_pi = 2.0 * np.pi
    j_lo = math.ceil((-1.0 / scale - phase_hat) / two_pi - 1e-12)
    j_hi = math.floor((1.0 / scale - phase_hat) / two_pi + 1e-12)
    sines = scale * (phase_hat + two_pi * np.arange(j_lo, j_hi + 1))
    sines = np.clip(sines[np.abs(sines) <= 1.0 + 1e-12], -1.0, 1.0)
    if sines.size == geom.subarray_size + 1:
        order = sorted(range(sines.size), key=lambda i: (abs(sines[i]), sines[i]))
        sines = np.delete(sines, order[-1])
    return np.arcsin(sines)


def searchsorted_tuple(arrays):
    """Minimum-dispersion tuple by one ``searchsorted`` per group over
    the sorted midpoints: ``(angles, member indices)``."""
    mids = [(a[:-1] + a[1:]) / 2.0 for a in arrays]
    probes = np.sort(np.concatenate([[-np.inf], *mids]))
    rows = np.stack([np.searchsorted(m, probes, side="right") for m in mids], axis=1)
    stacked = np.stack([a[idx] for a, idx in zip(arrays, rows.T)], axis=1)
    dispersion = np.sum((stacked - stacked.mean(axis=1, keepdims=True)) ** 2, axis=1)
    best = int(np.argmin(dispersion))
    return stacked[best], tuple(int(i) for i in rows[best])


def uncached_estimate(scenario, method):
    """``estimate_doa(scenario, method).theta_hat`` group by group, from
    :func:`uncached_snapshots`, the one-group subspace chain and
    :func:`searchsorted_tuple`."""
    cfg = scenario.cfg
    arrays = []
    for q in range(cfg.num_groups):
        geom = cfg.group(q)
        ns = noise_subspace(sample_covariance(uncached_snapshots(scenario, q)))
        arrays.append(enumerate_candidates(root_music_phase(ns, geom), geom).angles)
    angles, _ = searchsorted_tuple(arrays)
    if method == "crlb_ratio":
        weights = weights_crlb_ratio(cfg)
    else:
        report = fused_crlb(cfg, float(np.mean(angles)), scenario.snr_db, scenario.snapshots)
        weights = weights_exact(report.per_group)
    return float(np.dot(weights, angles))
