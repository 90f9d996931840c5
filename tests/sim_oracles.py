"""Test-only simulation oracles: the infinite-snapshot covariance and
noise-only snapshot blocks."""

import numpy as np

from h2ad_doa.array_model import gain_coefficient, virtual_steering
from h2ad_doa.signal_sim import GroupSnapshots, _complex_normal, _stream


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
