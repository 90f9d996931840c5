"""Snapshot synthesis for the grouped receiver.

One far-field narrowband emitter at angle ``theta0`` illuminates every
group.  After analog combining, group ``q`` observes

    s_q(n) = (1/sqrt(M_q)) * e_q(theta0) * a_q(theta0) * x(n) + w(n)

where ``e_q`` is the subarray gain, ``a_q`` the virtual steering vector,
``x(n)`` the unit-variance emitter waveform and ``w(n)`` circular complex
noise of variance ``sigma_v^2 = 10**(-snr_db/10)`` per element.  SNR is
defined per physical element before combining.

Randomness uses the counter-based Philox generator with one stream per
(seed, group) plus a shared emitter stream, so every group sees the same
waveform, noise is independent across groups, and results do not depend
on the order groups are simulated in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, ConfigError, gain_coefficient, virtual_steering

SNAPSHOT_MAGIC = b"H2AD-SNAP"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<9sHIIQ")  # magic, version, group, K, T

#: Stream index reserved for the emitter waveform (groups use their own index).
_EMITTER_STREAM = 0xFFFF_FFFF_FFFF_FFFF

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


class SnapshotFormatError(IOError):
    """A snapshot file that cannot be parsed."""


def check_operating_point(snr_db: float, snapshots: int) -> None:
    """Reject a snapshot count below one and an SNR that is NaN or -inf.

    Raises
    ------
    ConfigError
        Naming the offending field.
    """
    if snapshots < 1:
        raise ConfigError(f"snapshots={snapshots} must be >= 1")
    if not snr_db > -np.inf:
        raise ConfigError(f"snr_db={snr_db} must be a number or +inf")


@dataclass(frozen=True)
class SimScenario:
    """One emitter/receiver configuration to simulate.

    Construction checks it with :meth:`validate`.

    Parameters
    ----------
    cfg : ArrayConfig
    theta0 : float
        True direction of arrival, radians, strictly inside
        ``(-pi/2, pi/2)``.
    snr_db : float
        Per-element SNR in dB.  ``inf`` yields a noiseless simulation;
        NaN and ``-inf`` are rejected.
    snapshots : int
        Number of snapshots ``T``.
    seed : int
        Master seed for the scenario.
    """

    cfg: ArrayConfig
    theta0: float
    snr_db: float
    snapshots: int
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    @property
    def noise_variance(self) -> float:
        return float(10.0 ** (-self.snr_db / 10.0))

    def validate(self) -> "SimScenario":
        if not abs(self.theta0) < np.pi / 2:
            raise ConfigError(
                f"theta0={self.theta0} rad must satisfy |theta0| < pi/2"
            )
        check_operating_point(self.snr_db, self.snapshots)
        return self


@dataclass(frozen=True)
class GroupSnapshots:
    """Snapshot block of one group: complex matrix of shape (K_q, T)."""

    group_index: int
    data: np.ndarray

    @property
    def num_subarrays(self) -> int:
        return self.data.shape[0]

    @property
    def snapshots(self) -> int:
        return self.data.shape[1]


def derive_seed(master_seed: int, *path: int) -> int:
    """Child seed for a (cell, trial, ...) coordinate under a master seed.

    Uses SeedSequence spawn keys, so any coordinate yields the same child
    regardless of how many siblings were derived before it.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream id)."""
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws, (g1 + j*g2)/sqrt(2)."""
    g1 = rng.standard_normal(shape)
    g2 = rng.standard_normal(shape)
    return (g1 + 1j * g2) / np.sqrt(2.0)


def emitter_waveform(scenario: SimScenario) -> np.ndarray:
    """The scenario's emitter samples ``x(n)``, shared by all groups."""
    rng = _stream(scenario.seed, _EMITTER_STREAM)
    return _complex_normal(rng, scenario.snapshots)


def simulate_group(
    scenario: SimScenario, q: int, signal_scale: float = 1.0
) -> GroupSnapshots:
    """Simulate the snapshot block of group ``q``.

    Deterministic given ``(scenario.seed, q)``.  ``signal_scale`` is a
    diagnostic hook; 0 produces noise-only snapshots from the same noise
    stream.

    Returns
    -------
    GroupSnapshots
        ``data[k, n]`` is subarray ``k`` of group ``q`` at snapshot ``n``.
    """
    geom = scenario.cfg.group(q)
    gain = gain_coefficient(geom, scenario.theta0)
    steer = virtual_steering(geom, scenario.theta0)
    x = emitter_waveform(scenario)
    rng = _stream(scenario.seed, q)
    noise = _complex_normal(rng, (geom.num_subarrays, scenario.snapshots))
    sigma_v = np.sqrt(scenario.noise_variance)
    amplitude = signal_scale * gain / np.sqrt(geom.subarray_size)
    data = amplitude * np.outer(steer, x) + sigma_v * noise
    return GroupSnapshots(group_index=q, data=data)


def sample_covariance(snap: GroupSnapshots) -> np.ndarray:
    """Sample covariance ``(1/T) * S @ S^H``, forced exactly Hermitian."""
    s = snap.data
    r = s @ s.conj().T / snap.snapshots
    return (r + r.conj().T) / 2.0


def exact_covariance(scenario: SimScenario, q: int) -> np.ndarray:
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


def write_snapshots(snap: GroupSnapshots, path) -> None:
    """Write one group's snapshots in the binary snapshot format.

    Layout: magic ``H2AD-SNAP``, u16 version, u32 group index, u32 K_q,
    u64 T, then K_q*T row-major complex samples as interleaved
    (re, im) float64 pairs.
    """
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        snap.group_index,
        snap.num_subarrays,
        snap.snapshots,
    )
    payload = np.ascontiguousarray(snap.data, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_snapshots(path) -> GroupSnapshots:
    """Read a snapshot file written by :func:`write_snapshots`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, q, num_k, num_t = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    expected = num_k * num_t * 16
    payload = blob[_HEADER.size:]
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype=np.complex128).reshape(num_k, num_t)
    return GroupSnapshots(group_index=q, data=data.copy())
