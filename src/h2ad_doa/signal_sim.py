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
on the order groups are simulated in.  :func:`simulate_groups` draws the
waveform once for all the groups of a trial; :func:`simulate_group` is its
one-group case and gives the same bytes.

A trial's group streams share one Philox bit generator, re-keyed for
each ``(seed, q)`` by setting its ``state`` to the one ``Philox(key=...)``
starts in (:func:`_rekeyed`): the same stream bit for bit, for about 2 us
against about 10 us to build a Philox, most of it the ``SeedSequence``
that the key overrides.  Each draw gets its own ``Generator``; the emitter
keeps its own :func:`_stream`.  Each group's amplitude and virtual
steering vector depend on the array and ``theta0`` alone, which repeat
from trial to trial in a sweep or dataset cell, so
:func:`_group_constants` memoises them in a bounded cache of read-only
arrays; a first trial, or a one-shot estimate, fills an entry.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .array_model import (
    ArrayConfig,
    ConfigError,
    check_integer,
    gain_coefficient,
    virtual_steering,
)

SNAPSHOT_MAGIC = b"H2AD-SNAP"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<9sHIIQ")  # magic, version, group, K, T

#: Stream index reserved for the emitter waveform (groups use their own index).
_EMITTER_STREAM = 0xFFFF_FFFF_FFFF_FFFF

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: Counter and buffer of a freshly keyed Philox; the ``state`` setter copies it.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.flags.writeable = False

#: ``(ArrayConfig, theta0)`` entries kept by :func:`_group_constants`.  A
#: sweep or dataset cell reuses one entry for all its trials.
GROUP_CONSTANTS_CACHE_SIZE = 128


class SnapshotFormatError(IOError):
    """A snapshot file that cannot be parsed."""


#: Largest finite ``|snr_db|`` accepted.  From about +3000 dB the exact
#: CRLB overflows, and past about +-3080 dB so does ``10**(snr_db/10)``.
SNR_DB_LIMIT = 1000.0


def check_operating_point(snr_db: float, snapshots: int) -> None:
    """Reject a snapshot count that is not an integer
    (:func:`~h2ad_doa.array_model.check_integer`) or is below one, and an
    SNR that is NaN, -inf or finite beyond ``SNR_DB_LIMIT`` in magnitude
    (+inf is noiseless).

    Raises
    ------
    ConfigError
        Naming the offending field.
    """
    check_integer("snapshots", snapshots)
    if snapshots < 1:
        raise ConfigError(f"snapshots={snapshots} must be >= 1")
    if not (snr_db == np.inf or abs(snr_db) <= SNR_DB_LIMIT):
        raise ConfigError(
            f"snr_db={snr_db} must be within +-{SNR_DB_LIMIT:g} dB or +inf"
        )


@dataclass(frozen=True)
class SimScenario:
    """One emitter/receiver configuration to simulate.

    Construction checks it with :meth:`validate`; ``snapshots`` and
    ``seed`` must be integers (:func:`~h2ad_doa.array_model.check_integer`).

    Parameters
    ----------
    cfg : ArrayConfig
    theta0 : float
        True direction of arrival, radians, strictly inside
        ``(-pi/2, pi/2)``.
    snr_db : float
        Per-element SNR in dB, within ``+-SNR_DB_LIMIT``.  ``inf`` yields
        a noiseless simulation; NaN, ``-inf`` and finite values beyond the
        limit are rejected.
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
        check_integer("seed", self.seed)
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


def _key(seed: int, stream_id: int) -> np.ndarray:
    return np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream id)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream_id)))


def _rekeyed(bitgen: np.random.Philox, seed: int, stream_id: int) -> np.random.Generator:
    """``bitgen`` reset to the state ``Philox(key=...)`` starts in for
    (seed, stream id), behind a new Generator: the stream of
    :func:`_stream`, bit for bit, whatever ``bitgen`` drew before."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _key(seed, stream_id)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws, (g1 + j*g2)/sqrt(2).

    ``g1`` and ``g2`` are one draw of shape ``(2, *shape)``, the same
    stream as two draws of ``shape``.  Complex division by ``sqrt(2)``
    multiplies each part by ``1/sqrt(2)``, so scaling the parts straight
    into the complex result gives the same bits with no temporaries.
    """
    g = rng.standard_normal((2, *shape))
    out = np.empty(shape, dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(g[0], scale, out=out.real)
    np.multiply(g[1], scale, out=out.imag)
    return out


def emitter_waveform(scenario: SimScenario) -> np.ndarray:
    """The scenario's emitter samples ``x(n)``, shared by all groups."""
    rng = _stream(scenario.seed, _EMITTER_STREAM)
    return _complex_normal(rng, (scenario.snapshots,))


def simulate_groups(
    scenario: SimScenario, groups: Iterable[int] | None = None
) -> tuple[GroupSnapshots, ...]:
    """Simulate the snapshot blocks of ``groups`` (default: all, in order).

    The shared emitter waveform is drawn once for all of them.  Each
    block is deterministic given ``(scenario.seed, q)``.

    Returns
    -------
    tuple of GroupSnapshots
        ``data[k, n]`` is subarray ``k`` of group ``q`` at snapshot ``n``.
    """
    x = emitter_waveform(scenario)
    sigma_v = np.sqrt(scenario.noise_variance)
    theta0 = float(scenario.theta0)
    constants = _group_constants(scenario.cfg, theta0, math.copysign(1.0, theta0))
    bitgen = np.random.Philox()  # re-keyed for each group's stream
    blocks = []
    for q in range(scenario.cfg.num_groups) if groups is None else groups:
        amplitude, steer = constants[q]
        noise = _complex_normal(
            _rekeyed(bitgen, scenario.seed, q), (steer.size, scenario.snapshots)
        )
        # amplitude * outer(steer, x) + sigma_v * noise, in place; the scalar
        # stays the first operand, which selects the same complex-multiply loop
        data = np.outer(steer, x)
        np.multiply(amplitude, data, out=data)
        np.multiply(sigma_v, noise, out=noise)
        data += noise
        blocks.append(GroupSnapshots(group_index=q, data=data))
    return tuple(blocks)


@functools.lru_cache(maxsize=GROUP_CONSTANTS_CACHE_SIZE)
def _group_constants(
    cfg: ArrayConfig, theta0: float, sign: float
) -> tuple[tuple[complex, np.ndarray], ...]:
    """Each group's amplitude ``e_q(theta0)/sqrt(M_q)`` and read-only
    virtual steering vector, memoised.  ``sign`` is ``copysign(1, theta0)``,
    which keeps the equal keys ``-0.0`` and ``+0.0`` apart: their steering
    vectors may differ in the sign of a zero."""
    constants = []
    for q in range(cfg.num_groups):
        geom = cfg.group(q)
        steer = virtual_steering(geom, theta0)
        steer.flags.writeable = False
        constants.append((gain_coefficient(geom, theta0) / np.sqrt(geom.subarray_size), steer))
    return tuple(constants)


def simulate_group(scenario: SimScenario, q: int) -> GroupSnapshots:
    """Simulate the snapshot block of group ``q`` (see :func:`simulate_groups`)."""
    return simulate_groups(scenario, (q,))[0]


def sample_covariance(snap: GroupSnapshots) -> np.ndarray:
    """Sample covariance ``(1/T) * S @ S^H``, forced exactly Hermitian."""
    s = snap.data
    r = s @ s.conj().T
    r /= snap.snapshots
    r += r.conj().T
    r /= 2.0
    return r


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
