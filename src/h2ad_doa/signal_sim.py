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

A snapshot block is a plain complex ``(K_q, T)`` array, and a group is
its position in the tuple of blocks.  Recorded blocks enter as data:
``h2ad-doa simulate`` saves each block with ``np.save``, and
:func:`sample_covariance` of each ``np.load`` result, in group order, feeds
:func:`~h2ad_doa.fusion.candidates_from_covariances`, the front end that
a simulated trial goes through as well.  If a stack fails there, it roots
the same covariances again one group at a time, so a trial is drawn once,
failing or not.

Each thread keeps one Philox bit generator for every stream it draws,
re-keyed for each ``(seed, stream)`` by setting its ``state`` to the one
``Philox(key=...)`` starts in (:func:`_rekeyed`): the same stream bit for
bit, for about 2 us against about 10 us to build a Philox, most of it the
``SeedSequence`` that the key overrides.  A thread builds its Philox on
its first draw (:func:`_generator`), so a warmed trial builds none.  Each
group's amplitude and virtual steering vector depend on the array and
``theta0`` alone, which repeat from trial to trial in a sweep or dataset
cell, so :func:`_group_constants` memoises them in a bounded cache of
read-only arrays; a first trial, or a one-shot estimate, fills an entry.

Every block is drawn in the calling thread, one group after another, and
several user threads may estimate at once: each draws from its own
Philox, and a block depends on its ``(seed, group)`` stream alone.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .array_model import (
    ArrayConfig,
    ConfigError,
    check_integer,
    check_real,
    gain_coefficient,
    virtual_steering,
)

#: Stream index reserved for the emitter waveform (groups use their own index).
_EMITTER_STREAM = 0xFFFF_FFFF_FFFF_FFFF

#: Counter and buffer of a freshly keyed Philox; the ``state`` setter copies it.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.flags.writeable = False

#: ``(ArrayConfig, theta0)`` entries kept by :func:`_group_constants`.  A
#: sweep or dataset cell reuses one entry for all its trials.
GROUP_CONSTANTS_CACHE_SIZE = 128

#: Inexact scalar types that ``numpy.linalg`` refuses to factor.
UNSOLVABLE_DTYPES = (np.float16, np.longdouble, np.clongdouble)

#: Holds each thread's Philox as ``philox`` (:func:`_generator`).
_local = threading.local()

#: Largest finite ``|snr_db|`` accepted.  From about +3000 dB the exact
#: CRLB overflows, and past about +-3080 dB so does ``10**(snr_db/10)``.
SNR_DB_LIMIT = 1000.0


def check_operating_point(snr_db: float, snapshots: int) -> None:
    """Reject a snapshot count that is not an integer of at least one
    (:func:`~h2ad_doa.array_model.check_integer`), and an SNR that is not
    a real number (:func:`~h2ad_doa.array_model.check_real`) or is NaN,
    -inf or finite beyond ``SNR_DB_LIMIT`` in magnitude (+inf is
    noiseless).

    Raises
    ------
    ConfigError
        Naming the offending field.
    """
    check_integer("snapshots", snapshots, 1)
    check_real("snr_db", snr_db)
    if not (snr_db == np.inf or abs(snr_db) <= SNR_DB_LIMIT):
        raise ConfigError(f"snr_db={snr_db} is neither +inf nor within +-{SNR_DB_LIMIT:g} dB")


@dataclass(frozen=True)
class SimScenario:
    """One emitter/receiver configuration to simulate.

    Construction checks it: ``snapshots`` and ``seed`` must be integers
    in range (:func:`~h2ad_doa.array_model.check_integer`), ``theta0`` and
    ``snr_db`` real numbers, not bools
    (:func:`~h2ad_doa.array_model.check_real`); any other value raises
    ``ConfigError`` naming the field.

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
        Master seed for the scenario, in ``[0, 2**64 - 1]``: it is one word
        of the streams' Philox key, so no two seeds share a stream.
    """

    cfg: ArrayConfig
    theta0: float
    snr_db: float
    snapshots: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("seed", self.seed, 0, 2**64 - 1)
        check_real("theta0", self.theta0)
        if not abs(self.theta0) < np.pi / 2:
            raise ConfigError(
                f"theta0={self.theta0} rad must satisfy |theta0| < pi/2"
            )
        check_operating_point(self.snr_db, self.snapshots)

    @property
    def noise_variance(self) -> float:
        return float(10.0 ** (-self.snr_db / 10.0))


def derive_seed(master_seed: int, *path: int) -> int:
    """Child seed for a (cell, trial, ...) coordinate under a master seed.

    Uses SeedSequence spawn keys, so any coordinate yields the same child
    regardless of how many siblings were derived before it.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _key(seed: int, stream_id: int) -> np.ndarray:
    return np.array([seed, stream_id], dtype=np.uint64)


def _rekeyed(bitgen: np.random.Philox, seed: int, stream_id: int) -> np.random.Generator:
    """``bitgen`` reset to the state ``Philox(key=...)`` starts in for
    (seed, stream id), behind a new Generator: the stream of a fresh
    ``Philox(key=[seed, stream_id])``, bit for bit, whatever ``bitgen``
    drew before."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _key(seed, stream_id)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


def _generator(seed: int, stream_id: int) -> np.random.Generator:
    """The calling thread's Philox re-keyed to (seed, stream id) by
    :func:`_rekeyed`.  A thread's first call builds its Philox."""
    try:
        bitgen = _local.philox
    except AttributeError:
        bitgen = _local.philox = np.random.Philox()
    return _rekeyed(bitgen, seed, stream_id)


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
    rng = _generator(scenario.seed, _EMITTER_STREAM)
    return _complex_normal(rng, (scenario.snapshots,))


def simulate_groups(
    scenario: SimScenario,
    groups: Iterable[int] | None = None,
    reduce: Callable[[np.ndarray], Any] | None = None,
) -> tuple:
    """Simulate the snapshot blocks of ``groups`` (default: all, in order).

    The shared emitter waveform is drawn once for all of them, then the
    blocks one at a time, each deterministic given ``(scenario.seed, q)``.
    ``reduce``, if given, maps each block to what is returned in its place
    before the next block is drawn: ``group_candidates`` passes
    ``sample_covariance``.
    A group index that is not an integer in ``[0, Q - 1]`` raises
    ``ConfigError``.

    Returns
    -------
    tuple of ndarray, or of what ``reduce`` returns
        One complex ``(K_q, T)`` block per group of ``groups``, in that
        order: ``block[k, n]`` is subarray ``k`` at snapshot ``n``.
    """
    if groups is None:
        groups = range(scenario.cfg.num_groups)
    else:
        groups = tuple(groups)
        for q in groups:
            check_integer("q", q, 0, scenario.cfg.num_groups - 1)
    x = emitter_waveform(scenario)
    sigma_v = np.sqrt(scenario.noise_variance)
    theta0 = float(scenario.theta0)
    constants = _group_constants(scenario.cfg, theta0, math.copysign(1.0, theta0))

    def draw(q: int):
        amplitude, steer = constants[q]
        noise = _complex_normal(
            _generator(scenario.seed, q), (steer.size, scenario.snapshots)
        )
        # amplitude * outer(steer, x) + sigma_v * noise, in place; the scalar
        # stays the first operand, which selects the same complex-multiply loop
        data = np.outer(steer, x)
        np.multiply(amplitude, data, out=data)
        np.multiply(sigma_v, noise, out=noise)
        data += noise
        return data if reduce is None else reduce(data)

    return tuple(map(draw, groups))


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


def simulate_group(scenario: SimScenario, q: int) -> np.ndarray:
    """Simulate the ``(K_q, T)`` snapshot block of group ``q`` (see
    :func:`simulate_groups`)."""
    return simulate_groups(scenario, (q,))[0]


def sample_covariance(block: np.ndarray) -> np.ndarray:
    """Sample covariance ``(1/T) * S @ S^H`` of a ``(K_q, T)`` block ``S``,
    forced exactly Hermitian; any other block, or one of
    :data:`UNSOLVABLE_DTYPES`, raises ``ValueError``."""
    if not (isinstance(block, np.ndarray) and block.ndim == 2 and block.shape[1] >= 1
            and block.dtype.kind in "fc" and block.dtype.type not in UNSOLVABLE_DTYPES):
        raise ValueError(f"need a 2-D float or complex (K_q, T) block with T >= 1, "
                         "solvable by numpy.linalg, "
                         f"got shape {np.shape(block)} dtype {getattr(block, 'dtype', None)}")
    r = block @ block.conj().T
    r /= block.shape[1]
    r += r.conj().T
    r /= 2.0
    return r
