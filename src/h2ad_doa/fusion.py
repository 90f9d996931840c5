"""Cross-group fusion: true-tuple selection and CRLB-weighted combining.

:func:`candidates_from_covariances` is the front end on data: one
covariance per group, simulated or recorded, split into classes of equal
``K_q``, each class through one stacked eigensolve, polynomial build and,
below ``K_q = 18``, companion rooting (see :mod:`h2ad_doa.subspace`).
:func:`group_candidates` feeds it one simulated trial, drawn once
(:func:`~h2ad_doa.signal_sim.simulate_groups`); every caller
(``estimate_doa``, the CLI, ``run_sweep`` and ``generate_dataset``) goes
through it.  The candidate sets equal the per-group chain's bit for
bit.  If a stack fails, the same covariances are rooted again one group
per stack, in group order, so a failure names the same group and cause
as the chain without drawing the trial again.

Coprime subarray sizes guarantee the groups' candidate sets intersect in
exactly one angle.  With noise the common angle spreads into a tight
cluster, so the true tuple is recovered as the one combination (one
candidate per group) of minimum within-tuple dispersion.  That minimum is
found by a sweep over the ``sum(M_q)`` cells between the groups' candidate
midpoints, never by listing all ``prod(M_q)`` combinations.  The members
are then averaged with inverse-CRLB weights, either from the closed-form
``M_q^2`` ratio that needs only the subarray sizes or from the exact
per-group bound evaluated at a plug-in angle under a nominal SNR and
snapshot count.  That back half is :func:`fuse_candidates`, which takes
the config, the candidate sets and, for the exact bound only, the
operating point, so sets from recorded covariances go through it as
simulated ones do; every weighted estimate goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .array_model import (
    SPACING,
    ArrayConfig,
    check_real,
    gain_coefficient,
    position_weighted_gain,
)
from .signal_sim import (
    UNSOLVABLE_DTYPES,
    SimScenario,
    check_operating_point,
    sample_covariance,
    simulate_groups,
)
from .subspace import (
    CandidateSet,
    enumerate_candidates,
    noise_subspaces,
    root_music_phases,
)

#: The exact CRLB is trusted only this far off broadside (radians).
ANGLE_GUARD = math.radians(70.0)

#: Weighting methods accepted by :func:`estimate_doa`.
WEIGHTING_METHODS = ("crlb_ratio", "exact_crlb")


class AngleOutOfGuardError(ValueError):
    """Plug-in angle outside the CRLB validity guard."""

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(
            f"|theta|={abs(theta):.4f} rad exceeds the {ANGLE_GUARD:.4f} rad "
            "guard for the exact CRLB"
        )


class NonPositiveCrlbError(ValueError):
    """A CRLB value that cannot be inverted into a weight."""


class GroupFailureError(RuntimeError):
    """A per-group stage failed, aborting the whole trial."""

    def __init__(self, group_index: int, cause: Exception):
        self.group_index = group_index
        super().__init__(f"group {group_index} failed: {cause}")


@dataclass(frozen=True)
class TrueTuple:
    """The selected one-candidate-per-group combination.

    ``angles`` holds the members in group order (radians),
    ``member_indices`` their positions in each group's ascending
    candidate list, and ``dispersion`` the within-tuple sum of squared
    deviations from the tuple mean.
    """

    angles: np.ndarray
    member_indices: tuple[int, ...]
    dispersion: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.angles))


@dataclass(frozen=True)
class CrlbReport:
    """Per-group and fused CRLB values (rad^2) for one operating point."""

    per_group: tuple[float, ...]
    fused_bound: float


@dataclass(frozen=True)
class FusedEstimate:
    """Output of :func:`fuse_candidates` for one set of candidates per group.

    ``weights`` holds the convex fusion weights in group order; ``crlb`` is
    the report behind ``exact_crlb`` weights, at the nominal SNR and
    snapshot count the back end was given, None for ``crlb_ratio``.
    """

    theta_hat: float
    selected: TrueTuple
    weights: np.ndarray
    candidate_sets: tuple[CandidateSet, ...]
    crlb: CrlbReport | None


def _angle_arrays(sets: Sequence) -> list[np.ndarray]:
    return [
        np.asarray(s.angles if isinstance(s, CandidateSet) else s, dtype=float)
        for s in sets
    ]


def select_true_tuple(sets: Sequence) -> TrueTuple:
    """Pick the minimum-dispersion combination across groups.

    Minimizes the sum of squared deviations from the combination mean
    over all ``prod(M_q)`` combinations of one candidate per group, in
    ``O(sum(M_q))`` work: the optimum is the tuple of each group's
    nearest candidate to some point ``c``, and that tuple only changes
    where ``c`` crosses the midpoint between two consecutive candidates
    of a group.  One probe below every midpoint and one at each midpoint
    (taking the upper candidate there) visit every such tuple.  The
    visited index tuples are componentwise non-decreasing, so the first
    minimum is the lexicographically smallest index tuple among the
    optimal ones, the same tie-break as the exhaustive search.

    The sweep runs on the groups' concatenated angles, with group
    boundaries masked: probe ``p`` steps the group of the ``p``-th sorted
    midpoint.  At a midpoint several groups share, that also visits the
    tuples with only some of them stepped; being in the same
    componentwise order, they cannot move the exhaustive search's choice.

    ``sets`` may hold :class:`CandidateSet` objects or bare angle
    arrays; each must be strictly ascending.
    """
    arrays = _angle_arrays(sets)
    if len(arrays) < 2:
        raise ValueError("need candidate sets from at least two groups")
    sizes = [a.size for a in arrays]
    if 0 in sizes:
        raise ValueError("empty candidate set")
    angles = np.concatenate(arrays)
    starts = np.cumsum([0, *sizes[:-1]])
    inner = np.ones(angles.size - 1, dtype=bool)
    inner[starts[1:] - 1] = False  # pairs that straddle two groups
    lower, upper = angles[:-1][inner], angles[1:][inner]
    if not (upper > lower).all():
        raise ValueError("candidate angles must be strictly ascending")
    mids = (lower + upper) / 2.0
    owner = np.repeat(np.arange(len(arrays)), np.subtract(sizes, 1))
    stepped = owner[mids.argsort(kind="stable"), None] == np.arange(len(arrays))
    rows = np.zeros((mids.size + 1, len(arrays)), dtype=np.intp)
    np.cumsum(stepped, axis=0, out=rows[1:])
    stacked = angles[rows + starts]
    mean = stacked.mean(axis=1, keepdims=True)
    dispersion = ((stacked - mean) ** 2).sum(axis=1)
    best = int(dispersion.argmin())
    return TrueTuple(
        angles=stacked[best].copy(),
        member_indices=tuple(int(i) for i in rows[best]),
        dispersion=float(dispersion[best]),
    )


def _guard_angle(theta0: float) -> None:
    check_real("theta0", theta0)
    if not abs(theta0) < ANGLE_GUARD:
        raise AngleOutOfGuardError(theta0)


def crlb_group_exact(
    cfg: ArrayConfig, q: int, theta0: float, snr_db: float, snapshots: int
) -> float:
    """Exact single-group CRLB on the angle estimate, in rad^2.

    Evaluates the closed-form bound for group ``q`` at angle ``theta0``
    (radians) and per-element SNR ``snr_db``, with the snapshot count as
    the observation length.  Valid for ``|theta0|`` under the 70 degree
    guard; beyond it the bound's small-error assumptions are off.
    An angle or SNR that is not a real number, ``snapshots < 1`` and an
    SNR that is NaN, ``-inf`` or finite beyond ``SNR_DB_LIMIT`` in
    magnitude raise ``ConfigError``.
    """
    check_operating_point(snr_db, snapshots)
    _guard_angle(theta0)
    geom = cfg.group(q)
    m_q = geom.subarray_size
    k_q = geom.num_subarrays
    d = SPACING
    snr = 10.0 ** (snr_db / 10.0)
    gain = gain_coefficient(geom, theta0)
    gain_sq = abs(gain) ** 2
    pos_gain = position_weighted_gain(geom, theta0)
    upsilon = m_q + k_q * m_q * gain_sq
    curvature = gain_sq**2 * m_q**2 * k_q**2 * (k_q**2 - 1) * d**2 / 12.0
    cross = (m_q * k_q / upsilon) * (
        gain_sq * abs(pos_gain) ** 2 + k_q * (gain**2 * pos_gain).real
    )
    numerator = m_q * upsilon
    denominator = (
        8.0 * snapshots * np.pi**2 * snr * np.cos(theta0) ** 2 * (curvature + cross)
    )
    return float(numerator / denominator)


def weights_exact(crlbs: Sequence[float]) -> np.ndarray:
    """Inverse-CRLB weights, normalized to sum to one."""
    values = np.asarray(crlbs, dtype=float)
    if values.size == 0:
        raise NonPositiveCrlbError("no CRLB values to weight")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise NonPositiveCrlbError(f"CRLBs must be finite and positive, got {values}")
    inv = 1.0 / values
    return inv / inv.sum()


def weights_crlb_ratio(cfg: ArrayConfig) -> np.ndarray:
    """Closed-form weights ``M_q^2 / sum(M_k^2)``.

    The CRLB-ratio rule: each group's weight grows with the square of
    its subarray size ``M_q``.  It needs nothing but the subarray sizes,
    so it costs no CRLB evaluation at run time.
    """
    m_sq = np.asarray(cfg.M, dtype=float) ** 2
    return m_sq / m_sq.sum()


def fuse(selected: TrueTuple, weights: np.ndarray) -> float:
    """Weighted average of the tuple members (radians)."""
    if weights.size != selected.angles.size:
        raise ValueError(f"{weights.size} weights for {selected.angles.size} groups")
    return float(np.dot(weights, selected.angles))


def fused_crlb(
    cfg: ArrayConfig, theta0: float, snr_db: float, snapshots: int
) -> CrlbReport:
    """Exact per-group bounds and their harmonic fusion.

    The fused bound ``1 / sum(1/CRLB_q)`` is the error floor of any
    convex combination of unbiased group estimates; it never exceeds the
    smallest per-group bound.  Inputs are checked as in
    :func:`crlb_group_exact`.
    """
    per_group = tuple(
        crlb_group_exact(cfg, q, theta0, snr_db, snapshots)
        for q in range(cfg.num_groups)
    )
    # A zero bound (noiseless, snr_db=inf) fuses to zero.
    fused = 1.0 / sum(1.0 / c for c in per_group) if all(per_group) else 0.0
    return CrlbReport(per_group=per_group, fused_bound=float(fused))


def candidates_from_covariances(
    cfg: ArrayConfig, covs: Iterable[np.ndarray]
) -> tuple[CandidateSet, ...]:
    """Root and unfold one (K_q, K_q) covariance per group, in group order.

    ``covs``, any iterable, is read once; it may be simulated, or
    :func:`sample_covariance` of recorded ``(K_q, T)`` blocks.  The groups
    that share a ``K_q`` go through :func:`noise_subspaces` and
    :func:`root_music_phases` together; every
    candidate set equals the per-group chain's bit for bit.  If a stack
    fails, the same covariances are rooted again one group per stack, in
    group order, so the :class:`GroupFailureError` that aborts the trial
    names the first failing group and carries the chain's cause.  Any
    other ``covs`` raises ``ValueError``: a shape other than ``(K_q, K_q)``,
    a dtype that is not numeric or is one of
    :data:`~h2ad_doa.signal_sim.UNSOLVABLE_DTYPES`, or a matrix that is not
    exactly Hermitian (the eigensolvers read only its lower triangle).
    """
    covs = tuple(covs)
    shapes = tuple(getattr(c, "shape", None) for c in covs)
    if shapes != tuple((k, k) for k in cfg.K):
        raise ValueError(f"need one (K_q, K_q) covariance per group of K={cfg.K}, got {shapes}")
    classes: dict[int, list[int]] = {}
    for q, k in enumerate(cfg.K):
        classes.setdefault(k, []).append(q)
    stacks = [(members, np.stack([covs[q] for q in members])) for members in classes.values()]
    for members, stack in stacks:
        _check_hermitian(members, stack)
    try:
        phases = _phases(stacks)
    except GroupFailureError:
        phases = _phases([([q], np.stack([covs[q]])) for q in range(cfg.num_groups)])
    return tuple(enumerate_candidates(phases[q], cfg.group(q)) for q in range(cfg.num_groups))


def _check_hermitian(members: list[int], stack: np.ndarray) -> None:
    """Refuse a stack that is not numeric or that ``numpy.linalg`` cannot
    factor, or the first member that is not exactly Hermitian."""
    if not np.issubdtype(stack.dtype, np.number) or stack.dtype.type in UNSOLVABLE_DTYPES:
        raise ValueError(f"need one numeric covariance per group that numpy.linalg "
                         f"can factor, got dtype {stack.dtype}")
    mirror = stack.conj().swapaxes(1, 2)
    if (stack == mirror).all():
        return
    for q, cov, conj_t in zip(members, stack, mirror):
        # NaN entries mirrored in place are left for the rooting to refuse
        if not np.array_equal(cov, conj_t, equal_nan=True):
            raise ValueError(f"need one Hermitian covariance per group; group {q} is not")


def _phases(stacks: Iterable[tuple[list[int], np.ndarray]]) -> dict[int, float]:
    """One rooting pass; a failing stack is named by its first member."""
    phases = {}
    for members, stack in stacks:
        try:
            for q, phase in zip(members, root_music_phases(noise_subspaces(stack))):
                phases[q] = phase
        except (ValueError, RuntimeError) as err:
            raise GroupFailureError(members[0], err) from err
    return phases


def group_candidates(scenario: SimScenario) -> tuple[CandidateSet, ...]:
    """Run the per-group front end: simulate, covariance, root, unfold.

    The trial is drawn once: :func:`~h2ad_doa.signal_sim.simulate_groups`
    forms each group's covariance as soon as its block is drawn, and
    :func:`candidates_from_covariances` roots them.  Every candidate set
    equals the per-group chain's (:func:`~h2ad_doa.signal_sim.simulate_group`,
    :func:`sample_covariance`, :func:`~h2ad_doa.subspace.noise_subspace`,
    :func:`~h2ad_doa.subspace.root_music_phase`) bit for bit.
    """
    return candidates_from_covariances(
        scenario.cfg, simulate_groups(scenario, reduce=sample_covariance)
    )


def fuse_candidates(
    cfg: ArrayConfig,
    sets: Sequence[CandidateSet],
    method: str = "crlb_ratio",
    snr_db: float | None = None,
    snapshots: int | None = None,
) -> FusedEstimate:
    """Back end of the pipeline: select the true tuple, weight, fuse.

    ``sets`` holds one candidate set per group of ``cfg``, simulated
    (:func:`group_candidates`) or from recorded covariances
    (:func:`candidates_from_covariances`).  ``method`` picks the
    weighting: ``crlb_ratio`` uses the closed-form subarray-size weights
    and reads nothing but ``cfg``; ``exact_crlb`` evaluates the exact
    per-group bound at the tuple mean (plug-in angle) under the nominal
    ``snr_db`` and ``snapshots``, then weights by inverse CRLB.  Without
    them, ``exact_crlb`` raises ``ConfigError`` (:func:`fused_crlb`).
    """
    _check_method(method)
    selected = select_true_tuple(sets)
    report = None
    if method == "crlb_ratio":
        weights = weights_crlb_ratio(cfg)
    else:
        report = fused_crlb(cfg, selected.mean, snr_db, snapshots)
        weights = weights_exact(report.per_group)
    return FusedEstimate(
        theta_hat=fuse(selected, weights),
        selected=selected,
        weights=weights,
        candidate_sets=tuple(sets),
        crlb=report,
    )


def _check_method(method: str) -> None:
    if method not in WEIGHTING_METHODS:
        raise ValueError(f"unknown weighting method {method!r}")


def estimate_doa(scenario: SimScenario, method: str = "crlb_ratio") -> FusedEstimate:
    """Full pipeline: :func:`group_candidates`, then :func:`fuse_candidates`
    at the scenario's SNR and snapshot count.  An unknown ``method`` is
    refused before the trial is drawn."""
    _check_method(method)
    return fuse_candidates(
        scenario.cfg, group_candidates(scenario), method, scenario.snr_db, scenario.snapshots
    )
