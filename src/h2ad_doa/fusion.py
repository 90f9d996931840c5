"""Cross-group fusion: true-tuple selection and CRLB-weighted combining.

Coprime subarray sizes guarantee the groups' candidate sets intersect in
exactly one angle.  With noise the common angle spreads into a tight
cluster, so the true tuple is recovered as the one combination (one
candidate per group) of minimum within-tuple dispersion.  That minimum is
found by a sweep over the ``sum(M_q)`` cells between the groups' candidate
midpoints, never by listing all ``prod(M_q)`` combinations.  The members
are then averaged with inverse-CRLB weights, either from the exact
per-group bound evaluated at a plug-in angle or from the closed-form
large-``M`` ratio that needs only the subarray sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .array_model import ArrayConfig, gain_coefficient, position_weighted_gain
from .signal_sim import SimScenario, check_operating_point, simulate_group, sample_covariance
from .subspace import CandidateSet, enumerate_candidates, noise_subspace, root_music_phase

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
class WeightVector:
    """Convex fusion weights over groups, tagged with their origin."""

    weights: np.ndarray
    method: str


@dataclass(frozen=True)
class CrlbReport:
    """Per-group and fused CRLB values (rad^2) for one operating point."""

    per_group: tuple[float, ...]
    fused_bound: float
    theta0: float
    snr_db: float
    snapshots: int


@dataclass(frozen=True)
class FusedEstimate:
    """Output of the full pipeline for one trial."""

    theta_hat: float
    selected: TrueTuple
    weights: WeightVector
    candidate_sets: tuple[CandidateSet, ...]
    method: str


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

    ``sets`` may hold :class:`CandidateSet` objects or bare angle
    arrays; each must be strictly ascending.
    """
    arrays = _angle_arrays(sets)
    if len(arrays) < 2:
        raise ValueError("need candidate sets from at least two groups")
    if any(a.size == 0 for a in arrays):
        raise ValueError("empty candidate set")
    if not all(np.all(np.diff(a) > 0) for a in arrays):
        raise ValueError("candidate angles must be strictly ascending")
    mids = [(a[:-1] + a[1:]) / 2.0 for a in arrays]
    probes = np.concatenate([[-np.inf], *mids])
    probes.sort()
    rows = np.stack([np.searchsorted(m, probes, side="right") for m in mids], axis=1)
    stacked = np.stack([a[idx] for a, idx in zip(arrays, rows.T)], axis=1)
    mean = stacked.mean(axis=1, keepdims=True)
    dispersion = np.sum((stacked - mean) ** 2, axis=1)
    best = int(np.argmin(dispersion))
    return TrueTuple(
        angles=stacked[best].copy(),
        member_indices=tuple(int(i) for i in rows[best]),
        dispersion=float(dispersion[best]),
    )


def _guard_angle(theta0: float) -> None:
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
    ``snapshots < 1`` and a NaN or ``-inf`` SNR raise ``ConfigError``.
    """
    check_operating_point(snr_db, snapshots)
    _guard_angle(theta0)
    geom = cfg.group(q)
    m_q = geom.subarray_size
    k_q = geom.num_subarrays
    lam = geom.wavelength
    d = geom.spacing
    snr = 10.0 ** (snr_db / 10.0)
    gain = gain_coefficient(geom, theta0)
    gain_sq = abs(gain) ** 2
    pos_gain = position_weighted_gain(geom, theta0)
    upsilon = m_q + k_q * m_q * gain_sq
    curvature = gain_sq**2 * m_q**2 * k_q**2 * (k_q**2 - 1) * d**2 / 12.0
    cross = (m_q * k_q / upsilon) * (
        gain_sq * abs(pos_gain) ** 2 + k_q * (gain**2 * pos_gain).real
    )
    numerator = lam**2 * m_q * upsilon
    denominator = (
        8.0 * snapshots * np.pi**2 * snr * np.cos(theta0) ** 2 * (curvature + cross)
    )
    return float(numerator / denominator)


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


def weights_exact(crlbs: Sequence[float]) -> WeightVector:
    """Inverse-CRLB weights, normalized to sum to one."""
    values = np.asarray(crlbs, dtype=float)
    if values.size == 0:
        raise NonPositiveCrlbError("no CRLB values to weight")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise NonPositiveCrlbError(f"CRLBs must be finite and positive, got {values}")
    inv = 1.0 / values
    return WeightVector(weights=inv / inv.sum(), method="exact_crlb")


def weights_crlb_ratio(cfg: ArrayConfig) -> WeightVector:
    """Closed-form weights ``M_q^2 / sum(M_k^2)``.

    Follows from the approximate bound ratio; needs nothing but the
    subarray sizes, so it costs no CRLB evaluation at run time.
    """
    m_sq = np.asarray(cfg.M, dtype=float) ** 2
    return WeightVector(weights=m_sq / m_sq.sum(), method="crlb_ratio")


def fuse(selected: TrueTuple, weights: WeightVector) -> float:
    """Weighted average of the tuple members (radians)."""
    if weights.weights.size != selected.angles.size:
        raise ValueError(
            f"{weights.weights.size} weights for {selected.angles.size} groups"
        )
    return float(np.dot(weights.weights, selected.angles))


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
    return CrlbReport(
        per_group=per_group,
        fused_bound=float(fused),
        theta0=theta0,
        snr_db=snr_db,
        snapshots=snapshots,
    )


def group_candidates(scenario: SimScenario) -> tuple[CandidateSet, ...]:
    """Run the per-group front end: simulate, covariance, root, unfold.

    Any group-stage failure aborts the trial via
    :class:`GroupFailureError` tagged with the failing group.
    """
    sets = []
    for q in range(scenario.cfg.num_groups):
        geom = scenario.cfg.group(q)
        try:
            snaps = simulate_group(scenario, q)
            cov = sample_covariance(snaps)
            ns = noise_subspace(cov)
            phase = root_music_phase(ns, geom)
            sets.append(enumerate_candidates(phase, geom))
        except (ValueError, RuntimeError) as err:
            raise GroupFailureError(q, err) from err
    return tuple(sets)


def estimate_doa(scenario: SimScenario, method: str = "crlb_ratio") -> FusedEstimate:
    """Full pipeline: snapshots to fused angle estimate.

    ``method`` picks the weighting: ``crlb_ratio`` uses the closed-form
    subarray-size weights; ``exact_crlb`` evaluates the exact per-group
    bound at the tuple mean (plug-in angle) under the scenario's nominal
    SNR, then weights by inverse CRLB.
    """
    if method not in WEIGHTING_METHODS:
        raise ValueError(f"unknown weighting method {method!r}")
    sets = group_candidates(scenario)
    selected = select_true_tuple(sets)
    if method == "crlb_ratio":
        weights = weights_crlb_ratio(scenario.cfg)
    else:
        report = fused_crlb(
            scenario.cfg, selected.mean, scenario.snr_db, scenario.snapshots
        )
        weights = weights_exact(report.per_group)
    return FusedEstimate(
        theta_hat=fuse(selected, weights),
        selected=selected,
        weights=weights,
        candidate_sets=sets,
        method=method,
    )
