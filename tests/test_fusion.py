import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa.array_model import ArrayConfig, ConfigError
from h2ad_doa.fusion import (
    AngleOutOfGuardError,
    GroupFailureError,
    NonPositiveCrlbError,
    crlb_group_approx,
    crlb_group_exact,
    estimate_doa,
    fuse,
    fused_crlb,
    group_candidates,
    select_true_tuple,
    weights_crlb_ratio,
    weights_exact,
)
from h2ad_doa.signal_sim import SimScenario
from h2ad_doa.subspace import DegenerateSpectrumError, enumerate_candidates

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
THETA41 = math.radians(41.0)

# frozen from a scalar transcription of the per-group bound
# (M, K) = (7,11,13) x 16, theta0 = 41 deg, snr 0 dB, T = 200
GOLDEN_CRLB = (1.6018031824645215e-06, 1.1383008432088393e-06, 1.9125489696649204e-06)


def scenario(**kw):
    base = dict(cfg=BASE_CFG, theta0=THETA41, snr_db=0.0, snapshots=200, seed=0)
    base.update(kw)
    return SimScenario(**base)


def brute_force_tuple(groups):
    best = None
    for combo in itertools.product(*[range(len(g)) for g in groups]):
        vals = [groups[q][i] for q, i in enumerate(combo)]
        disp = sum((v - sum(vals) / len(vals)) ** 2 for v in vals)
        if best is None or disp < best[0] - 1e-15:
            best = (disp, combo)
    return best


def test_select_true_tuple_matches_brute_force_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(100):
        groups = [np.sort(rng.uniform(-1.5, 1.5, size=n)) for n in (3, 4, 5)]
        chosen = select_true_tuple(groups)
        disp, combo = brute_force_tuple(groups)
        assert chosen.member_indices == combo
        assert chosen.dispersion == pytest.approx(disp, abs=1e-12)
        assert chosen.mean == pytest.approx(np.mean(chosen.angles))


def test_select_true_tuple_tie_breaks_lexicographically():
    groups = [np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    chosen = select_true_tuple(groups)
    assert chosen.member_indices == (0, 0, 0)
    assert chosen.dispersion == 0.0


def test_select_true_tuple_needs_two_groups():
    with pytest.raises(ValueError):
        select_true_tuple([np.array([0.1, 0.2])])


def test_select_true_tuple_rejects_unsorted_candidates():
    with pytest.raises(ValueError):
        select_true_tuple([np.array([0.2, 0.1]), np.array([0.1, 0.2])])
    with pytest.raises(ValueError):
        select_true_tuple([np.array([0.1, 0.1]), np.array([0.1, 0.2])])


def product_oracle(groups):
    """Exhaustive search in itertools.product (lexicographic) order."""
    combos = list(itertools.product(*[range(len(g)) for g in groups]))
    table = np.array([[g[i] for g, i in zip(groups, c)] for c in combos])
    mean = table.mean(axis=1, keepdims=True)
    disp = np.sum((table - mean) ** 2, axis=1)
    best = int(np.argmin(disp))
    return combos[best], float(disp[best])


def _ascending_groups(values):
    group = st.lists(values, min_size=1, max_size=7, unique=True).map(sorted)
    return st.lists(group.map(np.array), min_size=2, max_size=5)


# A dyadic grid fine enough to act as reals, and a coarse grid of
# integers and tenths on which exact dispersion ties are common.
_FINE = st.integers(-1_500_000, 1_500_000).map(lambda k: k / 2.0**20)
_COARSE = st.tuples(st.integers(-6, 6), st.sampled_from([1.0, 0.1])).map(
    lambda p: p[0] * p[1]
)


@settings(max_examples=300, deadline=None)
@given(groups=st.one_of(_ascending_groups(_FINE), _ascending_groups(_COARSE)))
def test_select_true_tuple_equals_product_oracle(groups):
    chosen = select_true_tuple(groups)
    combo, disp = product_oracle(groups)
    assert chosen.member_indices == combo
    assert chosen.dispersion == disp
    assert np.array_equal(chosen.angles, [g[i] for g, i in zip(groups, combo)])


def test_select_true_tuple_scales_past_exhaustive_search():
    # prod(M) ~ 1.3e9 tuples: the exhaustive table alone would need ~65 GB.
    cfg = ArrayConfig(M=(23, 29, 31, 37, 41, 43), K=(8,) * 6)
    for theta_deg in (-52.0, -7.3, 0.4, 23.0, 61.0):
        theta = math.radians(theta_deg)
        sets = []
        for q in range(cfg.num_groups):
            geom = cfg.group(q)
            phase = 2.0 * np.pi * geom.virtual_spacing * math.sin(theta) / geom.wavelength
            sets.append(enumerate_candidates(float(np.angle(np.exp(1j * phase))), geom))
        planted = tuple(int(np.argmin(np.abs(cs.angles - theta))) for cs in sets)
        chosen = select_true_tuple(sets)
        assert chosen.member_indices == planted
        assert np.max(np.abs(chosen.angles - theta)) < 1e-12


def test_exact_crlb_frozen_values():
    for q, golden in enumerate(GOLDEN_CRLB):
        c = crlb_group_exact(BASE_CFG, q, THETA41, 0.0, 200)
        assert c == pytest.approx(golden, rel=1e-12)


def test_exact_crlb_scales_with_snapshots_and_snr():
    base = crlb_group_exact(BASE_CFG, 0, THETA41, 0.0, 200)
    assert crlb_group_exact(BASE_CFG, 0, THETA41, 0.0, 400) == pytest.approx(base / 2)
    assert crlb_group_exact(BASE_CFG, 0, THETA41, 10.0, 200) == pytest.approx(base / 10)


def test_approx_crlb_frozen_value_and_size_scaling():
    a = crlb_group_approx(BASE_CFG, 2, THETA41, 0.0, 200)
    assert a == pytest.approx(7.739535841372685e-09, rel=1e-12)
    # closed form scales exactly as 1/M_q^2
    a0 = crlb_group_approx(BASE_CFG, 0, THETA41, 0.0, 200)
    assert a0 / a == pytest.approx((13 / 7) ** 2, rel=1e-12)


def test_approx_approaches_exact_for_large_m_near_broadside():
    theta = math.radians(0.01)
    ratios = []
    for m in (7, 13, 31):
        cfg = ArrayConfig(M=(m,), K=(16,))
        ratios.append(
            crlb_group_approx(cfg, 0, theta, 0.0, 200)
            / crlb_group_exact(cfg, 0, theta, 0.0, 200)
        )
    errs = [abs(r - 1.0) for r in ratios]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


@pytest.mark.parametrize("fn", [crlb_group_exact, crlb_group_approx])
def test_crlb_guard_region(fn):
    with pytest.raises(AngleOutOfGuardError):
        fn(BASE_CFG, 0, math.radians(75.0), 0.0, 200)
    fn(BASE_CFG, 0, math.radians(69.9), 0.0, 200)


@pytest.mark.parametrize("snr_db, snapshots, field", [
    (0.0, 0, "snapshots"),
    (0.0, -3, "snapshots"),
    (-math.inf, 200, "snr_db"),
    (math.nan, 200, "snr_db"),
])
@pytest.mark.parametrize("fn", [
    lambda snr, t: fused_crlb(BASE_CFG, 0.7, snr, t),
    lambda snr, t: crlb_group_exact(BASE_CFG, 0, 0.7, snr, t),
    lambda snr, t: crlb_group_approx(BASE_CFG, 0, 0.7, snr, t),
], ids=["fused_crlb", "crlb_group_exact", "crlb_group_approx"])
def test_crlb_rejects_invalid_operating_point(fn, snr_db, snapshots, field):
    # previously a ZeroDivisionError, an infinite bound or a NaN bound
    with pytest.raises(ConfigError, match=field):
        fn(snr_db, snapshots)


def test_weights_exact_inverse_crlb():
    w = weights_exact([2.0, 1.0])
    assert np.allclose(w.weights, [1 / 3, 2 / 3])
    assert w.method == "exact_crlb"
    u = weights_exact(GOLDEN_CRLB)
    inv = 1.0 / np.asarray(GOLDEN_CRLB)
    assert np.allclose(u.weights, inv / inv.sum(), atol=1e-15)


def test_weights_exact_rejects_nonpositive():
    with pytest.raises(NonPositiveCrlbError):
        weights_exact([1e-6, -1e-6])
    with pytest.raises(NonPositiveCrlbError):
        weights_exact([0.0, 1.0])


def test_weights_crlb_ratio_frozen():
    w = weights_crlb_ratio(BASE_CFG)
    assert np.allclose(
        w.weights,
        (0.14454277286135694, 0.35693215339233036, 0.49852507374631266),
        atol=1e-12,
    )
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert w.method == "crlb_ratio"


def test_fuse_frozen_arithmetic():
    groups = [np.array([math.radians(v)]) for v in (40.0, 41.0, 42.0)]
    selected = select_true_tuple(groups)
    fused = fuse(selected, weights_crlb_ratio(BASE_CFG))
    assert math.degrees(fused) == pytest.approx(41.35398230088496, abs=1e-10)


def test_fused_crlb_harmonic_composition():
    report = fused_crlb(BASE_CFG, THETA41, 0.0, 200)
    assert np.allclose(report.per_group, GOLDEN_CRLB, rtol=1e-12)
    harmonic = 1.0 / np.sum(1.0 / np.asarray(GOLDEN_CRLB))
    assert report.fused_bound == pytest.approx(harmonic, rel=1e-12)
    assert report.fused_bound < min(GOLDEN_CRLB)


def test_noiseless_bounds_fuse_to_zero_and_refuse_exact_weights():
    report = fused_crlb(BASE_CFG, THETA41, math.inf, 200)
    assert report.per_group == (0.0, 0.0, 0.0)
    assert report.fused_bound == 0.0
    with pytest.raises(NonPositiveCrlbError):
        estimate_doa(scenario(snr_db=math.inf), method="exact_crlb")


def test_group_failure_wraps_cause(monkeypatch):
    monkeypatch.setattr(
        "h2ad_doa.fusion.sample_covariance", lambda snap: np.eye(16, dtype=complex)
    )
    with pytest.raises(GroupFailureError) as info:
        group_candidates(scenario())
    assert info.value.group_index == 0
    assert isinstance(info.value.__cause__, DegenerateSpectrumError)


def test_group_candidates_counts():
    sets = group_candidates(scenario(snr_db=10.0))
    assert tuple(len(cs.angles) for cs in sets) == (7, 11, 13)


@pytest.mark.parametrize("method", ["crlb_ratio", "exact_crlb"])
def test_estimate_doa_high_snr(method):
    est = estimate_doa(scenario(snr_db=30.0, seed=4), method=method)
    assert math.degrees(est.theta_hat) == pytest.approx(41.0, abs=0.01)
    assert est.method == method
    assert est.weights.weights.sum() == pytest.approx(1.0)
    assert len(est.candidate_sets) == 3
    assert np.max(np.abs(est.selected.angles - THETA41)) < math.radians(0.05)


def test_estimate_doa_rejects_unknown_method():
    with pytest.raises(ValueError):
        estimate_doa(scenario(), method="oracle")


def test_estimate_seed_paired_methods_share_tuple():
    a = estimate_doa(scenario(seed=12), method="crlb_ratio")
    b = estimate_doa(scenario(seed=12), method="exact_crlb")
    assert np.array_equal(a.selected.angles, b.selected.angles)
    assert a.theta_hat != b.theta_hat  # weights differ off broadside
