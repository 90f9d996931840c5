import itertools
import math
import os
import select
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from h2ad_doa.array_model import ArrayConfig, ConfigError, gain_coefficient
from h2ad_doa.fusion import (
    AngleOutOfGuardError,
    GroupFailureError,
    NonPositiveCrlbError,
    candidates_from_covariances,
    crlb_group_exact,
    estimate_doa,
    fuse,
    fuse_candidates,
    fused_crlb,
    group_candidates,
    select_true_tuple,
    weights_crlb_ratio,
    weights_exact,
)
from h2ad_doa import fusion, signal_sim
from h2ad_doa.signal_sim import SimScenario, simulate_group, simulate_groups
from h2ad_doa.subspace import (
    DegenerateSpectrumError,
    NoRootFoundError,
    enumerate_candidates,
    noise_subspace,
    root_music_phase,
)

from sim_oracles import crlb_group_approx, searchsorted_tuple, uncached_estimate

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


def test_select_true_tuple_rejects_empty_set():
    with pytest.raises(ValueError, match="empty candidate set"):
        select_true_tuple([np.array([0.1, 0.2]), np.array([])])


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
    angles, indices = searchsorted_tuple(groups)
    assert indices == combo and chosen.angles.tobytes() == angles.tobytes()


def test_select_true_tuple_scales_past_exhaustive_search():
    # prod(M) ~ 1.3e9 tuples: the exhaustive table alone would need ~65 GB.
    cfg = ArrayConfig(M=(23, 29, 31, 37, 41, 43), K=(8,) * 6)
    for theta_deg in (-52.0, -7.3, 0.4, 23.0, 61.0):
        theta = math.radians(theta_deg)
        sets = []
        for q in range(cfg.num_groups):
            geom = cfg.group(q)
            phase = 2.0 * np.pi * geom.virtual_spacing * math.sin(theta)
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
    # a complex angle gave a bound from its real part, True one at 1 rad
    for theta in (0.5j, True, None):
        with pytest.raises(ConfigError, match="theta0"):
            fn(BASE_CFG, 0, theta, 0.0, 200)
    fn(BASE_CFG, 0, math.radians(69.9), 0.0, 200)


@pytest.mark.parametrize("snr_db, snapshots, field", [
    (0.0, 0, "snapshots"),
    (0.0, -3, "snapshots"),
    (0.0, 2.5, "snapshots"),
    (0.0, 200.0, "snapshots"),
    (0.0, True, "snapshots"),
    (-math.inf, 200, "snr_db"),
    (math.nan, 200, "snr_db"),
    (1001.0, 200, "snr_db"),
    (-1001.0, 200, "snr_db"),
    (None, 200, "snr_db"),
    ("10", 200, "snr_db"),
    (5j, 200, "snr_db"),
    (True, 200, "snr_db"),
])
@pytest.mark.parametrize("fn", [
    lambda snr, t: fused_crlb(BASE_CFG, 0.7, snr, t),
    lambda snr, t: crlb_group_exact(BASE_CFG, 0, 0.7, snr, t),
    lambda snr, t: crlb_group_approx(BASE_CFG, 0, 0.7, snr, t),
], ids=["fused_crlb", "crlb_group_exact", "crlb_group_approx"])
def test_crlb_rejects_invalid_operating_point(fn, snr_db, snapshots, field):
    # previously a ZeroDivisionError, an OverflowError, an infinite bound,
    # a NaN bound or a bound for a fractional snapshot count
    with pytest.raises(ConfigError, match=field):
        fn(snr_db, snapshots)


@pytest.mark.parametrize("snr_db", [-1000.0, 1000.0])
def test_extreme_snr_at_the_limit_runs_cleanly(snr_db):
    # RuntimeWarnings are errors in this suite, so no overflow hides here
    for ks in ((2, 2, 2), (16, 16, 16), (64, 64, 64), (8, 12, 16)):
        cfg = ArrayConfig(M=(7, 11, 13), K=ks)
        for snapshots in (1, 200):
            report = fused_crlb(cfg, THETA41, snr_db, snapshots)
            assert all(0.0 < c < math.inf for c in report.per_group)
            sc = scenario(cfg=cfg, snr_db=snr_db, snapshots=snapshots, seed=5)
            for method in ("crlb_ratio", "exact_crlb"):
                theta_hat = estimate_doa(sc, method).theta_hat
                assert math.isfinite(theta_hat)
                if snr_db > 0:
                    assert abs(theta_hat - THETA41) < 1e-6


def test_weights_exact_inverse_crlb():
    w = weights_exact([2.0, 1.0])
    assert np.allclose(w, [1 / 3, 2 / 3])
    u = weights_exact(GOLDEN_CRLB)
    inv = 1.0 / np.asarray(GOLDEN_CRLB)
    assert np.allclose(u, inv / inv.sum(), atol=1e-15)


def test_weights_exact_rejects_nonpositive():
    with pytest.raises(NonPositiveCrlbError):
        weights_exact([1e-6, -1e-6])
    with pytest.raises(NonPositiveCrlbError):
        weights_exact([0.0, 1.0])
    with pytest.raises(NonPositiveCrlbError, match="no CRLB values"):
        weights_exact([])


def test_weights_crlb_ratio_frozen():
    w = weights_crlb_ratio(BASE_CFG)
    assert np.allclose(
        w,
        (0.14454277286135694, 0.35693215339233036, 0.49852507374631266),
        atol=1e-12,
    )
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_fuse_frozen_arithmetic():
    groups = [np.array([math.radians(v)]) for v in (40.0, 41.0, 42.0)]
    selected = select_true_tuple(groups)
    fused = fuse(selected, weights_crlb_ratio(BASE_CFG))
    assert math.degrees(fused) == pytest.approx(41.35398230088496, abs=1e-10)


def test_fuse_rejects_wrong_weight_count():
    selected = select_true_tuple([np.array([0.1]), np.array([0.2])])
    with pytest.raises(ValueError, match="3 weights for 2 groups"):
        fuse(selected, weights_crlb_ratio(BASE_CFG))


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
        "h2ad_doa.fusion.sample_covariance", lambda block: np.eye(16, dtype=complex)
    )
    with pytest.raises(GroupFailureError) as info:
        group_candidates(scenario())
    assert info.value.group_index == 0
    assert isinstance(info.value.__cause__, DegenerateSpectrumError)


def chained_candidates(sc, covariance):
    """The per-group public chain, one group at a time: the candidate
    sets, or the first failing group and its cause."""
    sets = []
    for q in range(sc.cfg.num_groups):
        geom = sc.cfg.group(q)
        try:
            ns = noise_subspace(covariance(simulate_group(sc, q)))
            sets.append(enumerate_candidates(root_music_phase(ns, geom), geom))
        except (ValueError, RuntimeError) as err:
            return q, err
    return sets


K_CHOICES = (
    [(k,) for k in range(2, 17)]
    + [(k,) for k in range(18, 25)]
    + [(64,), (8, 12, 16), (16, 18, 16)]
)


@settings(max_examples=80, deadline=None)
@given(ks=st.sampled_from(K_CHOICES), q=st.integers(2, 5),
       snr_db=st.sampled_from([-15.0, 0.0, 30.0, math.inf]),
       theta=st.floats(-1.4, 1.4), snapshots=st.sampled_from([20, 200]),
       seed=st.integers(0, 2**63 - 1))
def test_group_candidates_match_per_group_chain_bytes(ks, q, snr_db, theta, snapshots, seed):
    # equal K_q classes of 2-5 groups on both sides of K_q = 18, K_q = 64
    # (the deep_k64 benchmark cell), and ragged configurations with two classes
    k = ks if len(ks) > 1 else ks * q
    cfg = ArrayConfig(M=(7, 11, 13, 17, 19)[: len(k)], K=k)
    sc = scenario(cfg=cfg, theta0=theta, snr_db=snr_db, snapshots=snapshots, seed=seed)
    reference = chained_candidates(sc, fusion.sample_covariance)
    if isinstance(reference, tuple):
        with pytest.raises(GroupFailureError) as info:
            group_candidates(sc)
        assert info.value.group_index == reference[0]
        assert type(info.value.__cause__) is type(reference[1])
        return
    sets = group_candidates(sc)
    assert len(sets) == len(reference)
    for got, ref in zip(sets, reference):
        assert type(got.phase_hat) is float
        assert np.float64(got.phase_hat).tobytes() == np.float64(ref.phase_hat).tobytes()
        assert got.angles.tobytes() == ref.angles.tobytes()


def test_group_candidates_draws_emitter_once(monkeypatch):
    calls = []
    draw = signal_sim.emitter_waveform
    monkeypatch.setattr(signal_sim, "emitter_waveform", lambda sc: calls.append(sc) or draw(sc))
    cfg = ArrayConfig(M=(7, 11, 13, 17, 19), K=(8, 8, 8, 12, 12))
    assert len(group_candidates(scenario(cfg=cfg, snr_db=10.0))) == 5
    assert len(calls) == 1


def broken_covariance(k, kind):
    if kind == "degenerate":
        return np.eye(k, dtype=complex)
    if kind == "nan":
        return np.full((k, k), np.nan, dtype=complex)
    # one dominant axis: the noise basis is exact unit vectors, so the
    # polynomial keeps only its lag-0 term and every root sits at zero
    return np.diag([2.0] + [1.0] * (k - 1)).astype(complex)


@pytest.mark.parametrize("k, broken, label, cause", [
    ((16, 16, 16), {2: "degenerate"}, 2, DegenerateSpectrumError),
    ((16, 16, 16), {0: "degenerate", 2: "degenerate"}, 0, DegenerateSpectrumError),
    ((16, 16, 16), {1: "nan"}, 1, np.linalg.LinAlgError),
    ((16, 16, 16), {2: "nan", 0: "zero-roots"}, 0, NoRootFoundError),
    ((16, 18, 16), {2: "degenerate", 1: "nan"}, 1, np.linalg.LinAlgError),
    ((16, 18, 16), {1: "zero-roots"}, 1, NoRootFoundError),
    ((20, 20, 20), {1: "degenerate", 2: "nan"}, 1, DegenerateSpectrumError),
], ids=["degenerate-g2", "degenerate-g0-g2", "nan-g1", "roots-g0-nan-g2",
        "ragged-nan-g1", "ragged-roots-g1", "k20-degenerate-g1"])
def test_stacked_failure_names_first_failing_group(monkeypatch, k, broken, label, cause):
    # a failure anywhere in a stack re-roots the same covariances one group
    # at a time, so the label and cause are those of the per-group chain,
    # and the trial is drawn once: one simulate pass, one emitter draw
    real = fusion.sample_covariance
    sc = scenario(cfg=ArrayConfig(M=(7, 11, 13), K=k), snr_db=10.0)
    group_of = {block.tobytes(): q for q, block in enumerate(simulate_groups(sc))}

    def covariance(block):
        kind = broken.get(group_of[block.tobytes()])
        return real(block) if kind is None else broken_covariance(block.shape[0], kind)

    monkeypatch.setattr("h2ad_doa.fusion.sample_covariance", covariance)
    q, err = chained_candidates(sc, covariance)
    assert (q, type(err)) == (label, cause)
    passes, draws = [], []
    simulate, draw = fusion.simulate_groups, signal_sim.emitter_waveform
    monkeypatch.setattr(fusion, "simulate_groups",
                        lambda sc, **kw: passes.append(sc) or simulate(sc, **kw))
    monkeypatch.setattr(signal_sim, "emitter_waveform", lambda sc: draws.append(sc) or draw(sc))
    with pytest.raises(GroupFailureError) as info:
        group_candidates(sc)
    assert info.value.group_index == label
    assert type(info.value.__cause__) is cause
    assert str(info.value.__cause__) == str(err)
    assert (len(passes), len(draws)) == (1, 1)


EYE16 = np.eye(16, dtype=complex)
# a one-emitter covariance: identity plus a rank-one steering term
_STEER16 = np.exp(0.3j * np.arange(16))
HERM16 = EYE16 + 0.5 * np.outer(_STEER16, _STEER16.conj())


@pytest.mark.parametrize("covs", [
    [EYE16] * 2,
    [EYE16] * 4,
    [EYE16, np.eye(15, dtype=complex), EYE16],
    [EYE16, EYE16, np.eye(16, 17, dtype=complex)],
    [EYE16, EYE16, EYE16[None]],
    [EYE16.tolist()] * 3,
    # the eigensolvers read only the lower triangle, so these were rooted
    # as if Hermitian, or blamed on the roots
    [HERM16 + np.triu(np.full((16, 16), 1j), 1), HERM16, HERM16],
    [HERM16, HERM16 + np.triu(HERM16, 1), HERM16],
    [HERM16, HERM16, np.triu(HERM16)],
    [HERM16, HERM16 + 1j * EYE16, HERM16],
    [HERM16.astype(str)] * 3,
    # numpy.linalg refuses these with a TypeError
    [EYE16.real.astype(np.float16)] * 3,
    [EYE16.real.astype(np.longdouble)] * 3,
    [EYE16, EYE16.astype(np.clongdouble), EYE16],
], ids=["two-groups", "four-groups", "k15-g1", "non-square-g2", "stacked-g2", "lists",
        "upper-plus-1j-g0", "upper-doubled-g1", "lower-zeroed-g2", "imaginary-diagonal-g1",
        "strings", "float16", "longdouble", "clongdouble-g1"])
def test_candidates_from_covariances_refuses_wrong_shapes(covs):
    with pytest.raises(ValueError, match="covariance per group"):
        candidates_from_covariances(BASE_CFG, covs)


def test_other_exceptions_propagate_after_one_pass(monkeypatch):
    # only ValueError and RuntimeError are group failures; anything else
    # escapes the first pass unwrapped, without a rerun
    passes, draws = [], []
    simulate, draw = fusion.simulate_groups, signal_sim.emitter_waveform
    monkeypatch.setattr(fusion, "simulate_groups",
                        lambda sc, **kw: passes.append(sc) or simulate(sc, **kw))
    monkeypatch.setattr(signal_sim, "emitter_waveform", lambda sc: draws.append(sc) or draw(sc))

    def broken(covs):
        raise ZeroDivisionError("synthetic")

    monkeypatch.setattr(fusion, "noise_subspaces", broken)
    with pytest.raises(ZeroDivisionError, match="synthetic"):
        group_candidates(scenario(snr_db=10.0))
    assert (len(passes), len(draws)) == (1, 1)


@pytest.mark.parametrize("raising, label", [({1, 2}, 1), ({2}, 2), ({0, 1, 2}, 0), ({1}, 1)])
def test_draw_task_exception_is_the_first_failing_groups(monkeypatch, raising, label):
    # the blocks are drawn across threads, yet a covariance that raises
    # surfaces as the serial loop's would: the lowest failing group's,
    # unwrapped and after one pass
    sc = scenario(snr_db=10.0)
    group_of = {block.tobytes(): q for q, block in enumerate(simulate_groups(sc))}
    monkeypatch.setattr(signal_sim, "FAN_OUT_MIN_BLOCK", 0)
    real = fusion.sample_covariance

    def covariance(block):
        q = group_of[block.tobytes()]
        if q in raising:
            raise ZeroDivisionError(f"group {q}")
        return real(block)

    monkeypatch.setattr("h2ad_doa.fusion.sample_covariance", covariance)
    with pytest.raises(ZeroDivisionError, match=f"^group {label}$"):
        group_candidates(sc)


@pytest.mark.parametrize("over", ["ignore", "raise"])
def test_caller_errstate_holds_in_every_draw_task(monkeypatch, over):
    # np.errstate is context-local: each group's covariance, whichever
    # thread forms it, overflows under the caller's setting
    sc = scenario(snr_db=10.0, seed=5)
    group_of = {block.tobytes(): q for q, block in enumerate(simulate_groups(sc))}
    monkeypatch.setattr(signal_sim, "FAN_OUT_MIN_BLOCK", 0)
    real = fusion.sample_covariance
    seen = {}

    def covariance(block):
        seen[group_of[block.tobytes()]] = np.geterr()["over"]
        np.multiply(np.float64(1e308), 10.0)
        return real(block)

    reference = estimate_doa(sc).theta_hat
    monkeypatch.setattr("h2ad_doa.fusion.sample_covariance", covariance)
    with np.errstate(over=over):
        if over == "ignore":
            assert estimate_doa(sc).theta_hat == reference
        else:
            with pytest.raises(FloatingPointError):
                estimate_doa(sc)
    assert set(seen.values()) == {over}
    if over == "ignore":
        assert sorted(seen) == [0, 1, 2]


def test_concurrent_callers_get_the_serial_bits(monkeypatch):
    # more calling threads than cores, switching often, share the pool and
    # must each see the bits of one serial pass
    monkeypatch.setattr(signal_sim, "FAN_OUT_MIN_BLOCK", 0)
    scenarios = [
        (scenario(cfg=ArrayConfig(M=M, K=K), snr_db=snr, seed=seed), method)
        for seed, (M, K, snr, method) in enumerate(
            [((7, 11, 13), (16, 16, 16), 0.0, "crlb_ratio"),
             ((11, 13, 17), (64, 64, 64), 0.0, "exact_crlb"),
             ((11, 13, 17, 19, 23), (8,) * 5, 10.0, "crlb_ratio"),
             ((7, 11, 13), (8, 20, 12), -5.0, "exact_crlb")] * 2)
    ]
    serial = [estimate_doa(sc, m).theta_hat for sc, m in scenarios]
    got = {}

    def caller(i):
        got[i] = [estimate_doa(sc, m).theta_hat for sc, m in scenarios[i:] + scenarios[:i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(6):
        assert got[i] == serial[i:] + serial[:i]


def test_forked_child_estimates_the_parents_bits(monkeypatch):
    # the child has none of the parent's pool threads; it must build its
    # own rather than wait on them
    monkeypatch.setattr(signal_sim, "FAN_OUT_MIN_BLOCK", 0)
    sc = scenario(snr_db=10.0, seed=7)
    expected = np.float64(estimate_doa(sc).theta_hat).tobytes()
    if signal_sim._cpus() > 1:
        assert signal_sim._pool is not None
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report and leave without running the parent's teardown
        try:
            signal.alarm(20)
            os.close(read_end)
            os.write(write_end, np.float64(estimate_doa(sc).theta_hat).tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 20.0)
        got = os.read(read_end, 8) if ready else b""
    finally:
        os.close(read_end)
        deadline = time.monotonic() + 20.0
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    assert got == expected


def test_group_candidates_counts():
    sets = group_candidates(scenario(snr_db=10.0))
    assert tuple(len(cs.angles) for cs in sets) == (7, 11, 13)


@pytest.mark.parametrize("method", ["crlb_ratio", "exact_crlb"])
def test_estimate_doa_high_snr(method):
    est = estimate_doa(scenario(snr_db=30.0, seed=4), method=method)
    assert math.degrees(est.theta_hat) == pytest.approx(41.0, abs=0.01)
    assert est.weights.sum() == pytest.approx(1.0)
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


@pytest.mark.parametrize("method", ["crlb_ratio", "exact_crlb"])
def test_estimate_doa_is_fusion_of_group_candidates(method):
    sc = scenario(seed=9)
    sets = group_candidates(sc)
    est = fuse_candidates(sc.cfg, sets, method, sc.snr_db, sc.snapshots)
    assert est.theta_hat == estimate_doa(sc, method).theta_hat
    assert est.candidate_sets == sets
    if method == "crlb_ratio":
        assert est.crlb is None
        assert np.array_equal(est.weights, weights_crlb_ratio(BASE_CFG))
    else:
        # the report the weights came from, at the tuple-mean plug-in angle
        assert est.crlb == fused_crlb(BASE_CFG, est.selected.mean, 0.0, 200)
        assert np.array_equal(est.weights, weights_exact(est.crlb.per_group))


@pytest.mark.parametrize("M, K", [
    ((11, 13, 17), (16, 16, 16)),
    ((11, 13, 17), (64, 64, 64)),
    ((11, 13, 17, 19, 23), (8, 8, 8, 8, 8)),
], ids=["k16", "k64", "q5-k8"])
@pytest.mark.parametrize("method", ["crlb_ratio", "exact_crlb"])
def test_estimate_doa_equals_uncached_chain_on_misses_and_hits(M, K, method):
    # the first trial of a cell computes the memoised group constants, the
    # rest reuse them; an SNR change keeps the entry, an angle change does not
    cfg = ArrayConfig(M=M, K=K)
    signal_sim._group_constants.cache_clear()
    for theta_deg, snr_db, seed in ((41.0, 10.0, 0), (41.0, 10.0, 1), (41.0, 0.0, 2),
                                    (-23.5, 10.0, 3), (41.0, 30.0, 4)):
        sc = scenario(cfg=cfg, theta0=math.radians(theta_deg), snr_db=snr_db, seed=seed)
        got = estimate_doa(sc, method).theta_hat
        assert np.float64(got).tobytes() == np.float64(uncached_estimate(sc, method)).tobytes()
    info = signal_sim._group_constants.cache_info()
    assert (info.misses, info.hits) == (2, 3)


@st.composite
def _coprime_configs(draw):
    # pairwise coprime by construction: each size is drawn from those
    # coprime to the sizes already drawn
    sizes: list[int] = []
    for _ in range(draw(st.integers(2, 4))):
        coprime = [v for v in range(2, 32) if all(math.gcd(v, m) == 1 for m in sizes)]
        sizes.append(draw(st.sampled_from(coprime)))
    ks = [draw(st.integers(2, 24)) for _ in sizes]
    return ArrayConfig(M=tuple(sizes), K=tuple(ks))


@settings(max_examples=60, deadline=None)
@given(cfg=_coprime_configs(), theta_deg=st.floats(-69.0, 69.0),
       seed=st.integers(0, 2**32))
def test_noiseless_recovery_on_random_coprime_configs(cfg, theta_deg, seed):
    # K_q spans both sides of 18, so the companion and the certified
    # rooting paths both take part.  Noiseless signal roots are double
    # roots on the unit circle, which costs digits: 1e-8 rad, not less.
    theta = math.radians(theta_deg)
    # a group in a combining null hears nothing, even without noise
    assume(all(abs(gain_coefficient(cfg.group(q), theta)) / m >= 0.05
               for q, m in enumerate(cfg.M)))
    sc = SimScenario(cfg=cfg, theta0=theta, snr_db=math.inf, snapshots=32, seed=seed)
    assert abs(estimate_doa(sc, "crlb_ratio").theta_hat - theta) <= 1e-8
