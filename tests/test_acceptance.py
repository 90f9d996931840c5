"""Acceptance gate: one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible via ``pytest -rA`` or
on failure) before asserting, so the gate reads as a checklist.  All
Monte-Carlo work uses frozen master seeds; reruns are bit-identical.

Criteria 3, 4 and 5 are implemented exactly as stated and are expected
to fail on this signal model: the analog combining stage is unsteered,
so each group's gain |e_q(theta)|^2 follows a Dirichlet kernel with
deep nulls across the angle domain instead of the steered-array value
M_q^2 the bound arithmetic assumes.  Near a null a group is effectively
deaf, which (a) scatters its candidate grid (criterion 3's uniqueness
and pseudo-gap clauses), and (b) makes the nominal bound several times
larger than the true estimator variance while threshold-region outliers
blow past it from the other side (criteria 4 and 5).  The checks are
kept two-sided and literal rather than loosened to hide that.
"""

import itertools
import math
import time

import numpy as np
import pytest

from h2ad_doa import mbdnn
from h2ad_doa.array_model import ArrayConfig, validate_config
from h2ad_doa.bench import BenchSpec, run_sweep
from h2ad_doa.fusion import (
    estimate_doa,
    group_candidates,
    select_true_tuple,
    weights_crlb_ratio,
    weights_exact,
)
from h2ad_doa.signal_sim import SimScenario, derive_seed

from mlp_oracles import grad_check

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
WIDE_CFG = ArrayConfig(M=(11, 13, 17), K=(16, 16, 16))
THETA41 = math.radians(41.0)
MASTER_SEED = 20260814


def report(n, label, ok, detail=""):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def monotone_with_one_soft_inversion(values, tol=0.10):
    inversions = 0
    for a, b in zip(values, values[1:]):
        if b > a:
            inversions += 1
            if b > a * (1.0 + tol):
                return False
    return inversions <= 1


def test_criterion_1_noiseless_exactness():
    sc = SimScenario(cfg=BASE_CFG, theta0=THETA41, snr_db=300.0, snapshots=200, seed=1)
    start = time.perf_counter()
    est = estimate_doa(sc, method="crlb_ratio")
    elapsed = time.perf_counter() - start
    err_deg = abs(math.degrees(est.theta_hat) - 41.0)
    containment = max(
        np.min(np.abs(np.degrees(cs.angles) - 41.0)) for cs in est.candidate_sets
    )
    ok = err_deg < 1e-3 and containment < 1e-4 and elapsed < 1.0
    assert report(
        1,
        "noiseless exactness",
        ok,
        f"err={err_deg:.2e} deg, worst containment={containment:.2e} deg, {elapsed*1e3:.0f} ms",
    )


def test_criterion_2_weight_arithmetic():
    w = weights_crlb_ratio(BASE_CFG)
    frozen_ok = np.allclose(w, (0.14454, 0.35693, 0.49853), atol=1e-5)
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    done = 0
    while done < 1000:
        size = int(rng.integers(2, 6))
        m = tuple(int(v) for v in rng.integers(2, 60, size=size))
        if any(math.gcd(a, b) != 1 for a, b in itertools.combinations(m, 2)):
            continue
        cfg = validate_config(ArrayConfig(M=m, K=(4,) * size))
        worst = max(worst, abs(weights_crlb_ratio(cfg).sum() - 1.0))
        done += 1
    ok = frozen_ok and worst < 1e-12
    assert report(
        2, "weight arithmetic", ok, f"frozen={frozen_ok}, worst sum dev={worst:.2e}"
    )


def test_criterion_3_ambiguity_structure():
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    bad_counts = bad_unique = bad_pseudo = 0
    n_draws = 1000
    for i in range(n_draws):
        theta_deg = float(rng.uniform(-60.0, 60.0))
        sc = SimScenario(
            cfg=BASE_CFG,
            theta0=math.radians(theta_deg),
            snr_db=10.0,
            snapshots=200,
            seed=int(derive_seed(MASTER_SEED, 3, i)),
        )
        sets = group_candidates(sc)
        if tuple(len(cs.angles) for cs in sets) != BASE_CFG.M:
            bad_counts += 1
            continue
        angles = [np.degrees(cs.angles) for cs in sets]
        grids = np.meshgrid(*angles, indexing="ij")
        stacked = np.stack(grids)
        spread = stacked.max(axis=0) - stacked.min(axis=0)
        if int((spread < 0.5).sum()) != 1:
            bad_unique += 1
        pseudo = [np.delete(a, np.argmin(np.abs(a - theta_deg))) for a in angles]
        gap = min(
            np.abs(pseudo[i1][:, None] - pseudo[i2][None, :]).min()
            for i1 in range(3)
            for i2 in range(i1 + 1, 3)
        )
        if gap < 0.1:
            bad_pseudo += 1
    elapsed = time.perf_counter() - start
    ok = bad_counts == 0 and bad_unique == 0 and bad_pseudo == 0 and elapsed < 120.0
    assert report(
        3,
        "ambiguity structure",
        ok,
        f"bad counts={bad_counts}, non-unique triple={bad_unique}/{n_draws}, "
        f"pseudo gap<0.1deg={bad_pseudo}/{n_draws}, {elapsed:.0f} s",
    )


def test_criterion_4_near_crlb_behavior():
    spec = BenchSpec(
        cfg=BASE_CFG,
        theta0_deg=41.0,
        snr_grid=(0.0, 5.0, 10.0, 15.0),
        snapshot_grid=(100,),
        trials=200,
        methods=("crlb_ratio",),
        master_seed=MASTER_SEED,
    )
    rows = sorted(run_sweep(spec), key=lambda r: r.snr_db)
    ratios = [r.rmse_deg / r.crlb_fused_deg for r in rows]
    within = all(1.0 / 1.5 <= v <= 1.5 for v in ratios)
    trend = monotone_with_one_soft_inversion([r.rmse_deg for r in rows])
    ok = within and trend
    assert report(
        4,
        "near-CRLB behavior",
        ok,
        "rmse/sqrt(bound) per SNR: "
        + ", ".join(f"{r.snr_db:+.0f}dB={v:.3f}" for r, v in zip(rows, ratios))
        + f"; trend={'ok' if trend else 'broken'}",
    )


def test_criterion_5_ratio_vs_exact_parity():
    spec = BenchSpec(
        cfg=BASE_CFG,
        theta0_deg=41.0,
        snr_grid=(0.0, 15.0),
        snapshot_grid=(200,),
        trials=200,
        methods=("crlb_ratio", "exact_crlb"),
        master_seed=MASTER_SEED,
    )
    rows = run_sweep(spec)
    rmse = {(r.method, r.snr_db): r.rmse_deg for r in rows}
    gaps = {
        snr: abs(rmse[("crlb_ratio", snr)] - rmse[("exact_crlb", snr)])
        / rmse[("exact_crlb", snr)]
        for snr in (0.0, 15.0)
    }
    ok = all(v < 0.10 for v in gaps.values())
    assert report(
        5,
        "ratio vs exact parity",
        ok,
        ", ".join(f"{snr:+.0f}dB gap={v:.3f}" for snr, v in gaps.items()),
    )


def test_criterion_6_snapshot_and_subarray_monotonicity():
    t_spec = BenchSpec(
        cfg=BASE_CFG,
        theta0_deg=41.0,
        snr_grid=(0.0,),
        snapshot_grid=(50, 100, 200, 400),
        trials=200,
        methods=("crlb_ratio",),
        master_seed=MASTER_SEED,
    )
    t_rows = sorted(run_sweep(t_spec), key=lambda r: r.snapshots)
    t_rmse = [r.rmse_deg for r in t_rows]
    k_spec = BenchSpec(
        cfg=WIDE_CFG,
        theta0_deg=41.0,
        snr_grid=(0.0,),
        snapshot_grid=(200,),
        k_grid=tuple(range(16, 65, 8)),
        trials=200,
        methods=("crlb_ratio",),
        master_seed=MASTER_SEED,
    )
    k_rows = sorted(run_sweep(k_spec), key=lambda r: r.K)
    k_rmse = [r.rmse_deg for r in k_rows]
    t_ok = monotone_with_one_soft_inversion(t_rmse)
    k_ok = monotone_with_one_soft_inversion(k_rmse)
    ok = t_ok and k_ok
    assert report(
        6,
        "snapshot/subarray monotonicity",
        ok,
        f"T sweep {[round(v, 4) for v in t_rmse]} {'ok' if t_ok else 'broken'}; "
        f"K sweep {[round(v, 4) for v in k_rmse]} {'ok' if k_ok else 'broken'}",
    )


def overfit_pool():
    # narrow band clear of every group's combining null, clean SNR:
    # the nearest-candidate labels are then a smooth target
    return mbdnn.generate_dataset(
        BASE_CFG,
        thetas_deg=np.arange(40.5, 44.6, 0.5),
        snrs_db=[15.0],
        trials_per_cell=8,
        snapshots=200,
        master_seed=101,
    )


def test_criterion_7_mbdnn_integrity(tmp_path):
    spec = mbdnn.MlpSpec.from_config(BASE_CFG)
    # gradient audit on a fresh model and simulated candidates
    model = mbdnn.init_model(spec, seed=7)
    pool = overfit_pool()
    grad_err = grad_check(model, pool.subset(np.arange(3)), params_per_loss=60, seed=1)

    # 64-sample memorization
    sub = pool.subset(np.arange(64))
    model = mbdnn.init_model(spec, seed=11)
    for epochs, lr in ((4000, 1e-3), (4000, 1e-4)):
        model, hist = mbdnn.train(
            model, sub, mbdnn.TrainConfig(stage="mb_fcnn", epochs=epochs, lr=lr, batch_size=64, seed=2)
        )
    overfit = hist[-1]

    # bitwise round trip
    path = tmp_path / "model.mbdnn"
    mbdnn.save_model(model, path)
    back = mbdnn.load_model(path)
    bitwise = all(np.array_equal(back.params[k], model.params[k]) for k in model.params)

    # seed determinism
    def short_fit():
        m = mbdnn.init_model(spec, seed=11)
        mbdnn.train(m, sub, mbdnn.TrainConfig(stage="mb_fcnn", epochs=5, seed=2))
        return m

    a, b = short_fit(), short_fit()
    deterministic = all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    ok = grad_err < 1e-4 and overfit < 1e-3 and bitwise and deterministic
    assert report(
        7,
        "network integrity",
        ok,
        f"grad_check={grad_err:.2e}, overfit={overfit:.2e} deg^2, "
        f"bitwise={bitwise}, deterministic={deterministic}",
    )


def test_criterion_8_mbdnn_low_snr_advantage():
    # desk-scale training set: 45 angles x 7 SNRs x 20 trials, frozen seeds
    train_set = mbdnn.generate_dataset(
        BASE_CFG,
        thetas_deg=np.arange(-88.0, 88.1, 4.0),
        snrs_db=np.arange(-15.0, 15.1, 5.0),
        trials_per_cell=20,
        snapshots=200,
        master_seed=1001,
    )
    model = mbdnn.init_model(mbdnn.MlpSpec.from_config(BASE_CFG), seed=11)
    for stage in ("mb_fcnn", "fusion_net"):
        model, _ = mbdnn.train(model, train_set, mbdnn.TrainConfig(stage=stage, seed=2))

    # held-out paired evaluation at the reference operating point
    mb_err, ratio_err = [], []
    for trial in range(500):
        sc = SimScenario(
            cfg=BASE_CFG,
            theta0=THETA41,
            snr_db=-15.0,
            snapshots=200,
            seed=int(derive_seed(2002, trial)),
        )
        sets = group_candidates(sc)
        mb_err.append(mbdnn.predict_doa(model, sets) - 41.0)
        est = estimate_doa(sc, method="crlb_ratio")
        ratio_err.append(math.degrees(est.theta_hat) - 41.0)
    mb_rmse = float(np.sqrt(np.mean(np.square(mb_err))))
    ratio_rmse = float(np.sqrt(np.mean(np.square(ratio_err))))
    ok = mb_rmse <= ratio_rmse
    assert report(
        8,
        "low-SNR advantage",
        ok,
        f"mbdnn={mb_rmse:.2f} deg vs crlb_ratio={ratio_rmse:.2f} deg at -15 dB, "
        f"{len(train_set)} training samples",
    )


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    mismatches = 0
    for _ in range(1000):
        q = int(rng.integers(2, 5))
        groups = [np.sort(rng.uniform(-1.5, 1.5, size=int(rng.integers(2, 7)))) for _ in range(q)]
        chosen = select_true_tuple(groups)
        best = None
        for combo in itertools.product(*[range(len(g)) for g in groups]):
            vals = [groups[i][j] for i, j in enumerate(combo)]
            mean = sum(vals) / len(vals)
            disp = sum((v - mean) ** 2 for v in vals)
            if best is None or disp < best[0] - 1e-15:
                best = (disp, combo)
        if chosen.member_indices != best[1]:
            mismatches += 1

    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    sims = 0
    dominated = True
    for _ in range(20):
        crlbs = rng.uniform(0.1, 5.0, size=2)
        w_opt = weights_exact(crlbs)
        obj_opt = float(np.sum(w_opt**2 * crlbs))
        obj_grid = grid**2 * crlbs[0] + (1.0 - grid) ** 2 * crlbs[1]
        dominated &= obj_opt <= float(obj_grid.min()) + 1e-15
        sims += 1
    ok = mismatches == 0 and dominated
    assert report(
        9,
        "oracle equivalence",
        ok,
        f"tuple mismatches={mismatches}/1000, simplex dominated in {sims}/20 draws",
    )
