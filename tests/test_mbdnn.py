import math

import numpy as np
import pytest

from h2ad_doa import mbdnn
from h2ad_doa.array_model import ArrayConfig, ConfigError
from h2ad_doa.fusion import GroupFailureError, group_candidates
from h2ad_doa.mbdnn import (
    BadMagicError,
    Dataset,
    DimMismatchError,
    MlpSpec,
    NonFiniteLossError,
    ShapeMismatchError,
    TrainConfig,
    TruncatedFileError,
    features_from_candidates,
    forward,
    generate_dataset,
    grad_check,
    init_model,
    load_model,
    loss_fusion,
    loss_mb_fcnn,
    loss_mbnn,
    predict_doa,
    save_model,
    train,
)
from h2ad_doa.signal_sim import SimScenario

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
SPEC = MlpSpec.from_config(BASE_CFG)


def random_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.uniform(-60, 60, size=(n, SPEC.feature_length)),
        label_tuple=rng.uniform(-60, 60, size=(n, SPEC.num_groups)),
        label_theta=rng.uniform(-60, 60, size=n),
        snr_db=np.zeros(n),
    )


def test_spec_layout():
    assert SPEC.M == (7, 11, 13)
    assert SPEC.feature_length == 31
    assert SPEC.merge_width == 16
    assert SPEC.branch_widths(0) == (7, 28, 14, 7)
    assert SPEC.feature_offsets() == [0, 7, 18]
    assert SPEC.parameter_count == 5530
    names = [n for n, _ in SPEC.parameter_shapes()]
    assert names[0] == "branch0_w1"
    assert names[-4:] == ["head_w", "head_b", "fusion_w", "fusion_b"]


def test_init_glorot_bounds_and_zero_biases():
    model = init_model(SPEC, seed=5)
    for name, shape in SPEC.parameter_shapes():
        p = model.params[name]
        assert p.shape == shape
        assert p.dtype == np.float64
        if name.endswith(("b1", "b2", "b3", "_b")):
            assert np.all(p == 0.0)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.max(np.abs(p)) <= limit
            assert np.max(np.abs(p)) > 0.5 * limit  # actually filled
    again = init_model(SPEC, seed=5)
    assert all(np.array_equal(model.params[k], again.params[k]) for k in model.params)
    other = init_model(SPEC, seed=6)
    assert not np.array_equal(model.params["merge_w"], other.params["merge_w"])


def relu(v):
    return np.maximum(v, 0.0)


def test_forward_matches_plain_matmul_chain():
    model = init_model(SPEC, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 31))
    branch, merged, head, fused = forward(model, x)
    p = model.params
    outs = []
    for q, off in zip(range(3), SPEC.feature_offsets()):
        h = x[:, off : off + SPEC.M[q]]
        for layer in (1, 2, 3):
            h = relu(h @ p[f"branch{q}_w{layer}"] + p[f"branch{q}_b{layer}"])
        outs.append(h)
    concat = np.concatenate(outs, axis=1)
    merged_ref = relu(concat @ p["merge_w"] + p["merge_b"])
    head_ref = merged_ref @ p["head_w"] + p["head_b"]
    fused_ref = (head_ref @ p["fusion_w"] + p["fusion_b"]).ravel()
    assert np.allclose(np.concatenate(branch, axis=1), concat, atol=1e-12)
    assert np.allclose(merged, merged_ref, atol=1e-12)
    assert np.allclose(head, head_ref, atol=1e-12)
    assert np.allclose(fused, fused_ref, atol=1e-12)


def test_forward_positive_homogeneity():
    # zero biases at init make the piecewise-linear net exactly homogeneous
    model = init_model(SPEC, seed=3)
    x = np.random.default_rng(4).normal(size=(5, 31))
    _, _, head1, fused1 = forward(model, x)
    _, _, head2, fused2 = forward(model, 2.0 * x)
    assert np.allclose(head2, 2.0 * head1, rtol=1e-12, atol=1e-12)
    # fusion output has a bias row, still zero at init
    assert np.allclose(fused2, 2.0 * fused1, rtol=1e-12, atol=1e-12)


def test_forward_accepts_single_sample():
    model = init_model(SPEC, seed=1)
    _, _, head, fused = forward(model, np.zeros(31))
    assert head.shape == (1, 3)
    assert fused.shape == (1,)


def test_forward_rejects_wrong_width():
    model = init_model(SPEC, seed=1)
    with pytest.raises(ShapeMismatchError):
        forward(model, np.zeros((2, 30)))


def test_loss_formulas():
    rng = np.random.default_rng(9)
    head = rng.normal(size=(4, 3))
    labels = rng.normal(size=(4, 3))
    fused = rng.normal(size=4)
    theta = rng.normal(size=4)
    assert loss_mb_fcnn(head, labels) == pytest.approx(np.mean((head - labels) ** 2))
    assert loss_fusion(fused, theta) == pytest.approx(np.mean((fused - theta) ** 2))
    assert loss_mbnn(head, fused) == pytest.approx(
        np.mean((head - fused[:, None]) ** 2)
    )
    assert loss_mbnn(np.ones((4, 3)), np.ones(4)) == 0.0


def test_grad_check_random_model():
    model = init_model(SPEC, seed=7)
    sample = random_dataset(3, seed=8)
    assert grad_check(model, sample, params_per_loss=60, seed=1) < 1e-4


def test_grad_check_positive_routing_model():
    # unit positive biases keep every unit active under the probe step
    # while activations, losses and gradients all stay O(1); the losses
    # are then locally quadratic and central differences are sharp
    model = init_model(SPEC, seed=7)
    for name in model.params:
        if name.endswith(("b1", "b2", "b3")) or name in ("merge_b",):
            model.params[name][:] = 1.0
    rng = np.random.default_rng(12)
    sample = Dataset(
        features=rng.uniform(0.0, 1.0, size=(2, SPEC.feature_length)),
        label_tuple=rng.uniform(-1.0, 1.0, size=(2, SPEC.num_groups)),
        label_theta=rng.uniform(-1.0, 1.0, size=2),
        snr_db=np.zeros(2),
    )
    # the wider probe step suits the O(1) smooth landscape: truncation
    # stays negligible while roundoff in the loss difference shrinks
    assert grad_check(model, sample, params_per_loss=40, step=1e-4, seed=2) < 1e-9


def test_train_zero_lr_is_identity():
    model = init_model(SPEC, seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    _, hist = train(model, random_dataset(32), TrainConfig(stage="mb_fcnn", epochs=3, lr=0.0))
    assert all(np.array_equal(before[k], model.params[k]) for k in before)
    assert hist[0] == pytest.approx(hist[-1])


def test_train_deterministic_by_seed():
    def fit(seed):
        model = init_model(SPEC, seed=2)
        train(model, random_dataset(64), TrainConfig(stage="mb_fcnn", epochs=5, seed=seed))
        return model
    a, b, c = fit(3), fit(3), fit(4)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_train_stage_isolation():
    ds = random_dataset(32)
    model = init_model(SPEC, seed=1)
    frozen = {k: model.params[k].copy() for k in model.fusion_names()}
    train(model, ds, TrainConfig(stage="mb_fcnn", epochs=2, lr=1e-3))
    assert all(np.array_equal(frozen[k], model.params[k]) for k in frozen)

    model = init_model(SPEC, seed=1)
    frozen = {k: model.params[k].copy() for k in model.backbone_names()}
    train(model, ds, TrainConfig(stage="fusion_net", epochs=2, lr=1e-3))
    assert all(np.array_equal(frozen[k], model.params[k]) for k in frozen)
    assert model.epochs_trained == 2


def test_train_decreases_loss():
    model = init_model(SPEC, seed=1)
    _, hist = train(model, random_dataset(128), TrainConfig(stage="mb_fcnn", epochs=30, lr=1e-3))
    assert hist[-1] < hist[0]
    assert len(hist) == 30


def test_train_rejects_bad_stage_and_empty_data():
    model = init_model(SPEC, seed=1)
    with pytest.raises(ValueError):
        train(model, random_dataset(8), TrainConfig(stage="warmup"))
    with pytest.raises(ValueError):
        train(model, random_dataset(0), TrainConfig(stage="mb_fcnn"))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_raises_on_nonfinite():
    model = init_model(SPEC, seed=1)
    model.params["head_w"][:] = np.inf
    with pytest.raises(NonFiniteLossError) as info:
        train(model, random_dataset(8), TrainConfig(stage="mb_fcnn", epochs=1))
    assert info.value.stage == "mb_fcnn"


def test_features_from_candidates_layout():
    sc = SimScenario(cfg=BASE_CFG, theta0=math.radians(10.0), snr_db=15.0,
                     snapshots=100, seed=3)
    sets = group_candidates(sc)
    feats = features_from_candidates(SPEC, sets)
    assert feats.shape == (31,)
    for q, off in zip(range(3), SPEC.feature_offsets()):
        block = feats[off : off + SPEC.M[q]]
        assert np.all(np.diff(block) > 0)
        assert np.allclose(block, np.degrees(np.sort(sets[q].angles)))


def test_features_from_candidates_rejects_wrong_block():
    sc = SimScenario(cfg=BASE_CFG, theta0=0.1, snr_db=15.0, snapshots=100, seed=3)
    sets = list(group_candidates(sc))
    sets[1] = sets[0]
    with pytest.raises(ShapeMismatchError):
        features_from_candidates(SPEC, sets)


def test_generate_dataset_labels_are_nearest_candidates():
    ds = generate_dataset(BASE_CFG, thetas_deg=[5.0, 25.0], snrs_db=[10.0],
                          trials_per_cell=3, snapshots=100, master_seed=7)
    assert len(ds) == 6
    assert set(np.round(ds.label_theta, 6)) == {5.0, 25.0}
    for i in range(len(ds)):
        for q, off in zip(range(3), SPEC.feature_offsets()):
            block = ds.features[i, off : off + SPEC.M[q]]
            nearest = block[np.argmin(np.abs(block - ds.label_theta[i]))]
            assert ds.label_tuple[i, q] == pytest.approx(nearest, abs=1e-12)


def test_generate_dataset_counts_skips(monkeypatch):
    calls = {"n": 0}
    real = group_candidates

    def flaky(sc):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise GroupFailureError(1, RuntimeError("synthetic"))
        return real(sc)

    monkeypatch.setattr("h2ad_doa.mbdnn.group_candidates", flaky)
    ds = generate_dataset(BASE_CFG, thetas_deg=[5.0], snrs_db=[10.0],
                          trials_per_cell=9, snapshots=50, master_seed=7)
    assert ds.skipped == 3
    assert len(ds) == 6


@pytest.mark.parametrize("theta_deg", [-90.0, 90.0])
def test_generate_dataset_rejects_endfire_angle(theta_deg):
    # an invalid cell is a configuration error, not a skipped trial
    with pytest.raises(ConfigError, match="theta0"):
        generate_dataset(BASE_CFG, thetas_deg=[theta_deg], snrs_db=[10.0],
                         trials_per_cell=1, snapshots=32)


@pytest.mark.parametrize("thetas_deg, snrs_db, field", [
    ([10.0, 20.0, 90.0], [10.0], "theta0"),
    ([10.0, 20.0], [10.0, math.nan], "snr_db"),
])
def test_generate_dataset_checks_every_cell_before_any_trial(monkeypatch, thetas_deg,
                                                             snrs_db, field):
    calls = []
    monkeypatch.setattr(mbdnn, "group_candidates", lambda sc: calls.append(sc))
    with pytest.raises(ConfigError, match=field):
        generate_dataset(BASE_CFG, thetas_deg=thetas_deg, snrs_db=snrs_db,
                         trials_per_cell=2, snapshots=32)
    assert calls == []


def test_dataset_csv_round_trip(tmp_path):
    ds = random_dataset(10, seed=5)
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    back = Dataset.load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.label_tuple, ds.label_tuple)
    assert np.array_equal(back.label_theta, ds.label_theta)
    assert np.array_equal(back.snr_db, ds.snr_db)


def test_dataset_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        Dataset.load_csv(path)


def test_dataset_subset():
    ds = random_dataset(10)
    sub = ds.subset(np.array([1, 3, 5]))
    assert len(sub) == 3
    assert np.array_equal(sub.features, ds.features[[1, 3, 5]])


def test_model_save_load_bitwise(tmp_path):
    model = init_model(SPEC, seed=9)
    train(model, random_dataset(16), TrainConfig(stage="mb_fcnn", epochs=2))
    path = tmp_path / "m.mbdnn"
    save_model(model, path)
    back = load_model(path)
    assert back.spec == model.spec
    assert back.seed == model.seed
    assert back.epochs_trained == model.epochs_trained
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    for stage in ("mb_fcnn", "fusion_net", "joint"):
        a, b = model.stage_losses.get(stage), back.stage_losses.get(stage)
        assert (a == b) or (math.isnan(a) and math.isnan(b))


def test_model_bad_magic(tmp_path):
    path = tmp_path / "m.mbdnn"
    save_model(init_model(SPEC, seed=1), path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_model(path)


def test_model_dim_mismatch(tmp_path):
    path = tmp_path / "m.mbdnn"
    save_model(init_model(SPEC, seed=1), path)
    raw = bytearray(path.read_bytes())
    # first group size lives right after magic and group count
    raw[10] = 6
    path.write_bytes(bytes(raw))
    with pytest.raises(DimMismatchError):
        load_model(path)


def test_model_truncated(tmp_path):
    path = tmp_path / "m.mbdnn"
    save_model(init_model(SPEC, seed=1), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError):
        load_model(path)


def test_predict_doa_returns_float():
    model = init_model(SPEC, seed=1)
    sc = SimScenario(cfg=BASE_CFG, theta0=0.2, snr_db=15.0, snapshots=100, seed=2)
    out = predict_doa(model, group_candidates(sc))
    assert isinstance(out, float)
    assert math.isfinite(out)
