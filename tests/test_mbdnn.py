import hashlib
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa import mbdnn
from h2ad_doa.array_model import ArrayConfig, ConfigError
from h2ad_doa.fusion import GroupFailureError, group_candidates
from h2ad_doa.mbdnn import (
    STAGES,
    Dataset,
    MlpModel,
    MlpSpec,
    ModelFormatError,
    NonFiniteLossError,
    ShapeMismatchError,
    TrainConfig,
    features_from_candidates,
    forward,
    generate_dataset,
    init_model,
    load_model,
    predict_doa,
    save_model,
    train,
)
from h2ad_doa.signal_sim import SimScenario

from mlp_oracles import foreign_dataset_files, grad_check

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
    # a seed that default_rng would take as another value, or refuse with
    # its own error, is refused by name
    for seed in (True, -1, 1.5, "5", None):
        with pytest.raises(ConfigError, match="seed="):
            init_model(SPEC, seed=seed)


def relu(v):
    return np.maximum(v, 0.0)


def test_forward_matches_plain_matmul_chain():
    model = init_model(SPEC, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 31))
    out = forward(model, x)
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
    assert np.allclose(out["concat"], concat, atol=1e-12)
    assert np.allclose(out["merged"], merged_ref, atol=1e-12)
    assert np.allclose(out["head"], head_ref, atol=1e-12)
    assert np.allclose(out["fused"], fused_ref, atol=1e-12)


def test_forward_positive_homogeneity():
    # zero biases at init make the piecewise-linear net exactly homogeneous
    model = init_model(SPEC, seed=3)
    x = np.random.default_rng(4).normal(size=(5, 31))
    one, two = forward(model, x), forward(model, 2.0 * x)
    assert np.allclose(two["head"], 2.0 * one["head"], rtol=1e-12, atol=1e-12)
    # fusion output has a bias row, still zero at init
    assert np.allclose(two["fused"], 2.0 * one["fused"], rtol=1e-12, atol=1e-12)


def test_forward_accepts_single_sample():
    model = init_model(SPEC, seed=1)
    out = forward(model, np.zeros(31))
    assert out["head"].shape == (1, 3)
    assert out["fused"].shape == (1,)


def test_forward_rejects_wrong_width():
    model = init_model(SPEC, seed=1)
    with pytest.raises(ShapeMismatchError):
        forward(model, np.zeros((2, 30)))


def test_loss_formulas():
    model = init_model(SPEC, seed=9)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 31))
    labels = rng.normal(size=(4, 3))
    theta = rng.normal(size=4)
    out = forward(model, x)
    head, fused = out["head"], out["fused"]

    def loss(stage):
        return mbdnn._stage_loss_and_grads(model, stage, x, labels, theta)[0]

    assert loss("mb_fcnn") == pytest.approx(np.mean((head - labels) ** 2))
    assert loss("fusion_net") == pytest.approx(np.mean((fused - theta) ** 2))
    assert loss("joint") == pytest.approx(np.mean((head - fused[:, None]) ** 2))
    # equal head columns (all ones) and a fusion layer that copies the first
    model.params["head_w"][:] = 0.0
    model.params["head_b"][:] = 1.0
    model.params["fusion_w"][:] = [[1.0], [0.0], [0.0]]
    model.params["fusion_b"][:] = 0.0
    assert loss("joint") == 0.0
    with pytest.raises(ValueError, match="unknown stage"):
        loss("warmup")


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
    fusion = ("fusion_w", "fusion_b")
    frozen = {k: model.params[k].copy() for k in fusion}
    train(model, ds, TrainConfig(stage="mb_fcnn", epochs=2, lr=1e-3))
    assert all(np.array_equal(frozen[k], model.params[k]) for k in frozen)

    model = init_model(SPEC, seed=1)
    frozen = {k: model.params[k].copy() for k in model.params if k not in fusion}
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
    narrow = random_dataset(8)
    narrow.features = narrow.features[:, :-1]
    with pytest.raises(ShapeMismatchError, match="feature length 30"):
        train(model, narrow, TrainConfig(stage="mb_fcnn"))


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("table, cut", [
    ("label_tuple", lambda t: t[:, :1]),  # would broadcast against every head
    ("label_tuple", lambda t: t[:, 0]),
    ("label_tuple", lambda t: t[:-1]),
    ("label_theta", lambda t: t[:-1]),  # would raise IndexError mid-epoch
    ("label_theta", lambda t: t[:, None]),
], ids=["tuple-one-column", "tuple-1d", "tuple-short", "theta-short", "theta-column"])
def test_train_refuses_labels_of_wrong_shape(stage, table, cut):
    # refused before the first step, in every stage, leaving the model as it was
    model = init_model(SPEC, seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    ds = random_dataset(8)
    setattr(ds, table, cut(getattr(ds, table)))
    with pytest.raises(ShapeMismatchError, match=table):
        train(model, ds, TrainConfig(stage=stage, epochs=1, batch_size=3, lr=1e-2))
    assert all(np.array_equal(before[k], model.params[k]) for k in before)
    assert model.epochs_trained == 0


def test_training_bits_pinned():
    # every stage in turn on a small front-end table: each stage's final
    # loss and the trained parameters must not move by a single bit
    ds = generate_dataset(BASE_CFG, thetas_deg=np.arange(-60.0, 61.0, 15.0),
                          snrs_db=[0.0, 10.0], trials_per_cell=3, master_seed=5)
    assert (len(ds), ds.skipped) == (54, 0)
    model = init_model(SPEC, seed=3)
    for stage in mbdnn.STAGES:
        train(model, ds, TrainConfig(stage=stage, epochs=4, batch_size=7, lr=1e-3,
                                     seed=11))
    assert {s: v.hex() for s, v in model.stage_losses.items()} == {
        "mb_fcnn": "0x1.5b0ab96cebd6ep+10",
        "fusion_net": "0x1.2d330e3cc5179p+10",
        "joint": "0x1.da8ca5653a391p-2",
    }
    digest = hashlib.sha256()
    for name, _ in SPEC.parameter_shapes():
        digest.update(model.params[name].tobytes())
    assert digest.hexdigest() == (
        "e4cd572acf21b21dd294758caea1dbb3d24aec619114ff7f1a607aa58e9bf36c"
    )


@pytest.mark.parametrize("field, value", [
    ("stage", "warmup"), ("epochs", 0), ("epochs", -1), ("batch_size", 0),
    ("batch_size", -1), ("lr", -1e-4), ("lr", math.nan), ("lr", math.inf),
    ("seed", -1), ("lr", True), ("lr", "0.1"), ("lr", None), ("lr", 1j),
])
def test_train_config_rejects_bad_values(field, value):
    # refused at construction, before a dataset or model is touched
    kw = {"stage": "mb_fcnn", field: value}
    with pytest.raises(ConfigError, match=field if field != "stage" else "warmup"):
        TrainConfig(**kw)


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
    with pytest.raises(ShapeMismatchError, match="2 candidate sets for 3 groups"):
        features_from_candidates(SPEC, sets[:2])
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


@pytest.mark.parametrize("kw, match", [
    ({"thetas_deg": []}, "empty"),
    ({"snrs_db": np.arange(10.0, 0.0, 5.0)}, "empty"),
    ({"trials_per_cell": 0}, "trials_per_cell"),
    ({"master_seed": -1}, "master_seed"),
])
def test_generate_dataset_rejects_empty_request(monkeypatch, kw, match):
    calls = []
    monkeypatch.setattr(mbdnn, "group_candidates", lambda sc: calls.append(sc))
    args = dict(thetas_deg=[10.0], snrs_db=[10.0], trials_per_cell=1, snapshots=32)
    with pytest.raises(ConfigError, match=match):
        generate_dataset(BASE_CFG, **{**args, **kw})
    assert calls == []


def test_dataset_round_trip(tmp_path):
    ds = random_dataset(10, seed=5)
    path = tmp_path / "ds.npz"
    ds.save(path)
    back = Dataset.load(path)
    for name in ("features", "label_tuple", "label_theta", "snr_db"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_FOREIGN_DATASETS = foreign_dataset_files(random_dataset(3))


@pytest.mark.parametrize("name", sorted(_FOREIGN_DATASETS))
def test_dataset_rejects_foreign_file(tmp_path, name):
    path = tmp_path / "ds.npz"
    path.write_bytes(_FOREIGN_DATASETS[name])
    with pytest.raises(ValueError):
        Dataset.load(path)


def test_dataset_every_cut_is_refused(tmp_path):
    # a cut at any length, a table boundary included, must not load as a
    # smaller dataset
    path = tmp_path / "ds.npz"
    random_dataset(3, seed=7).save(path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError):
            Dataset.load(path)


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


#: the three messages a file cut at any length can get
_CUT = r"shorter than the fixed header|header cut short|payload \d+ bytes, need \d+"
_LOSSES = st.floats(allow_nan=False) | st.sampled_from([math.nan, -0.0, math.inf])


@settings(max_examples=12, deadline=None)
@given(m=st.sampled_from([(2, 3), (3, 5), (2, 3, 5), (5, 7)]),
       seed=st.integers(-(2**63), 2**63 - 1), epochs=st.integers(0, 2**32 - 1),
       losses=st.lists(_LOSSES, min_size=3, max_size=3), data=st.data())
def test_model_file_round_trip_and_every_cut(tmp_path_factory, m, seed, epochs,
                                             losses, data):
    # any parameter bits come back bit for bit, and the saved file is
    # reproduced byte for byte; a file cut at any length is refused: every
    # length through the header, and a sample of the payload's
    spec = MlpSpec(M=m)
    raw = data.draw(st.binary(min_size=8 * spec.parameter_count,
                              max_size=8 * spec.parameter_count))
    flat = np.frombuffer(raw, "<f8")
    params, at = {}, 0
    for name, shape in spec.parameter_shapes():
        count = int(np.prod(shape))
        params[name] = flat[at:at + count].reshape(shape)
        at += count
    model = MlpModel(spec=spec, params=params, seed=seed, epochs_trained=epochs,
                     stage_losses=dict(zip(mbdnn.STAGES, losses)))
    path = tmp_path_factory.mktemp("model") / "m.mbdnn"
    save_model(model, path)
    blob = path.read_bytes()
    back = load_model(path)
    assert (back.spec, back.seed, back.epochs_trained) == (spec, seed, epochs)
    assert all(back.params[k].tobytes() == params[k].tobytes() for k in params)
    save_model(back, path)
    assert path.read_bytes() == blob
    payload_cuts = data.draw(st.lists(st.integers(100, len(blob) - 1), max_size=40))
    for n in [*range(100), *payload_cuts]:
        path.write_bytes(blob[:n])
        with pytest.raises(ModelFormatError, match=_CUT):
            load_model(path)


def _flip_first_byte(raw):
    raw[0] ^= 0xFF


def _cut_in_half(raw):
    del raw[len(raw) // 2:]


@pytest.mark.parametrize("edit, match", [
    (_flip_first_byte, r"bad magic b'\\xb2BDNN1'"),
    (lambda raw: struct.pack_into("<I", raw, 6, 0), "implausible group count 0"),
    (lambda raw: struct.pack_into("<I", raw, 6, 1025), "implausible group count 1025"),
    (lambda raw: struct.pack_into("<I", raw, 10, 1), r"subarray sizes \(1, 11, 13\) out of range"),
    # first group size lives right after magic and group count
    (lambda raw: struct.pack_into("<I", raw, 10, 6),
     r"header dims disagree with layout derived from M=\(6, 11, 13\)"),
    (_cut_in_half, r"payload \d+ bytes, need \d+"),
    (lambda raw: raw.append(0), "1 trailing bytes"),
], ids=["bad-magic", "groups-0", "groups-1025", "M-1", "dim-mismatch", "truncated",
        "trailing-byte"])
def test_model_header_refusals(tmp_path, edit, match):
    # every refusal is one ModelFormatError, told apart by its message
    path = tmp_path / "m.mbdnn"
    save_model(init_model(SPEC, seed=1), path)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


def test_golden_model_file_resaves_byte_for_byte(tmp_path):
    # pins the format against a file the original writer made, not only
    # against a round trip through the current one
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden_model.bin"
    path = tmp_path / "m.mbdnn"
    save_model(load_model(golden), path)
    assert path.read_bytes() == golden.read_bytes()


def test_predict_doa_returns_float():
    model = init_model(SPEC, seed=1)
    sc = SimScenario(cfg=BASE_CFG, theta0=0.2, snr_db=15.0, snapshots=100, seed=2)
    out = predict_doa(model, group_candidates(sc))
    assert isinstance(out, float)
    assert math.isfinite(out)
