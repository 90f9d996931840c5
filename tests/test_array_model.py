import cmath
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa.array_model import (
    ArrayConfig,
    MAX_SUBARRAY_SIZE,
    MAX_SUBARRAYS,
    CONFIG_KEYS,
    ConfigError,
    element_steering,
    gain_coefficient,
    load_config,
    position_weighted_gain,
    save_config,
    validate_config,
    virtual_steering,
)
from h2ad_doa.bench import BenchSpec
from h2ad_doa.mbdnn import MlpSpec, TrainConfig, generate_dataset, init_model
from h2ad_doa.signal_sim import SimScenario

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))


def test_base_config_shape():
    assert BASE_CFG.num_groups == 3
    assert BASE_CFG.total_antennas == 16 * (7 + 11 + 13)
    g = BASE_CFG.group(1)
    assert g.subarray_size == 11
    assert g.num_subarrays == 16
    assert g.virtual_spacing == pytest.approx(11 * 0.5)


def test_validate_accepts_base_config():
    assert validate_config(BASE_CFG) is BASE_CFG


@pytest.mark.parametrize(
    "kwargs, exc",
    [
        (dict(M=(), K=()), ConfigError),
        (dict(M=(7, 11), K=(16,)), ConfigError),
        (dict(M=(7, 11.5), K=(16, 16)), ConfigError),
        (dict(M=(1, 11), K=(16, 16)), ConfigError),
        (dict(M=(7, 11), K=(16, 1)), ConfigError),
        (dict(M=(6, 9), K=(16, 16)), ConfigError),
        # check_integer refuses every non-integer M_q and K_q by type,
        # before any range or size check
        (dict(M=(7, 11.0), K=(16, 16)), ConfigError),
        (dict(M=(7, 11), K=(16, -1.0)), ConfigError),
        (dict(M=(7, np.float64(11.0)), K=(16, 16)), ConfigError),
        (dict(M=(7, math.inf), K=(16, 16)), ConfigError),
        (dict(M=(7, 11), K=(16, math.nan)), ConfigError),
        (dict(M=(7, 11), K=(16, 1e300)), ConfigError),
        (dict(M=(7, True), K=(16, 16)), ConfigError),
        (dict(M=(7, 11j), K=(16, 16)), ConfigError),
        (dict(M=(7, "11"), K=(16, 16)), ConfigError),
        (dict(M=(7, 11), K=(16, None)), ConfigError),
        (dict(M=(10**30 + 1, 11, 13), K=(16, 16, 16)), ConfigError),
        (dict(M=(257, 11), K=(16, 16)), ConfigError),
        (dict(M=(7, 11, 13), K=(10**6, 16, 16)), ConfigError),
        (dict(M=(7, 11), K=(16, 257)), ConfigError),
        # elements sit half a wavelength apart; the spacing is no input
        (dict(M=(7, 11), K=(16, 16), d_over_lambda=0.5), TypeError),
    ],
)
def test_validate_rejects(kwargs, exc):
    with pytest.raises(exc):
        validate_config(ArrayConfig(**kwargs))


@pytest.mark.parametrize("kwargs, message", [
    (dict(M=(1, 11), K=(16, 16)), "group 0: subarray size M=1, need at least 2"),
    (dict(M=(7, 11), K=(16, 1)), "group 1: subarray count K=1, need at least 2"),
], ids=["M-below-2", "K-below-2"])
def test_validate_too_small_group_is_named(kwargs, message):
    with pytest.raises(ConfigError) as info:
        ArrayConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("q", [-1, 3, True, 1.0])
def test_group_refuses_an_index_outside_the_groups(q):
    # -1 read the last group and True group 1, so crlb_group_exact gave
    # their bounds
    with pytest.raises(ConfigError, match="q="):
        BASE_CFG.group(q)


def test_validate_accepts_size_limits():
    cfg = ArrayConfig(M=(MAX_SUBARRAY_SIZE, 11), K=(2, MAX_SUBARRAYS))
    assert validate_config(cfg) is cfg


def test_noncoprime_error_names_the_pair():
    with pytest.raises(ConfigError) as info:
        validate_config(ArrayConfig(M=(4, 7, 10), K=(8, 8, 8)))
    assert str(info.value) == (
        "subarray sizes M[0]=4 and M[2]=10 share a factor 2; group sizes must be pairwise coprime"
    )


def test_coprime_fuzz():
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(300):
        m = tuple(int(v) for v in rng.integers(2, 40, size=3))
        coprime = all(
            math.gcd(m[i], m[j]) == 1 for i in range(3) for j in range(i + 1, 3)
        )
        if coprime:
            validate_config(ArrayConfig(M=m, K=(4, 4, 4)))
            accepted += 1
        else:
            q, k = next((i, j) for i in range(3) for j in range(i + 1, 3)
                        if math.gcd(m[i], m[j]) != 1)
            with pytest.raises(ConfigError) as info:
                validate_config(ArrayConfig(M=m, K=(4, 4, 4)))
            assert str(info.value) == (
                f"subarray sizes M[{q}]={m[q]} and M[{k}]={m[k]} share a factor "
                f"{math.gcd(m[q], m[k])}; group sizes must be pairwise coprime"
            )
    assert accepted > 30  # the draw actually exercises both branches


def test_element_steering_matches_scalar_oracle():
    # exp(j * 2*pi/lambda * m*d * sin(theta)) at m=4, theta=0.3, d=0.5
    oracle = cmath.exp(1j * 2 * math.pi * 4 * 0.5 * math.sin(0.3))
    vec = element_steering(BASE_CFG.group(0), 0.3)
    assert vec.shape == (7,)
    assert vec[0] == 1.0 + 0.0j
    assert vec[4] == pytest.approx(oracle, abs=1e-15)


def test_steering_conjugate_symmetry():
    rng = np.random.default_rng(11)
    g = BASE_CFG.group(2)
    for theta in rng.uniform(-1.5, 1.5, size=50):
        assert np.allclose(
            element_steering(g, -theta), element_steering(g, theta).conj(), atol=1e-14
        )


def test_gain_coefficient_frozen_value():
    # scalar cmath sum for M=7 at 41 deg, frozen
    g = gain_coefficient(BASE_CFG.group(0), math.radians(41.0))
    assert g == pytest.approx(0.930473824448805 - 0.09333494215497623j, abs=1e-14)


def test_gain_matches_dirichlet_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        theta = float(rng.uniform(-1.5, 1.5))
        geom = ArrayConfig(M=(m,), K=(2,)).group(0)
        x = math.pi * math.sin(theta)
        if abs(math.sin(x / 2)) < 1e-6:
            continue
        closed = abs(math.sin(m * x / 2) / math.sin(x / 2))
        assert abs(gain_coefficient(geom, theta)) == pytest.approx(closed, rel=1e-12)


def test_gain_at_broadside_is_subarray_size():
    for q, m in enumerate(BASE_CFG.M):
        assert gain_coefficient(BASE_CFG.group(q), 0.0) == pytest.approx(m)


def test_virtual_steering_unit_modulus_and_spacing():
    g = BASE_CFG.group(1)
    theta = 0.47
    vec = virtual_steering(g, theta)
    assert vec.shape == (16,)
    assert np.allclose(np.abs(vec), 1.0, atol=1e-14)
    # phase progression is 2*pi * M*d * sin(theta) per virtual element
    step = np.angle(vec[1:] / vec[:-1])
    expected = math.remainder(2 * math.pi * 11 * 0.5 * math.sin(theta), 2 * math.pi)
    assert np.allclose(step, expected, atol=1e-12)


def test_position_weighted_gain_scalar_oracle():
    theta = math.radians(41.0)
    oracle = sum(
        (m * 0.5) * cmath.exp(-1j * 2 * math.pi * m * 0.5 * math.sin(theta))
        for m in range(7)
    )
    assert position_weighted_gain(BASE_CFG.group(0), theta) == pytest.approx(
        oracle, abs=1e-12
    )


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = ArrayConfig(M=(11, 13, 17), K=(16, 24, 32))
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 251)


@st.composite
def _configs(draw):
    m = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=4, unique=True))
    k = draw(st.lists(st.integers(2, MAX_SUBARRAYS), min_size=len(m), max_size=len(m)))
    return ArrayConfig(M=tuple(m), K=tuple(k))


@settings(max_examples=30, deadline=None)
@given(cfg=_configs())
def test_config_file_round_trip_and_every_cut(tmp_path_factory, cfg):
    # a saved config loads back equal; cut at any length it is refused,
    # except that losing only the final newline still leaves valid JSON
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    save_config(cfg, path)
    text = path.read_text()
    assert load_config(path) == cfg
    for n in range(len(text) - 1):
        path.write_text(text[:n])
        with pytest.raises(ConfigError):
            load_config(path)
    path.write_text(text[:-1])
    assert load_config(path) == cfg


def test_load_config_accepts_integral_numbers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": [7.0, 11, 13], "K": [16, 16.0, 16]}))
    cfg = load_config(path)
    assert cfg == ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
    assert all(type(v) is int for v in (*cfg.M, *cfg.K))


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"M": [7], "K": [4], "frequency": 3e9})
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_group_count_mismatch(tmp_path):
    # the group count is len(M); a groups key, matching it or not, is refused
    assert CONFIG_KEYS == ("M", "K")
    path = tmp_path / "cfg.json"
    for groups in (2, 3):
        path.write_text(json.dumps({"groups": groups, "M": [7, 11, 13], "K": [4, 4, 4]}))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "unknown config keys ['groups']; allowed: ['M', 'K']"


def test_readme_config_block_loads(tmp_path):
    # the documented config format is the one load_config reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    path = tmp_path / "cfg.json"
    path.write_text(block)
    assert load_config(path) == ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))


def test_load_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


# (owner, field) -> (build with the field set to a value, a valid value,
# the field's range with a None bound open)
_INTEGER_FIELDS = {
    ("ArrayConfig", "M[1]"): (lambda v: ArrayConfig(M=(7, v, 13), K=(16, 16, 16)), 11,
                              (None, MAX_SUBARRAY_SIZE)),  # below 2: validate_config's size check
    ("ArrayConfig", "K[1]"): (lambda v: ArrayConfig(M=(7, 11, 13), K=(16, v, 16)), 16,
                              (None, MAX_SUBARRAYS)),
    ("SimScenario", "snapshots"): (lambda v: SimScenario(BASE_CFG, 0.5, 10.0, v), 32, (1, None)),
    ("SimScenario", "seed"): (lambda v: SimScenario(BASE_CFG, 0.5, 10.0, 32, seed=v), 5,
                              (0, 2**64 - 1)),  # one word of a Philox key
    ("BenchSpec", "trials"): (lambda v: BenchSpec(cfg=BASE_CFG, trials=v), 2, (1, None)),
    ("BenchSpec", "master_seed"): (lambda v: BenchSpec(cfg=BASE_CFG, master_seed=v), 3,
                                   (0, None)),
    ("TrainConfig", "epochs"): (lambda v: TrainConfig("mb_fcnn", epochs=v), 2, (1, None)),
    ("TrainConfig", "batch_size"): (lambda v: TrainConfig("mb_fcnn", batch_size=v), 4,
                                    (1, None)),
    ("TrainConfig", "seed"): (lambda v: TrainConfig("mb_fcnn", seed=v), 5,
                              (0, 2**63 - 1)),  # a saved model's signed 64-bit field
    ("generate_dataset", "trials_per_cell"): (
        lambda v: generate_dataset(BASE_CFG, [40.0], [10.0], v, snapshots=32), 1, (1, None)),
    ("generate_dataset", "master_seed"): (
        lambda v: generate_dataset(BASE_CFG, [40.0], [10.0], 1, snapshots=32,
                                   master_seed=v), 3, (0, None)),
    ("init_model", "seed"): (lambda v: init_model(MlpSpec.from_config(BASE_CFG), v), 7,
                             (0, 2**63 - 1)),
}


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(_INTEGER_FIELDS)),
       value=st.floats() | st.integers(-10**6, 10**6).map(float) | st.booleans())
def test_integer_fields_refuse_floats_and_bools(key, value):
    # refused at construction, naming the field; a float that passed would
    # fail later with a TypeError, which the CLI maps to no exit code
    build, _, _ = _INTEGER_FIELDS[key]
    with pytest.raises(ConfigError, match=re.escape(f"{key[1]}={value!r}")):
        build(value)


@pytest.mark.parametrize("key", sorted(_INTEGER_FIELDS), ids="-".join)
def test_integer_fields_accept_python_and_numpy_integers(key):
    build, valid, _ = _INTEGER_FIELDS[key]
    build(valid)
    build(np.int64(valid))


@pytest.mark.parametrize("key", sorted(_INTEGER_FIELDS), ids="-".join)
def test_integer_fields_take_their_range_edges_only(key):
    # each edge constructs, and one step past it is refused by name
    build, _, bounds = _INTEGER_FIELDS[key]
    for edge, step in zip(bounds, (-1, 1)):
        if edge is not None:
            build(edge)
            with pytest.raises(ConfigError, match=re.escape(f"{key[1]}={edge + step} must be")):
                build(edge + step)
