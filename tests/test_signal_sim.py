import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa import signal_sim
from h2ad_doa.array_model import ArrayConfig, ConfigError, gain_coefficient, virtual_steering
from h2ad_doa.fusion import estimate_doa
from h2ad_doa.signal_sim import (
    _EMITTER_STREAM,
    GROUP_CONSTANTS_CACHE_SIZE,
    SimScenario,
    derive_seed,
    emitter_waveform,
    sample_covariance,
    simulate_group,
    simulate_groups,
    _rekeyed,
)

from sim_oracles import exact_covariance, noise_only_snapshots, philox_stream

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))


def scenario(**kw):
    base = dict(cfg=BASE_CFG, theta0=math.radians(41.0), snr_db=0.0, snapshots=200, seed=0)
    base.update(kw)
    return SimScenario(**base)


@pytest.mark.parametrize("q", [-1, 3, True, 1.0])
def test_simulate_group_refuses_an_index_outside_the_groups(q):
    # these raised OverflowError, IndexError and TypeError, or read group 1
    with pytest.raises(ConfigError, match="q="):
        simulate_group(scenario(), q)


def test_noise_variance_from_snr():
    assert scenario(snr_db=0.0).noise_variance == pytest.approx(1.0)
    assert scenario(snr_db=10.0).noise_variance == pytest.approx(0.1)
    assert scenario(snr_db=-15.0).noise_variance == pytest.approx(10 ** 1.5)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(theta0=math.pi / 2)
    with pytest.raises(ValueError):
        scenario(snapshots=0)
    # not real numbers: refused by name, not as a TypeError from abs() or
    # float(), and a bool is not taken as 1 rad
    for theta0 in (0.5j, True, None, "0.5", np.array(0.5j)):
        with pytest.raises(ConfigError, match="theta0"):
            scenario(theta0=theta0)
    scenario(theta0=math.radians(89.9))
    scenario(theta0=np.float32(0.7), snr_db=np.float64(3.0))
    # the seed is a whole word of the streams' Philox key: a seed outside
    # it would alias another seed's streams, and a numpy integer seed keys
    # the same streams as the Python integer
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=f"seed={seed} "):
            scenario(seed=seed)
    for seed in (2**64 - 1, np.uint64(2**64 - 1), np.int64(5)):
        blocks = simulate_groups(scenario(seed=seed, snapshots=8))
        same = simulate_groups(scenario(seed=int(seed), snapshots=8))
        assert all(np.array_equal(a, b) for a, b in zip(blocks, same))


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 1001.0, -1001.0, None, "10", 5j, True])
def test_scenario_rejects_undefined_snr(snr_db):
    with pytest.raises(ConfigError, match="snr_db"):
        scenario(snr_db=snr_db)


def test_scenario_accepts_noiseless_snr():
    assert scenario(snr_db=math.inf).noise_variance == 0.0


def test_derive_seed_deterministic_and_distinct():
    s = derive_seed(123, 4, 5)
    assert s == derive_seed(123, 4, 5)
    assert s != derive_seed(123, 4, 6)
    assert s != derive_seed(124, 4, 5)
    assert 0 <= s < 2 ** 64


def test_simulation_reproducible_bitwise():
    a = simulate_group(scenario(), 1)
    b = simulate_group(scenario(), 1)
    c = simulate_group(scenario(seed=1), 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def reference_simulation(sc, q):
    """Snapshots and covariance from the plain expressions, the oracle for
    the in-place forms in signal_sim."""

    def complex_normal(rng, shape):
        g1 = rng.standard_normal(shape)
        g2 = rng.standard_normal(shape)
        return (g1 + 1j * g2) / np.sqrt(2.0)

    geom = sc.cfg.group(q)
    gain = gain_coefficient(geom, sc.theta0)
    steer = virtual_steering(geom, sc.theta0)
    x = complex_normal(philox_stream(sc.seed, _EMITTER_STREAM), sc.snapshots)
    noise = complex_normal(philox_stream(sc.seed, q), (geom.num_subarrays, sc.snapshots))
    sigma_v = np.sqrt(sc.noise_variance)
    amplitude = 1.0 * gain / np.sqrt(geom.subarray_size)
    data = amplitude * np.outer(steer, x) + sigma_v * noise
    r = data @ data.conj().T / sc.snapshots
    return x, data, (r + r.conj().T) / 2.0


@pytest.mark.parametrize("k", [8, 16, 64])
@pytest.mark.parametrize("snr_db", [-15.0, 0.0, 30.0, math.inf])
def test_synthesis_bytes_match_reference_expressions(k, snr_db):
    cfg = ArrayConfig(M=(7, 11, 13), K=(k, k, k))
    for seed, theta in ((0, 0.0), (1, 0.7), (2, -1.2)):
        sc = scenario(cfg=cfg, theta0=theta, snr_db=snr_db, seed=seed)
        for q in range(3):
            x, data, cov = reference_simulation(sc, q)
            block = simulate_group(sc, q)
            assert emitter_waveform(sc).tobytes() == x.tobytes()
            assert block.tobytes() == data.tobytes()
            assert sample_covariance(block).tobytes() == cov.tobytes()


def _draws(rng, shapes):
    """Bytes of a normal, a uint32 and a uint64 draw per shape, in turn."""
    out = []
    for shape in shapes:
        out.append(rng.standard_normal(shape).tobytes())
        out.append(rng.integers(0, 2**32, size=shape, dtype=np.uint32).tobytes())
        out.append(rng.integers(0, 2**64, size=shape, dtype=np.uint64).tobytes())
    return out


_SHAPES = st.lists(
    st.one_of(st.integers(0, 9).map(lambda n: (n,)),
              st.tuples(st.integers(1, 4), st.integers(1, 5))),
    min_size=1, max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       stream_id=st.one_of(st.integers(0, 2**64 - 1), st.just(_EMITTER_STREAM)),
       previous=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       raw_words=st.integers(0, 7), half_words=st.integers(0, 7), shapes=_SHAPES)
def test_rekeyed_bit_generator_equals_fresh_philox(seed, stream_id, previous, raw_words,
                                                   half_words, shapes):
    # leave another stream part-way: random_raw moves buffer_pos, and an odd
    # count of uint32 draws leaves has_uint32 set with a word held back
    bitgen = np.random.Philox(key=np.array(previous, dtype=np.uint64))
    bitgen.random_raw(raw_words)
    np.random.Generator(bitgen).integers(0, 2**32, size=half_words, dtype=np.uint32)
    assert bitgen.state["has_uint32"] == half_words % 2
    rekeyed = _rekeyed(bitgen, seed, stream_id)
    fresh = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    assert _draws(rekeyed, shapes) == _draws(np.random.Generator(fresh), shapes)
    assert (_draws(_rekeyed(bitgen, seed, stream_id), shapes)
            == _draws(philox_stream(seed, stream_id), shapes))


def test_warmed_trial_builds_no_bit_generator(monkeypatch):
    # each thread keeps one Philox for all its streams, the emitter's too:
    # a thread's first trial builds one there, and its next trial none;
    # no thread ever builds a second
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox",
                        lambda *a, **kw: built.append(threading.current_thread()) or philox(*a, **kw))
    sc = scenario(cfg=ArrayConfig(M=(11, 13, 17, 19, 23), K=(8,) * 5), snr_db=10.0, seed=3)
    reference = estimate_doa(sc).theta_hat
    counts = []

    def two_trials():
        for _ in range(2):
            before = len(built)
            assert estimate_doa(sc).theta_hat == reference
            counts.append(built[before:])

    thread = threading.Thread(target=two_trials)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    first, second = counts
    assert first.count(thread) == 1
    assert thread not in second
    before = len(built)
    estimate_doa(sc)
    assert threading.current_thread() not in built[before:]
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("K", [16, 64])
def test_each_block_is_reduced_in_the_calling_thread_before_the_next_draw(K, monkeypatch):
    sc = scenario(cfg=ArrayConfig(M=(11, 13, 17), K=(K,) * 3), snr_db=0.0, seed=1)
    events = []
    generator = signal_sim._generator
    monkeypatch.setattr(signal_sim, "_generator",
                        lambda seed, stream: events.append(("draw", stream)) or generator(seed, stream))
    threads = signal_sim.simulate_groups(
        sc, reduce=lambda block: events.append(("reduce", block.shape[0])) or threading.current_thread())
    assert threads == (threading.current_thread(),) * 3
    assert events == [("draw", _EMITTER_STREAM), ("draw", 0), ("reduce", K),
                      ("draw", 1), ("reduce", K), ("draw", 2), ("reduce", K)]
    before = threading.active_count()
    estimate_doa(sc)
    assert threading.active_count() == before


def test_memoised_group_constants_are_read_only_and_shared():
    sc = scenario(seed=2)
    constants = signal_sim._group_constants(sc.cfg, sc.theta0, 1.0)
    for amplitude, steer in constants:
        assert type(amplitude) is complex
        with pytest.raises(ValueError, match="read-only"):
            steer[0] = 0.0
    assert signal_sim._group_constants(sc.cfg, sc.theta0, 1.0) is constants


@pytest.mark.parametrize("first, theta", [
    (0.0, -0.0), (-0.0, 0.0), (0.0, 0), (0.7, np.float64(0.7)), (-1.2, -1.2),
])
def test_memoised_group_constants_equal_fresh_ones(first, theta):
    # an entry filled by one angle and read for an equal one (an int or
    # np.float64 reads a float's entry; -0.0 and +0.0 get one each) gives
    # the bytes of a fresh computation
    signal_sim._group_constants.cache_clear()
    simulate_groups(scenario(theta0=first, snapshots=1))
    constants = signal_sim._group_constants(BASE_CFG, theta, math.copysign(1.0, theta))
    for q, (amplitude, steer) in enumerate(constants):
        geom = BASE_CFG.group(q)
        fresh = gain_coefficient(geom, theta) / np.sqrt(geom.subarray_size)
        assert np.complex128(amplitude).tobytes() == np.complex128(fresh).tobytes()
        assert steer.tobytes() == virtual_steering(geom, theta).tobytes()


def test_sequence_config_and_array_angle_simulate_like_tuple_and_float():
    # the memo keys need hashable values: a config built from lists stores
    # tuples, and a 0-d array angle is read as its float
    listed = ArrayConfig(M=[7, 11, 13], K=np.array([16, 16, 16]))
    assert (listed.M, listed.K) == (BASE_CFG.M, BASE_CFG.K)
    reference = [b.tobytes() for b in simulate_groups(scenario())]
    for sc in (scenario(cfg=listed), scenario(theta0=np.array(math.radians(41.0)))):
        assert [b.tobytes() for b in simulate_groups(sc)] == reference


def test_group_constants_cache_is_bounded():
    signal_sim._group_constants.cache_clear()
    cfg = ArrayConfig(M=(2, 3), K=(2, 2))
    for i in range(GROUP_CONSTANTS_CACHE_SIZE + 10):
        simulate_groups(scenario(cfg=cfg, theta0=i * 1e-3, snapshots=1))
    info = signal_sim._group_constants.cache_info()
    assert info.maxsize == GROUP_CONSTANTS_CACHE_SIZE
    assert info.currsize == GROUP_CONSTANTS_CACHE_SIZE
    assert info.misses == GROUP_CONSTANTS_CACHE_SIZE + 10


def test_group_shapes():
    for q, k in enumerate(BASE_CFG.K):
        assert simulate_group(scenario(), q).shape == (k, 200)


def test_emitter_waveform_shared_across_groups():
    # project each group's near-noiseless block onto its steering vector;
    # the recovered waveform must agree across groups sample by sample.
    sc = scenario(snr_db=200.0)
    x = emitter_waveform(sc)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.2)
    recovered = []
    for q in range(3):
        geom = BASE_CFG.group(q)
        block = simulate_group(sc, q)
        amp = gain_coefficient(geom, sc.theta0) / math.sqrt(geom.subarray_size)
        steer = virtual_steering(geom, sc.theta0)
        est = steer.conj() @ block / (np.linalg.norm(steer) ** 2 * amp)
        recovered.append(est)
    assert np.allclose(recovered[0], x, atol=1e-8)
    assert np.allclose(recovered[1], recovered[2], atol=1e-8)


def test_noise_only_variance():
    sc = scenario(snr_db=3.0, snapshots=4000)
    var = np.mean(np.abs(noise_only_snapshots(sc, 0)) ** 2)
    assert var == pytest.approx(sc.noise_variance, rel=0.05)


def test_noise_independent_across_groups():
    sc = scenario(snapshots=2000)
    a = noise_only_snapshots(sc, 0)
    b = noise_only_snapshots(sc, 1)
    corr = np.vdot(a[:11].ravel(), b[:11, : a.shape[1]].ravel()) / a[:11].size
    assert abs(corr) < 0.05


def test_sample_covariance_hermitian():
    r = sample_covariance(simulate_group(scenario(), 2))
    assert np.array_equal(r, r.conj().T)


@pytest.mark.parametrize("block, match", [
    (np.ones(5, complex), r"shape \(5,\) dtype complex128"),
    (np.ones((3, 4), np.int64), r"shape \(3, 4\) dtype int64"),
    (np.ones((3, 4), bool), r"shape \(3, 4\) dtype bool"),
    (np.ones((3, 0), complex), r"shape \(3, 0\) dtype complex128"),
    # numpy.linalg could not factor their covariances
    (np.ones((3, 4), np.float16), r"shape \(3, 4\) dtype float16"),
    (np.ones((3, 4), np.longdouble), rf"shape \(3, 4\) dtype {np.dtype(np.longdouble)}"),
    (np.ones((3, 4), np.clongdouble), rf"shape \(3, 4\) dtype {np.dtype(np.clongdouble)}"),
], ids=["1-D", "integer", "bool", "no-snapshots", "float16", "longdouble", "clongdouble"])
def test_sample_covariance_refuses_bad_blocks(block, match):
    with pytest.raises(ValueError, match=match):
        sample_covariance(block)


def test_exact_covariance_eigenstructure():
    # rank-one signal on a noise floor: top eigenvalue K*|e|^2/M + sigma_v^2,
    # the rest exactly sigma_v^2.  Frozen top value for group 0 at 41 deg.
    r = exact_covariance(scenario(), 0)
    ev = np.linalg.eigvalsh(r)
    assert ev[-1] == pytest.approx(2.99884102722619, abs=1e-12)
    assert np.allclose(ev[:-1], 1.0, atol=1e-12)


def test_sample_covariance_converges_to_exact():
    target = exact_covariance(scenario(), 0)
    errs = {}
    for t in (100, 4000):
        sc = scenario(snapshots=t, seed=5)
        errs[t] = np.linalg.norm(sample_covariance(simulate_group(sc, 0)) - target)
    # Frobenius error shrinks like 1/sqrt(T); demand at least half the ideal
    assert errs[100] / errs[4000] > math.sqrt(40) / 2
