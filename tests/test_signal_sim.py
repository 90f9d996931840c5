import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa.array_model import ArrayConfig, gain_coefficient, virtual_steering
from h2ad_doa.signal_sim import (
    _EMITTER_STREAM,
    GroupSnapshots,
    SimScenario,
    SnapshotFormatError,
    derive_seed,
    emitter_waveform,
    read_snapshots,
    sample_covariance,
    simulate_group,
    write_snapshots,
    _stream,
)

from sim_oracles import exact_covariance, noise_only_snapshots

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))


def scenario(**kw):
    base = dict(cfg=BASE_CFG, theta0=math.radians(41.0), snr_db=0.0, snapshots=200, seed=0)
    base.update(kw)
    return SimScenario(**base)


def test_noise_variance_from_snr():
    assert scenario(snr_db=0.0).noise_variance == pytest.approx(1.0)
    assert scenario(snr_db=10.0).noise_variance == pytest.approx(0.1)
    assert scenario(snr_db=-15.0).noise_variance == pytest.approx(10 ** 1.5)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(theta0=math.pi / 2).validate()
    with pytest.raises(ValueError):
        scenario(snapshots=0).validate()
    scenario(theta0=math.radians(89.9)).validate()


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 1001.0, -1001.0])
def test_scenario_rejects_undefined_snr(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        scenario(snr_db=snr_db).validate()


def test_scenario_accepts_noiseless_snr():
    assert scenario(snr_db=math.inf).validate().noise_variance == 0.0


def test_derive_seed_deterministic_and_distinct():
    s = derive_seed(123, 4, 5)
    assert s == derive_seed(123, 4, 5)
    assert s != derive_seed(123, 4, 6)
    assert s != derive_seed(124, 4, 5)
    assert 0 <= s < 2 ** 64


def test_simulation_reproducible_bitwise():
    a = simulate_group(scenario(), 1).data
    b = simulate_group(scenario(), 1).data
    c = simulate_group(scenario(seed=1), 1).data
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
    x = complex_normal(_stream(sc.seed, _EMITTER_STREAM), sc.snapshots)
    noise = complex_normal(_stream(sc.seed, q), (geom.num_subarrays, sc.snapshots))
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
            snap = simulate_group(sc, q)
            assert emitter_waveform(sc).tobytes() == x.tobytes()
            assert snap.data.tobytes() == data.tobytes()
            assert sample_covariance(snap).tobytes() == cov.tobytes()


def test_group_shapes():
    for q, k in enumerate(BASE_CFG.K):
        snap = simulate_group(scenario(), q)
        assert snap.data.shape == (k, 200)
        assert snap.group_index == q


def test_emitter_waveform_shared_across_groups():
    # project each group's near-noiseless block onto its steering vector;
    # the recovered waveform must agree across groups sample by sample.
    sc = scenario(snr_db=200.0)
    x = emitter_waveform(sc)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.2)
    recovered = []
    for q in range(3):
        geom = BASE_CFG.group(q)
        snap = simulate_group(sc, q)
        amp = gain_coefficient(geom, sc.theta0) / math.sqrt(geom.subarray_size)
        steer = virtual_steering(geom, sc.theta0)
        est = steer.conj() @ snap.data / (np.linalg.norm(steer) ** 2 * amp)
        recovered.append(est)
    assert np.allclose(recovered[0], x, atol=1e-8)
    assert np.allclose(recovered[1], recovered[2], atol=1e-8)


def test_noise_only_variance():
    sc = scenario(snr_db=3.0, snapshots=4000)
    snap = noise_only_snapshots(sc, 0)
    var = np.mean(np.abs(snap.data) ** 2)
    assert var == pytest.approx(sc.noise_variance, rel=0.05)


def test_noise_independent_across_groups():
    sc = scenario(snapshots=2000)
    a = noise_only_snapshots(sc, 0).data
    b = noise_only_snapshots(sc, 1).data
    corr = np.vdot(a[:11].ravel(), b[:11, : a.shape[1]].ravel()) / a[:11].size
    assert abs(corr) < 0.05


def test_sample_covariance_hermitian():
    r = sample_covariance(simulate_group(scenario(), 2))
    assert np.array_equal(r, r.conj().T)


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


def test_snapshot_file_round_trip(tmp_path):
    snap = simulate_group(scenario(), 1)
    path = tmp_path / "g1.snap"
    write_snapshots(snap, path)
    back = read_snapshots(path)
    assert back.group_index == 1
    assert np.array_equal(back.data, snap.data)
    assert back.data.dtype == np.complex128


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "g.snap"
    write_snapshots(simulate_group(scenario(), 0), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        read_snapshots(path)


def test_snapshot_unsupported_version(tmp_path):
    path = tmp_path / "g.snap"
    write_snapshots(simulate_group(scenario(), 0), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 9, 2)  # the version follows the 9-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="unsupported version 2"):
        read_snapshots(path)


def test_snapshot_truncated(tmp_path):
    path = tmp_path / "g.snap"
    write_snapshots(simulate_group(scenario(), 0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 13])
    with pytest.raises(SnapshotFormatError):
        read_snapshots(path)


@settings(max_examples=40, deadline=None)
@given(group=st.integers(0, 2**32 - 1), k=st.integers(1, 4), t=st.integers(1, 6),
       data=st.data())
def test_snapshot_file_round_trip_and_every_cut(tmp_path_factory, group, k, t, data):
    # any bit pattern, NaN payloads included, comes back bit for bit; a
    # file cut at any length is refused
    raw = data.draw(st.binary(min_size=16 * k * t, max_size=16 * k * t))
    snap = GroupSnapshots(group, np.frombuffer(raw, np.complex128).reshape(k, t))
    path = tmp_path_factory.mktemp("snap") / "g.snap"
    write_snapshots(snap, path)
    blob = path.read_bytes()
    back = read_snapshots(path)
    assert back.group_index == group and back.data.tobytes() == raw
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(SnapshotFormatError):
            read_snapshots(path)


def test_snapshot_trailing_garbage(tmp_path):
    path = tmp_path / "g.snap"
    write_snapshots(simulate_group(scenario(), 0), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(SnapshotFormatError):
        read_snapshots(path)
