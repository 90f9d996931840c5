import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa import subspace
from h2ad_doa.array_model import ArrayConfig, virtual_steering
from h2ad_doa.signal_sim import SimScenario, exact_covariance, sample_covariance, simulate_group
from h2ad_doa.subspace import (
    _CERTIFIED_MIN_DEGREE,
    CandidateSet,
    DegenerateSpectrumError,
    NoiseSubspace,
    NoRootFoundError,
    _certificate_points,
    _certified_signal_phase,
    _newton_root,
    _np_roots_phase,
    _root_polynomial,
    _spectrum_minimum,
    _winding_number,
    enumerate_candidates,
    music_pseudospectrum,
    noise_subspace,
    root_music_phase,
)

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
THETA41 = math.radians(41.0)


def scenario(**kw):
    base = dict(cfg=BASE_CFG, theta0=THETA41, snr_db=0.0, snapshots=200, seed=0)
    base.update(kw)
    return SimScenario(**base)


def exact_ns(q, sc=None):
    return noise_subspace(exact_covariance(sc or scenario(), q))


def test_noise_subspace_shape_and_orthogonality():
    ns = exact_ns(0)
    assert ns.basis.shape == (16, 15)
    gram = ns.basis.conj().T @ ns.basis
    assert np.allclose(gram, np.eye(15), atol=1e-12)
    steer = virtual_steering(BASE_CFG.group(0), THETA41)
    assert np.linalg.norm(ns.basis.conj().T @ steer) < 1e-10


def test_noise_subspace_eigenvalues():
    ns = exact_ns(0)
    assert ns.leading_eigenvalue == pytest.approx(2.99884102722619, abs=1e-12)
    assert ns.noise_floor == pytest.approx(1.0, abs=1e-12)


def test_noise_subspace_rejects_nonsquare_and_tiny():
    with pytest.raises(ValueError):
        noise_subspace(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        noise_subspace(np.eye(1))


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrumError):
        noise_subspace(np.eye(5))


def test_root_polynomial_conjugate_reciprocal_roots():
    # coefficients c_l = tr(F, l) of a Hermitian F give roots in
    # (z, 1/conj(z)) pairs, the basis for picking the inside-circle root
    ns = noise_subspace(sample_covariance(simulate_group(scenario(seed=9), 0)))
    coeffs = _root_polynomial(ns)
    assert np.allclose(coeffs, coeffs[::-1].conj(), atol=1e-12)
    roots = np.roots(coeffs)
    mirrored = 1.0 / roots.conj()
    for r in roots:
        assert np.min(np.abs(mirrored - r)) < 1e-6


def trace_polynomial(ns):
    """The ``U U^H`` diagonal-sum build, highest degree first."""
    f = ns.basis @ ns.basis.conj().T
    k = f.shape[0]
    return np.array([np.trace(f, offset=off) for off in range(k - 1, -k, -1)])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(18, 64), spike=st.floats(0.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_signal_eigenvector_build_matches_trace_build(k, spike, seed):
    # any Hermitian covariance, with or without a dominant direction
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    cov = a @ a.conj().T / k + spike * np.outer(v, v.conj()) / k
    ns = noise_subspace(cov)
    coeffs = _root_polynomial(ns)
    assert coeffs.shape == (2 * k - 1,)
    assert np.max(np.abs(coeffs - trace_polynomial(ns))) <= 1e-12 * k


@pytest.mark.parametrize("q,m", [(0, 7), (1, 11), (2, 13)])
def test_root_phase_on_exact_covariance(q, m):
    phase = root_music_phase(exact_ns(q), BASE_CFG.group(q))
    oracle = math.remainder(math.pi * m * math.sin(THETA41), 2 * math.pi)
    assert phase == pytest.approx(oracle, abs=1e-7)
    assert -math.pi < phase <= math.pi


def test_root_phase_frozen_value_group0():
    phase = root_music_phase(exact_ns(0), BASE_CFG.group(0))
    assert phase == pytest.approx(1.8611209662256432, abs=1e-7)


def test_root_phase_scale_invariant():
    cov = exact_covariance(scenario(), 1)
    a = root_music_phase(noise_subspace(cov), BASE_CFG.group(1))
    b = root_music_phase(noise_subspace(5.0 * cov), BASE_CFG.group(1))
    assert a == pytest.approx(b, abs=1e-7)


def test_no_root_on_zero_basis():
    ns = NoiseSubspace(basis=np.zeros((4, 3), dtype=complex),
                       signal=np.zeros(4, dtype=complex),
                       leading_eigenvalue=1.0, noise_floor=0.1)
    with pytest.raises(NoRootFoundError):
        root_music_phase(ns, BASE_CFG.group(0))


def test_no_root_when_only_origin():
    ns = NoiseSubspace(basis=np.array([[1.0], [0.0]], dtype=complex),
                       signal=np.array([0.0, 1.0], dtype=complex),
                       leading_eigenvalue=1.0, noise_floor=0.1)
    with pytest.raises(NoRootFoundError):
        root_music_phase(ns, BASE_CFG.group(0))


@pytest.mark.parametrize("q,m", [(0, 7), (1, 11), (2, 13)])
def test_candidate_count_and_order(q, m):
    phase = root_music_phase(exact_ns(q), BASE_CFG.group(q))
    cs = enumerate_candidates(phase, BASE_CFG.group(q))
    assert isinstance(cs, CandidateSet)
    assert cs.group_index == q
    assert len(cs.angles) == m
    assert np.all(np.diff(cs.angles) > 0)
    assert np.max(np.abs(np.sin(cs.angles))) <= 1.0
    assert np.min(np.abs(cs.angles - THETA41)) < 1e-8


def test_candidate_grid_uniform_in_sine():
    phase = root_music_phase(exact_ns(1), BASE_CFG.group(1))
    cs = enumerate_candidates(phase, BASE_CFG.group(1))
    gaps = np.diff(np.sin(cs.angles))
    assert np.allclose(gaps, 2.0 / 11.0, atol=1e-12)


def test_candidate_exact_recovery_fuzz():
    # exact covariance, random angle: some candidate must hit it exactly
    rng = np.random.default_rng(21)
    for _ in range(100):
        theta = float(rng.uniform(-1.2, 1.2))
        q = int(rng.integers(0, 3))
        sc = scenario(theta0=theta, snapshots=1)
        phase = root_music_phase(exact_ns(q, sc), BASE_CFG.group(q))
        cs = enumerate_candidates(phase, BASE_CFG.group(q))
        assert len(cs.angles) == BASE_CFG.M[q]
        assert np.min(np.abs(cs.angles - theta)) < 1e-7


@pytest.mark.parametrize("q", [0, 1, 2])
def test_noiseless_k64_falls_back_and_recovers_angle(q):
    # noiseless roots are double roots on the unit circle: the certified
    # path must decline them and np.roots must still recover the angle
    cfg = ArrayConfig(M=(7, 11, 13), K=(64, 64, 64))
    sc = scenario(cfg=cfg, snr_db=math.inf)
    ns = noise_subspace(sample_covariance(simulate_group(sc, q)))
    assert _certified_signal_phase(_root_polynomial(ns)) is None
    cs = enumerate_candidates(root_music_phase(ns, cfg.group(q)), cfg.group(q))
    assert np.min(np.abs(cs.angles - THETA41)) < 1e-9


def wrapped(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


def test_certified_phase_agrees_with_np_roots_fuzz():
    rng = np.random.default_rng(2024)
    certified = fallback = 0
    for _ in range(120):
        k = int(rng.integers(_CERTIFIED_MIN_DEGREE // 2 + 1, 65))
        cfg = ArrayConfig(M=(11, 13, 17), K=(k, k, k))
        q = int(rng.integers(0, 3))
        sc = SimScenario(cfg=cfg, theta0=float(rng.uniform(-1.3, 1.3)),
                         snr_db=float(rng.uniform(-15.0, 30.0)), snapshots=200,
                         seed=int(rng.integers(1 << 30)))
        ns = noise_subspace(sample_covariance(simulate_group(sc, q)))
        coeffs = _root_polynomial(ns)
        reference = _np_roots_phase(coeffs)
        fast = _certified_signal_phase(coeffs)
        phase = root_music_phase(ns, cfg.group(q))
        if fast is None:
            fallback += 1
            assert phase == reference
        else:
            certified += 1
            assert phase == fast
            assert wrapped(fast, reference) < 1e-9
    assert certified >= 60 and fallback >= 10


def sampled_sizes(monkeypatch):
    sizes = []
    winding = subspace._winding_number

    def counting(asc, radius, size):
        sizes.append(size)
        return winding(asc, radius, size)

    monkeypatch.setattr(subspace, "_winding_number", counting)
    return sizes


def test_failed_certificate_stays_within_point_budget(monkeypatch):
    # at -15 dB most K=18 fits fall back; the counts of each failed
    # certificate together sample at most _certificate_points(34)
    sizes = sampled_sizes(monkeypatch)
    cfg = ArrayConfig(M=(11, 13, 17), K=(18, 18, 18))
    limit = _certificate_points(_CERTIFIED_MIN_DEGREE)
    spent = []
    for seed in range(40):
        sc = scenario(cfg=cfg, snr_db=-15.0, seed=seed)
        coeffs = _root_polynomial(noise_subspace(sample_covariance(simulate_group(sc, seed % 3))))
        assert coeffs.size - 1 == _CERTIFIED_MIN_DEGREE
        sizes.clear()
        if _certified_signal_phase(coeffs) is None:
            spent.append(sum(sizes))
    assert len(spent) >= 30 and max(spent) > 0
    assert max(spent) <= limit


def test_certificate_declines_grid_beyond_budget(monkeypatch):
    # Newton finds a signal root 1e-3 inside the circle, whose first count
    # needs 8192 samples, more than degree 34 allows: nothing is sampled
    # and np.roots decides
    roots = [0.999 * np.exp(0.7j)] + [0.3 * np.exp(2j * np.pi * i / 16) for i in range(16)]
    coeffs = reciprocal_polynomial(roots)
    asc = coeffs[::-1]
    assert abs(_newton_root(asc, _spectrum_minimum(asc)) - roots[0]) < 1e-9
    assert coeffs.size - 1 == _CERTIFIED_MIN_DEGREE
    assert _certificate_points(_CERTIFIED_MIN_DEGREE) < 8192
    sizes = sampled_sizes(monkeypatch)
    assert _certified_signal_phase(coeffs) is None
    assert sizes == []
    assert wrapped(_np_roots_phase(coeffs), 0.7) < 1e-9


def reciprocal_polynomial(roots):
    """Coefficients (highest first) with a root pair z, 1/conj(z) per entry."""
    coeffs = np.array([1.0 + 0j])
    for z in roots:
        coeffs = np.polymul(coeffs, [-np.conj(z), 1.0 + abs(z) ** 2, -z])
    return coeffs


def decoy_polynomial(decoy_modulus, target_modulus, target_paired):
    # the target root (angle 2.0) has the larger modulus, but two roots at
    # modulus 0.6 beside the decoy (angle -1.0) deepen the decoy's dip
    roots = [decoy_modulus * np.exp(-1.0j), 0.6 * np.exp(-1.05j), 0.6 * np.exp(-0.95j)]
    roots += [0.3 * np.exp(2j * np.pi * i / 14 + 0.1j) for i in range(14)]
    coeffs = reciprocal_polynomial(roots)
    target = target_modulus * np.exp(2.0j)
    if target_paired:
        return np.polymul(coeffs, reciprocal_polynomial([target]))
    # without its mirror, and with a root near the origin to keep the
    # count inside the inner circle, only the outer circle sees the target
    return np.polymul(coeffs, np.poly([target, 0.1]))


@pytest.mark.parametrize("decoy_modulus, target_modulus, target_paired", [
    (0.95, 0.95 + 1e-6, True),   # second root pair of almost equal modulus
    (0.90, 0.97, True),          # larger modulus under a shallower dip
    (0.90, 0.999, False),        # unpaired root near the circle
])
def test_certificate_rejects_newton_decoy(monkeypatch, decoy_modulus, target_modulus,
                                          target_paired):
    coeffs = decoy_polynomial(decoy_modulus, target_modulus, target_paired)
    assert coeffs.size - 1 >= _CERTIFIED_MIN_DEGREE
    asc = coeffs[::-1]
    naive = np.angle(_newton_root(asc, _spectrum_minimum(asc)))
    reference = _np_roots_phase(coeffs)
    assert wrapped(naive, -1.0) < 1e-9
    assert wrapped(reference, 2.0) < 1e-9
    monkeypatch.setattr(subspace, "_root_polynomial", lambda ns: coeffs)
    ns = NoiseSubspace(basis=np.zeros((18, 17), dtype=complex),
                       signal=np.zeros(18, dtype=complex),
                       leading_eigenvalue=1.0, noise_floor=0.1)
    assert root_music_phase(ns, BASE_CFG.group(0)) == reference


def test_winding_count_is_never_wrong():
    # every count the sampling bound accepts equals the true root count,
    # also on circles that pass 0.01 from a root
    rng = np.random.default_rng(7)
    resolved = 0
    for _ in range(30):
        moduli = np.concatenate([rng.uniform(0.9, 0.98, size=1), rng.uniform(0.2, 0.7, size=16)])
        roots = moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, size=17))
        asc = reciprocal_polynomial(roots)[::-1]
        all_moduli = np.concatenate([moduli, 1.0 / moduli])
        for radius in (rng.uniform(0.2, 1.5), moduli[0] - 1e-2, moduli[0] + 1e-2,
                       1.0 / moduli[0] - 1e-2, moduli[1] + 2e-2):
            truth = int(np.sum(all_moduli < radius))
            for size in (64, 256, 1024, 4096):
                count = _winding_number(asc, radius, size)
                if count is not None:
                    resolved += 1
                    assert count == truth
    assert resolved >= 80


def test_boundary_tie_drops_positive_end():
    # phase exactly pi puts candidates at sin = (1+2j)/7 including both
    # endpoints -1 and +1; the tie is resolved by dropping +1
    cs = enumerate_candidates(math.pi, BASE_CFG.group(0))
    sines = np.sin(cs.angles)
    assert len(cs.angles) == 7
    assert sines[0] == pytest.approx(-1.0, abs=1e-12)
    assert sines[-1] == pytest.approx((1 + 2 * 2) / 7, abs=1e-12)


def test_pseudospectrum_peaks_at_candidates():
    ns = exact_ns(2)
    geom = BASE_CFG.group(2)
    phase = root_music_phase(ns, geom)
    cs = enumerate_candidates(phase, geom)
    on = music_pseudospectrum(ns, geom, cs.angles)
    off = music_pseudospectrum(ns, geom, cs.angles + math.radians(0.3))
    assert np.min(on) > 1e4 * np.max(off)
