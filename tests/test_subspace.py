import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2ad_doa import subspace
from h2ad_doa.array_model import ArrayConfig, gain_coefficient, virtual_steering
from h2ad_doa.signal_sim import SimScenario, derive_seed, sample_covariance, simulate_group
from h2ad_doa.subspace import (
    _CERTIFIED_MIN_DEGREE,
    CandidateSet,
    DegenerateSpectrumError,
    NoRootFoundError,
    SubspaceStack,
    _certificate_points,
    _certified_signal_phase,
    _leading_eigenvector,
    _newton_root,
    _np_roots_phase,
    _polynomial_phases,
    _root_polynomials,
    _spectrum_minimum,
    _winding_number,
    enumerate_candidates,
    noise_subspace,
    noise_subspaces,
    root_music_phase,
    root_music_phases,
)
from sim_oracles import exact_covariance, masked_candidates

BASE_CFG = ArrayConfig(M=(7, 11, 13), K=(16, 16, 16))
THETA41 = math.radians(41.0)


def scenario(**kw):
    base = dict(cfg=BASE_CFG, theta0=THETA41, snr_db=0.0, snapshots=200, seed=0)
    base.update(kw)
    return SimScenario(**base)


def exact_ns(q, sc=None):
    return noise_subspace(exact_covariance(sc or scenario(), q))


def test_noise_subspace_shape_and_orthogonality():
    # one group is a stack of one: every field has a leading axis of length 1
    ns = exact_ns(0)
    assert ns.basis.shape == (1, 16, 15)
    assert ns.signal.shape == (1, 16)
    assert ns.leading_eigenvalue.shape == ns.noise_floor.shape == (1,)
    basis = ns.basis[0]
    gram = basis.conj().T @ basis
    assert np.allclose(gram, np.eye(15), atol=1e-12)
    steer = virtual_steering(BASE_CFG.group(0), THETA41)
    assert np.linalg.norm(basis.conj().T @ steer) < 1e-10


def test_noise_subspace_eigenvalues():
    ns = exact_ns(0)
    assert ns.leading_eigenvalue[0] == pytest.approx(2.99884102722619, abs=1e-12)
    assert ns.noise_floor[0] == pytest.approx(1.0, abs=1e-12)


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
    coeffs = _root_polynomials(ns.signal, ns.basis)[0]
    assert np.allclose(coeffs, coeffs[::-1].conj(), atol=1e-12)
    roots = np.roots(coeffs)
    mirrored = 1.0 / roots.conj()
    for r in roots:
        assert np.min(np.abs(mirrored - r)) < 1e-6


def trace_polynomial(basis):
    """The ``U U^H`` diagonal-sum build, highest degree first."""
    f = basis @ basis.conj().T
    k = f.shape[0]
    return np.array([np.trace(f, offset=off) for off in range(k - 1, -k, -1)])


def random_hermitian(k, spike, seed):
    """A Wishart-like covariance plus ``spike`` along a random direction."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return a @ a.conj().T / k + spike * np.outer(v, v.conj()) / k


@settings(max_examples=60, deadline=None)
@given(k=st.integers(18, 64), groups=st.integers(1, 3),
       spikes=st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_signal_eigenvector_build_matches_trace_build(k, groups, spikes, seed):
    # any Hermitian covariances, with or without a dominant direction; the
    # trace build's noise basis comes from eigh, since from K_q = 18 on
    # noise_subspaces keeps none.  Each row is also exactly
    # conjugate-palindromic with a real lag-0 term, bit for bit, as the
    # certificate's root pairing needs.
    covs = [random_hermitian(k, spikes[g], seed + g) for g in range(groups)]
    ns = noise_subspaces(np.stack(covs))
    assert ns.basis is None
    coeffs = _root_polynomials(ns.signal, ns.basis)
    assert coeffs.shape == (groups, 2 * k - 1)
    assert np.array_equal(coeffs, coeffs[:, ::-1].conj())
    assert np.all(coeffs[:, k - 1].imag == 0.0)
    for row, cov in zip(coeffs, covs):
        basis = np.linalg.eigh(cov)[1][:, -2::-1]
        assert np.max(np.abs(row - trace_polynomial(basis))) <= 1e-12 * k


def eigh_subspace(cov):
    """The reference split, a stack of one: every eigenpair from one ``eigh``."""
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    return SubspaceStack(basis=eigenvectors[None, :, -2::-1], signal=eigenvectors[None, :, -1],
                         leading_eigenvalue=eigenvalues[-1:],
                         noise_floor=np.mean(eigenvalues[-2::-1], keepdims=True))


def stack_of_one(basis, signal):
    """A one-group SubspaceStack with the given noise basis and signal vector."""
    return SubspaceStack(basis=basis[None], signal=signal[None],
                         leading_eigenvalue=np.ones(1), noise_floor=np.full(1, 0.1))


def sine_between(u, v):
    """Sine of the angle between unit vectors, each a (1, K_q) stack of one,
    from the orthogonal residual."""
    u, v = u[0], v[0]
    return np.linalg.norm(v - u * np.vdot(u, v))


def certificate_accepts(cov):
    eigenvalues = np.linalg.eigvalsh(cov)
    return _leading_eigenvector(cov, eigenvalues[-1], eigenvalues[-2]) is not None


def test_certified_eigenvector_agrees_with_eigh_fuzz():
    # simulated fits: the certified eigenpair gives the eigh phase to
    # 1e-9 rad and its eigenvalues; both eigenvalue routines are accurate
    # to rounding of the largest eigenvalue, so the noise floor is held
    # to 1e-12 of that scale, not of itself (30 dB: 1e-3 against ~50)
    rng = np.random.default_rng(77)
    accepted = 0
    for _ in range(120):
        k = int(rng.integers(_CERTIFIED_MIN_DEGREE // 2 + 1, 65))
        cfg = ArrayConfig(M=(11, 13, 17), K=(k, k, k))
        q = int(rng.integers(0, 3))
        sc = SimScenario(cfg=cfg, theta0=float(rng.uniform(-1.3, 1.3)),
                         snr_db=float(rng.uniform(-15.0, 30.0)), snapshots=200,
                         seed=int(rng.integers(1 << 30)))
        cov = sample_covariance(simulate_group(sc, q))
        ns, ref = noise_subspace(cov), eigh_subspace(cov)
        accepted += certificate_accepts(cov)
        assert ns.basis is None
        assert sine_between(ref.signal, ns.signal) < 1e-10
        assert wrapped(root_music_phase(ns, cfg.group(q)),
                       root_music_phase(ref, cfg.group(q))) < 1e-9
        lead = ref.leading_eigenvalue[0]
        assert ns.leading_eigenvalue[0] == pytest.approx(lead, rel=1e-12)
        assert ns.noise_floor[0] == pytest.approx(ref.noise_floor[0], abs=1e-12 * lead)
    assert accepted >= 114


def near_tie_covariance(k, rel_gap, seed=3):
    """Hermitian matrix with eigenvalues 1, 1 - rel_gap, then 0.5 down to 0.1."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    values = np.concatenate([[1.0, 1.0 - rel_gap], np.linspace(0.5, 0.1, k - 2)])
    cov = (q * values) @ q.conj().T
    return (cov + cov.conj().T) / 2.0


@settings(max_examples=80, deadline=None)
@given(k=st.integers(18, 64), spike=st.sampled_from([0.0, 1e-6, 0.5, 5.0, 100.0]),
       log_gap=st.one_of(st.none(), st.floats(-8.5, -2.0)), seed=st.integers(0, 2**32 - 1))
def test_rejected_eigenvector_certificate_gives_eigh_bits(k, spike, log_gap, seed):
    # random covariances, and near ties (relative gap 3e-9 to 1e-2), which
    # the certificate refuses below a gap of about 1e-3
    if log_gap is None:
        cov = random_hermitian(k, spike, seed)
    else:
        cov = near_tie_covariance(k, 10.0 ** log_gap, seed)
    ns, ref = noise_subspace(cov), eigh_subspace(cov)
    if certificate_accepts(cov):
        assert sine_between(ref.signal, ns.signal) < 1e-10
        assert ns.leading_eigenvalue[0] == pytest.approx(ref.leading_eigenvalue[0], rel=1e-12)
    else:
        assert ns.signal.tobytes() == ref.signal.tobytes()
        assert ns.leading_eigenvalue.tobytes() == ref.leading_eigenvalue.tobytes()
        assert ns.noise_floor.tobytes() == ref.noise_floor.tobytes()


def test_near_tie_falls_back_to_eigh(monkeypatch):
    # a gap just above DEGENERACY_RTOL is separable but leaves inverse
    # iteration no certifiable direction: the eigh result stands, bit for bit
    cov = near_tie_covariance(24, 3.0 * subspace.DEGENERACY_RTOL)
    assert not certificate_accepts(cov)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    ns = noise_subspace(cov)
    ref = eigh_subspace(cov)
    assert len(calls) == 2
    assert ns.basis is None
    assert ns.signal.tobytes() == ref.signal.tobytes()
    assert ns.leading_eigenvalue.tobytes() == ref.leading_eigenvalue.tobytes()
    assert ns.noise_floor.tobytes() == ref.noise_floor.tobytes()
    with pytest.raises(DegenerateSpectrumError):
        noise_subspace(near_tie_covariance(24, 0.5 * subspace.DEGENERACY_RTOL))


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def padded_polynomial(rng, length, lead, trail, real):
    """Coefficients of length ``length``: ``lead`` zeros, a polynomial with
    random roots (moduli 0.1 to 1.5, some on a common circle), ``trail`` zeros."""
    n = length - lead - trail - 1
    moduli = rng.choice([rng.uniform(0.1, 1.5), 0.8], size=n)
    roots = moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
    poly = np.poly(roots) * (rng.standard_normal() + 1j * rng.standard_normal())
    if real:
        poly = poly.real
    return np.concatenate([np.zeros(lead), poly, np.zeros(trail)])


@settings(max_examples=120, deadline=None)
@given(degree=st.one_of(st.integers(2, _CERTIFIED_MIN_DEGREE - 1),
                        st.sampled_from([_CERTIFIED_MIN_DEGREE, _CERTIFIED_MIN_DEGREE + 4])),
       groups=st.integers(1, 5),
       zeros=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=5, max_size=5),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_rooting_matches_np_roots_phase_bytes(degree, groups, zeros, real, seed):
    # one stacked companion eigensolve below degree 34 (any degree), and
    # certified or np.roots per row from it (even degrees, as root-MUSIC
    # builds); zero end coefficients, which np.roots strips, go to
    # np.roots, and real coefficients give np.roots's bits too
    rng = np.random.default_rng(seed)
    coeffs = np.stack([
        padded_polynomial(rng, degree + 1, min(lead, degree - 1),
                          min(trail, degree - 1 - min(lead, degree - 1)), real)
        for lead, trail in zeros[:groups]
    ])
    singles = [outcome(lambda row: _polynomial_phases(row[None])[0], row) for row in coeffs]
    if degree < _CERTIFIED_MIN_DEGREE:
        assert same_outcomes(singles, [outcome(_np_roots_phase, row) for row in coeffs])
    stacked = outcome(_polynomial_phases, coeffs)
    if all(type(phase) is float for phase in singles):
        assert same_outcomes(stacked, singles)
    else:
        assert stacked[0] in (NoRootFoundError, np.linalg.LinAlgError)


def same_outcomes(a, b):
    """Equal lists of phases, bit for bit, and equal raised classes and messages."""
    return len(a) == len(b) and all(
        np.float64(x).tobytes() == np.float64(y).tobytes()
        if type(x) is float and type(y) is float else x == y
        for x, y in zip(a, b)
    )


@pytest.mark.parametrize("offset, expected", [(0.0, -0.5), (1e-13, -0.5), (1e-6, 0.5)])
def test_signal_root_ties_break_to_smaller_angle(offset, expected):
    # moduli within ROOT_TIE_TOL tie, and the smaller argument wins
    roots = [(0.8 + offset) * np.exp(0.5j), 0.8 * np.exp(-0.5j), 0.3, 0.2j]
    coeffs = reciprocal_polynomial(roots)
    for phase in (_np_roots_phase(coeffs), _polynomial_phases(coeffs[None])[0]):
        assert phase == pytest.approx(expected, abs=1e-9)


def test_stacked_rooting_checks_each_row():
    good = reciprocal_polynomial([0.9 * np.exp(0.4j), 0.5, 0.3j])
    with pytest.raises(NoRootFoundError, match="vanish"):
        _polynomial_phases(np.stack([good, np.zeros_like(good)]))
    # the only root at the origin: z^2 (np.roots strips the zero tail)
    origin = np.zeros_like(good)
    origin[-3] = 1.0
    with pytest.raises(NoRootFoundError, match="at zero"):
        _polynomial_phases(np.stack([good, origin]))
    assert _polynomial_phases(good[None]) == [_np_roots_phase(good)]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 30), groups=st.integers(1, 4),
       spikes=st.lists(st.sampled_from([0.0, 0.5, 5.0, 100.0, "tie"]), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_subspaces_match_per_matrix_bytes(k, groups, spikes, seed):
    # a stack splits and roots each matrix as the one-group functions do,
    # also where the K_q >= 18 certificate fails (near ties) and eigh decides
    covs = np.stack([
        near_tie_covariance(k, 1e-6, seed + g) if spike == "tie"
        else random_hermitian(k, spike, seed + g)
        for g, spike in enumerate(spikes[:groups])
    ])
    singles = [outcome(noise_subspace, cov) for cov in covs]
    stack = outcome(noise_subspaces, covs)
    if not all(isinstance(ns, SubspaceStack) for ns in singles):
        first = next(ns for ns in singles if not isinstance(ns, SubspaceStack))
        assert stack == first
        return
    assert len(stack.signal) == groups
    assert (stack.basis is None) == (k >= 18)
    for g, ns in enumerate(singles):
        assert (ns.basis is None) == (k >= 18)
        assert stack.signal[g].tobytes() == ns.signal[0].tobytes()
        if ns.basis is not None:
            assert stack.basis[g].tobytes() == ns.basis[0].tobytes()
        assert stack.leading_eigenvalue[g].tobytes() == ns.leading_eigenvalue[0].tobytes()
        assert stack.noise_floor[g].tobytes() == ns.noise_floor[0].tobytes()
    if k < 18:
        # the stacked traces sum each diagonal as the one-matrix np.trace does
        reference = np.stack([trace_polynomial(ns.basis[0]) for ns in singles])
        assert _root_polynomials(stack.signal, stack.basis).tobytes() == reference.tobytes()
    singles = [outcome(root_music_phase, ns, BASE_CFG.group(0)) for ns in singles]
    if all(type(phase) is float for phase in singles):
        assert same_outcomes(outcome(root_music_phases, stack), singles)


def test_stacked_subspaces_raise_for_degenerate_member():
    covs = np.stack([random_hermitian(8, 5.0, 1), np.eye(8, dtype=complex)])
    with pytest.raises(DegenerateSpectrumError):
        noise_subspaces(covs)
    with pytest.raises(ValueError):
        noise_subspaces(np.eye(3)[None, :2])


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
    ns = stack_of_one(np.zeros((4, 3), dtype=complex), np.zeros(4, dtype=complex))
    with pytest.raises(NoRootFoundError):
        root_music_phase(ns, BASE_CFG.group(0))


def test_no_root_when_only_origin():
    ns = stack_of_one(np.array([[1.0], [0.0]], dtype=complex),
                      np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(NoRootFoundError):
        root_music_phase(ns, BASE_CFG.group(0))


def test_root_phase_refuses_stack_of_two():
    # the one-group adapter roots a stack of one and nothing else
    stack = noise_subspaces(np.stack([exact_covariance(scenario(), q) for q in (0, 0)]))
    assert len(root_music_phases(stack)) == 2
    with pytest.raises(ValueError, match="stack of one"):
        root_music_phase(stack, BASE_CFG.group(0))


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
    assert _certified_signal_phase(_root_polynomials(ns.signal, ns.basis)[0]) is None
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
        coeffs = _root_polynomials(ns.signal, ns.basis)[0]
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


def sampled_sizes(monkeypatch, radii=None):
    """Grid sizes of every winding count from now on; ``radii``, when
    given, collects each count's radius."""
    sizes = []
    winding = subspace._winding_number

    def counting(asc, radius, size):
        sizes.append(size)
        if radii is not None:
            radii.append(radius)
        return winding(asc, radius, size)

    monkeypatch.setattr(subspace, "_winding_number", counting)
    return sizes


def group_polynomial(k, snr_db, seed, q):
    """Root-MUSIC polynomial of group ``q`` of (11,13,17)xk at 41 degrees."""
    cfg = ArrayConfig(M=(11, 13, 17), K=(k, k, k))
    sc = SimScenario(cfg=cfg, theta0=THETA41, snr_db=snr_db, snapshots=200, seed=seed)
    ns = noise_subspace(sample_covariance(simulate_group(sc, q)))
    return _root_polynomials(ns.signal, ns.basis)[0]


def test_certified_fit_counts_on_one_circle(monkeypatch):
    # one count at radius rho - gap proves the certificate; the root pairing
    # puts the mirror of every counted root beyond 1/(rho - gap)
    radii = []
    sizes = sampled_sizes(monkeypatch, radii)
    coeffs = group_polynomial(64, 0.0, 5, 1)
    phase = _certified_signal_phase(coeffs)
    assert phase is not None and wrapped(phase, _np_roots_phase(coeffs)) < 1e-12
    asc = coeffs[::-1]
    z = _newton_root(asc, _spectrum_minimum(asc))
    rho = min(abs(z), 1.0 / abs(z))
    assert len(set(radii)) == 1 and radii[0] == pytest.approx(2.0 * rho - 1.0, abs=1e-12)
    assert 0 < sum(sizes) <= _certificate_points(coeffs.size - 1)


@pytest.mark.parametrize("damage", ["one ulp", "zero ends"])
def test_certificate_declines_row_without_exact_pairing(monkeypatch, damage):
    # the pairing argument holds only for exactly conjugate-palindromic rows
    # with nonzero ends; any other row is declined before anything is sampled
    coeffs = group_polynomial(64, 0.0, 5, 1)
    assert _certified_signal_phase(coeffs) is not None
    if damage == "one ulp":
        coeffs[3] = complex(np.nextafter(coeffs[3].real, np.inf), coeffs[3].imag)
    else:
        coeffs[0] = coeffs[-1] = 0.0
    sizes = sampled_sizes(monkeypatch)
    assert _certified_signal_phase(coeffs) is None
    assert sizes == []


@pytest.mark.parametrize("k, snr_db", [(24, 20.0), (24, 30.0), (32, 20.0), (32, 30.0),
                                       (64, 20.0), (64, 30.0)])
def test_high_snr_certified_phases_match_np_roots(k, snr_db):
    # the signal root sits a few 1e-3 inside the circle at 20-30 dB; every
    # fit that certifies agrees with np.roots, and at K_q = 64 the single
    # count fits the sample budget
    certified = 0
    for t in range(10):
        for q in range(3):
            coeffs = group_polynomial(k, snr_db, derive_seed(3, 0, t), q)
            phase = _certified_signal_phase(coeffs)
            if phase is not None:
                certified += 1
                assert wrapped(phase, _np_roots_phase(coeffs)) < 1e-12
    if (k, snr_db) == (64, 30.0):
        assert certified >= 25


def test_failed_certificate_stays_within_point_budget(monkeypatch):
    # at -15 dB most K=18 fits fall back; the counts of each failed
    # certificate together sample at most _certificate_points(34)
    sizes = sampled_sizes(monkeypatch)
    cfg = ArrayConfig(M=(11, 13, 17), K=(18, 18, 18))
    limit = _certificate_points(_CERTIFIED_MIN_DEGREE)
    spent = []
    for seed in range(40):
        sc = scenario(cfg=cfg, snr_db=-15.0, seed=seed)
        ns = noise_subspace(sample_covariance(simulate_group(sc, seed % 3)))
        coeffs = _root_polynomials(ns.signal, ns.basis)[0]
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
    monkeypatch.setattr(subspace, "_root_polynomials", lambda signal, basis: coeffs[None])
    ns = stack_of_one(np.zeros((18, 17), dtype=complex), np.zeros(18, dtype=complex))
    assert root_music_phase(ns, BASE_CFG.group(0)) == reference


def test_noise_root_inside_the_gap_fails_the_certificate(monkeypatch):
    # the noise root at 0.95 lies within one gap (0.03) below the signal
    # root, so the inner circle counts one root short; the certificate is
    # refused and the np.roots phase stands, bit for bit
    roots = [0.97 * np.exp(0.7j), 0.95 * np.exp(-1.2j)]
    roots += [0.3 * np.exp(2j * np.pi * i / 15) for i in range(15)]
    coeffs = reciprocal_polynomial(roots)
    assert coeffs.size - 1 == _CERTIFIED_MIN_DEGREE
    assert _certified_signal_phase(coeffs) is None
    reference = _np_roots_phase(coeffs)
    assert wrapped(reference, 0.7) < 1e-9
    monkeypatch.setattr(subspace, "_root_polynomials", lambda signal, basis: coeffs[None])
    ns = stack_of_one(np.zeros((18, 17), dtype=complex), np.zeros(18, dtype=complex))
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


_EDGE_PHASES = [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                math.nextafter(-math.pi, 0.0), 0.0]


@settings(max_examples=400, deadline=None)
@given(m=st.integers(2, 41), wavelength=st.sampled_from([1.0, 1e-3, 0.37, 3.3]),
       phase=st.one_of(st.sampled_from(_EDGE_PHASES),
                       st.floats(-math.pi, math.pi)))
def test_candidate_set_count_order_and_fold(m, wavelength, phase):
    # half-wavelength spacing: exactly M_q angles, whatever the phase and
    # the unit of length, each folding back onto the phase it came from
    geom = ArrayConfig(M=(m,), K=(2,), wavelength=wavelength).group(0)
    angles = enumerate_candidates(phase, geom).angles
    assert len(angles) == m
    assert np.all(np.diff(angles) > 0)
    assert -math.pi / 2 <= angles[0] and angles[-1] <= math.pi / 2
    for theta in angles:
        assert wrapped(math.pi * m * math.sin(theta), phase) < 1e-9


@settings(max_examples=400, deadline=None)
@given(m=st.integers(2, 41), d_over_lambda=st.sampled_from([0.5, 0.37, 0.1]),
       wavelength=st.sampled_from([1.0, 1e-3, 0.37, 3.3]),
       phase=st.one_of(st.sampled_from(_EDGE_PHASES), st.floats(-4.0, 4.0)))
def test_candidate_set_equals_masked_unfold(m, d_over_lambda, wavelength, phase):
    # the unfold's in-place sines and np.maximum/np.minimum clamp give the
    # bits of the out-of-place arithmetic and np.clip
    geom = ArrayConfig(M=(m,), K=(2,), d_over_lambda=d_over_lambda,
                       wavelength=wavelength).group(0)
    cs = enumerate_candidates(phase, geom)
    assert cs.angles.tobytes() == masked_candidates(phase, geom).tobytes()
    assert (cs.group_index, cs.phase_hat) == (0, phase)


def music_pseudospectrum(ns, geom, theta_grid):
    """Diagnostic MUSIC pseudo-spectrum over an angle grid (radians).

    ``P(theta) = 1 / (|e_q(theta)|^2 * ||U^H a(theta)||^2)``, including
    the analog gain term, so it is not the bare noise-subspace spectrum.
    ``||U^H a||^2 = ||a||^2 - |v^H a|^2`` with ``v`` the signal
    eigenvector, so it needs no noise basis.
    """
    power = np.empty(np.shape(theta_grid))
    for i, theta in np.ndenumerate(theta_grid):
        gain = abs(gain_coefficient(geom, theta)) ** 2
        steer = virtual_steering(geom, theta)
        proj = np.vdot(steer, steer).real - abs(np.vdot(ns.signal[0], steer)) ** 2
        power[i] = 1.0 / (gain * proj) if gain * proj > 0 else np.inf
    return power


def test_pseudospectrum_peaks_at_candidates():
    # K_q = 24 has no noise basis; the spectrum comes from the signal vector
    for k in (16, 24):
        cfg = ArrayConfig(M=(7, 11, 13), K=(k, k, k))
        ns = noise_subspace(exact_covariance(scenario(cfg=cfg), 2))
        geom = cfg.group(2)
        phase = root_music_phase(ns, geom)
        cs = enumerate_candidates(phase, geom)
        on = music_pseudospectrum(ns, geom, cs.angles)
        off = music_pseudospectrum(ns, geom, cs.angles + math.radians(0.3))
        assert np.min(on) > 1e4 * np.max(off)
