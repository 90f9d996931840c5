"""Per-group subspace estimation: root-MUSIC on the virtual ULA.

Each group's virtual array undersamples space by its subarray size
``M_q``, so the root-MUSIC phase only pins ``sin(theta)`` modulo
``lambda / (M_q * d)``.  :func:`enumerate_candidates` unfolds that
ambiguity into the group's full candidate set; resolving which candidate
is the true angle is the fusion stage's job.

Root-MUSIC needs one root of a degree ``2(K_q - 1)`` polynomial: the
signal root, the one of largest modulus inside the unit circle.
``np.roots`` computes all of them with an O(K_q^3) companion-matrix
eigensolve, which dominates a trial once ``K_q`` is large.  From degree
``_CERTIFIED_MIN_DEGREE`` on, :func:`root_music_phase` finds the signal
root alone: Newton iteration from the minimum of the FFT-evaluated
spectrum, then an argument-principle root count that certifies no other
root competes with it.  Whenever Newton or the certificate fails, the
``np.roots`` selection runs unchanged.  The constant sits at degree 34
(``K_q = 18``), where the certified path measured faster than
``np.roots`` (0.85 against 1.21 ms per fit at -5/0/10 dB); at degree 30
the two cost the same, so every ``K_q <= 16`` group keeps the
``np.roots`` result bit for bit.

The polynomial has two builds.  Below degree ``_CERTIFIED_MIN_DEGREE``
its coefficients are the diagonal sums of ``U U^H``, ``U`` the noise
basis.  From that degree on they come from the signal eigenvector
``v`` alone: with one emitter ``U U^H = I - v v^H``, so coefficient
``l`` is ``K_q * delta_l`` minus the lag-``l`` autocorrelation of ``v``,
one O(K_q^2) correlation in place of a K_q x K_q product and
``2K_q - 1`` traces.  The two builds agree to rounding (within
``1e-12 * K_q`` in the tests).

A certificate that fails still costs its samples, so the
argument-principle counts of one fit share a budget of
``4 * degree**2`` FFT samples (:func:`_certificate_points`): about half
of what ``np.roots`` costs at that degree.  A count that would exceed
the budget is given up, and ``np.roots`` decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import GroupGeometry, gain_coefficient, virtual_steering

#: Two eigenvalues closer than this (relative) leave no usable signal subspace.
DEGENERACY_RTOL = 1e-9

#: Roots whose moduli differ by less than this tie on the modulus criterion.
ROOT_TIE_TOL = 1e-12

#: Slack on the unit-circle membership test; keeps a root pair that numerics
#: pushed marginally outside from being discarded.
_CIRCLE_SLACK = 1e-9

#: Polynomial degree 2(K_q - 1) from which root_music_phase certifies the
#: signal root alone instead of rooting the whole polynomial (see the
#: module docstring for the measured crossover).
_CERTIFIED_MIN_DEGREE = 34

_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


class DegenerateSpectrumError(RuntimeError):
    """Eigenvalue spectrum with no separable signal eigenvalue."""


class NoRootFoundError(RuntimeError):
    """Root polynomial with no usable root (all at or near zero)."""


@dataclass(frozen=True)
class NoiseSubspace:
    """Signal and noise eigenvectors of one group's covariance.

    Attributes
    ----------
    basis : ndarray, shape (K_q, K_q - 1)
        Orthonormal eigenvectors spanning the noise subspace.  The
        root-MUSIC polynomial is built from it below degree
        ``_CERTIFIED_MIN_DEGREE`` (``K_q < 18``).
    signal : ndarray, shape (K_q,)
        Unit eigenvector of the largest eigenvalue, orthogonal to
        ``basis``.  From ``K_q = 18`` on the polynomial is built from it,
        since ``basis @ basis^H = I - signal signal^H``.
    leading_eigenvalue : float
        Largest eigenvalue (the signal eigenvalue).
    noise_floor : float
        Mean of the trailing ``K_q - 1`` eigenvalues.
    """

    basis: np.ndarray
    signal: np.ndarray
    leading_eigenvalue: float
    noise_floor: float


@dataclass(frozen=True)
class CandidateSet:
    """All angles of one group consistent with its root-MUSIC phase.

    ``angles`` is strictly ascending, in radians, of length ``M_q`` for
    half-wavelength element spacing.  Exactly one entry is the true
    angle; the rest are the group's pseudo-solutions.
    """

    group_index: int
    phase_hat: float
    angles: np.ndarray


def noise_subspace(cov: np.ndarray) -> NoiseSubspace:
    """Split a group covariance into signal and noise subspaces.

    The signal subspace is fixed at dimension one (single emitter), so
    the noise basis is the trailing ``K_q - 1`` eigenvectors in
    descending eigenvalue order.

    Raises
    ------
    DegenerateSpectrumError
        If the two largest eigenvalues agree to within
        ``DEGENERACY_RTOL`` relative, as happens for noise-only input.
    """
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got {cov.shape}")
    if cov.shape[0] < 2:
        raise ValueError("need at least two subarrays for a noise subspace")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    # eigh sorts ascending; flip to descending.
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    lead, second = eigenvalues[0], eigenvalues[1]
    if lead - second <= DEGENERACY_RTOL * max(abs(lead), np.finfo(float).tiny):
        raise DegenerateSpectrumError(
            f"leading eigenvalues {lead:.6e} and {second:.6e} are not separable"
        )
    return NoiseSubspace(
        basis=eigenvectors[:, 1:],
        signal=eigenvectors[:, 0],
        leading_eigenvalue=float(lead),
        noise_floor=float(np.mean(eigenvalues[1:])),
    )


def _root_polynomial(ns: NoiseSubspace) -> np.ndarray:
    """Coefficients of the root-MUSIC polynomial, highest degree first.

    With ``F = U U^H``, the quadratic form ``a(z)^H F a(z)`` collapses to
    ``sum_l c_l z^l`` where ``c_l`` is the sum of the l-th diagonal of
    ``F``; multiplying by ``z^(K-1)`` gives a degree ``2(K-1)``
    polynomial whose unit-circle roots are the MUSIC nulls.  From degree
    ``_CERTIFIED_MIN_DEGREE`` on, ``F = I - v v^H`` with ``v`` the signal
    eigenvector, and ``c`` is ``-correlate(v, v)`` plus ``K`` at lag 0.
    """
    k = ns.basis.shape[0]
    if 2 * (k - 1) >= _CERTIFIED_MIN_DEGREE:
        coeffs = -np.correlate(ns.signal, ns.signal, "full")
        coeffs[k - 1] += k
        return coeffs
    f = ns.basis @ ns.basis.conj().T
    return np.array([np.trace(f, offset=off) for off in range(k - 1, -k, -1)])


def root_music_phase(ns: NoiseSubspace, geom: GroupGeometry) -> float:
    """Electrical phase of the signal root of one group.

    The signal root is, among roots inside the unit circle, the one of
    largest modulus; modulus ties within ``ROOT_TIE_TOL`` break toward
    the smaller principal argument.  The analog gain prefactor is
    angle-dependent but root-free, so it plays no part in rooting.

    Below degree ``_CERTIFIED_MIN_DEGREE`` (``K_q < 18``) the polynomial
    is rooted with ``np.roots``, an O(K_q^3) companion-matrix
    eigensolve.  From that degree on, the polynomial is built from the
    signal eigenvector and the signal root is found alone:
    Newton iteration from the minimum of the FFT-evaluated spectrum,
    then an argument-principle certificate that it is the only root
    with modulus in ``[rho - ROOT_TIE_TOL, 1 + _CIRCLE_SLACK]`` (see
    :func:`_certified_signal_phase`).  When Newton does not converge,
    the root lies too close to the unit circle (noiseless double roots
    lie on it), or the certificate cannot resolve its counts within
    :func:`_certificate_points` samples, ``np.roots`` runs on the same
    coefficients, so its result is the same to the bit.  A certified phase
    agrees with the ``np.roots`` one to rounding (below 1e-13 rad in the
    tests).

    Returns
    -------
    float
        ``phase_hat`` in ``(-pi, pi]``, the argument of the selected
        root; equals ``(2*pi/lambda) * M_q * d * sin(theta0)`` folded to
        the principal branch.
    """
    coeffs = _root_polynomial(ns)
    if not np.any(np.abs(coeffs) > 0):
        raise NoRootFoundError("all polynomial coefficients vanish")
    if coeffs.size - 1 >= _CERTIFIED_MIN_DEGREE:
        phase = _certified_signal_phase(coeffs)
        if phase is not None:
            return phase
    return _np_roots_phase(coeffs)


def _np_roots_phase(coeffs: np.ndarray) -> float:
    """Signal-root phase from all roots of ``coeffs`` (``np.roots``)."""
    roots = np.roots(coeffs)
    if roots.size == 0:
        raise NoRootFoundError("polynomial has no roots")
    moduli = np.abs(roots)
    inside = moduli <= 1.0 + _CIRCLE_SLACK
    if not np.any(inside):
        raise NoRootFoundError("no root on or inside the unit circle")
    roots = roots[inside]
    moduli = moduli[inside]
    best = np.max(moduli)
    if best < 1e-12:
        raise NoRootFoundError("all roots numerically at zero")
    tied = roots[moduli >= best - ROOT_TIE_TOL]
    return float(np.min(np.angle(tied)) if tied.size > 1 else np.angle(tied[0]))


def _certified_signal_phase(coeffs: np.ndarray) -> float | None:
    """Phase of the signal root found alone, or None when not certified.

    Newton iteration from the deepest point of the unit-circle spectrum
    converges to some root ``z``, mirrored inside the circle to modulus
    ``rho = 1 - gap``.  Its last step ``s`` puts a true root within
    ``n*|s|`` of ``z``, ``n`` the degree (``p'/p = sum 1/(z - z_i)``),
    far inside the annuli below.  A root of larger modulus, or one that ties with it,
    may still exist elsewhere, so the result stands only if the argument
    principle counts ``K_q - 1`` roots inside radius
    ``1 + 2*_CIRCLE_SLACK`` and ``K_q - 2`` inside radius
    ``rho - depth``.  Then ``z`` is the only root with modulus in
    ``[rho - depth, 1 + 2*_CIRCLE_SLACK)``, which contains
    ``[rho - ROOT_TIE_TOL, 1 + _CIRCLE_SLACK]``, so ``np.roots`` would
    select it without a tie.  ``depth`` is ``gap`` or, when a noise root
    lies in between, ``gap/4``.  The circles pass ``gap`` and ``depth``
    from ``z``, and a count there needs about ``8/gap`` and ``8/depth``
    samples; the counts share the budget of :func:`_certificate_points`,
    so gaps below about 4e-3 at degree 34 (5e-4 at degree 126) go to
    ``np.roots``.
    """
    asc = coeffs[::-1]
    z = _newton_root(asc, _spectrum_minimum(asc))
    if z is not None and abs(z) > 1.0:
        z = _newton_root(asc, 1.0 / np.conj(z))
    if z is None:
        return None
    rho = abs(z)
    gap = 1.0 - rho
    if not 1e-9 < gap < 0.5:
        return None
    half = (asc.size - 1) // 2
    count, points = _root_count(asc, 1.0 + 2.0 * _CIRCLE_SLACK, gap,
                                _certificate_points(asc.size - 1))
    if count != half:
        return None
    for depth in (gap, 0.25 * gap):
        count, points = _root_count(asc, rho - depth, depth, points)
        if count == half - 1:
            return float(np.angle(z))
    return None


def _certificate_points(degree: int) -> int:
    """FFT samples the root counts of one certificate may spend together.

    ``np.roots`` costs about ``0.5 us * degree**2`` from degree 34
    (0.46 ms) to 126 (10 ms), and a winding count about 60 ns per sample
    on the grids where the budget binds, so ``4 * degree**2`` samples
    cost about half of ``np.roots``.  Every 0 dB fit at ``K_q = 64``
    needed at most 3072 of its 63504.
    """
    return 4 * degree * degree


def _spectrum_minimum(asc: np.ndarray) -> complex:
    """Newton start below the deepest point of the unit-circle spectrum.

    Near a signal root ``z = rho * exp(j*w)`` the spectrum is close to
    ``c * ((t - w)^2 + (1 - rho)^2)``; a parabola through the smallest
    FFT sample and its neighbours estimates ``w`` and ``1 - rho``.
    """
    size = _pow2(4 * asc.size)
    spectrum = np.abs(np.fft.ifft(_centred(asc, 1.0, size), norm="forward"))
    k = int(np.argmin(spectrum))
    lo, mid, hi = spectrum[k - 1], spectrum[k], spectrum[(k + 1) % size]
    bend = lo - 2.0 * mid + hi
    shift, gap = 0.0, 0.01
    if bend > 0:
        shift = 0.5 * (lo - hi) / bend
        floor = mid - 0.125 * (lo - hi) ** 2 / bend
        gap = (2.0 * np.pi / size) * math.sqrt(max(floor, 0.0) * 2.0 / bend)
    gap = min(max(gap, 1e-6), 0.5)
    return (1.0 - gap) * np.exp(2j * np.pi * (k + shift) / size)


def _newton_root(asc: np.ndarray, z: complex) -> complex | None:
    """Newton iteration on ``sum_m asc[m] z^m``; None if it does not converge."""
    powers = np.arange(asc.size)
    slope_coeffs = powers[1:] * asc[1:]
    for _ in range(_NEWTON_MAX_STEPS):
        zp = z ** powers
        slope = zp[:-1] @ slope_coeffs
        if slope == 0:
            return None
        step = (zp @ asc) / slope
        if not np.isfinite(step):
            return None
        z = z - step
        if abs(step) <= _NEWTON_TOL:
            return complex(z)
    return None


def _root_count(
    asc: np.ndarray, radius: float, clearance: float, points: int
) -> tuple[int | None, int]:
    """Roots of ``sum_m asc[m] z^m`` inside ``|z| = radius`` (or None),
    and the samples left of ``points``.

    ``clearance`` is the expected distance from the circle to the
    nearest root; ``|p|`` bends on that scale there, so the grid starts
    near ``8 / clearance`` points and doubles until the winding number
    is resolved or the next grid would take more than ``points`` samples.
    """
    size = _pow2(max(2 * asc.size, 8.0 / clearance))
    while size <= points:
        count = _winding_number(asc, radius, size)
        points -= size
        if count is not None:
            return count, points
        size *= 2
    return None, points


def _winding_number(asc: np.ndarray, radius: float, size: int) -> int | None:
    """Argument-principle root count from ``size`` FFT samples, or None.

    With ``n = 2d`` the degree, ``g(t) = exp(-j*d*t) * p(radius*exp(j*t))``
    is a trigonometric polynomial of degree ``d`` whose winding number is
    the root count minus ``d``.  The count is accepted only if every arc
    between neighbouring samples provably keeps ``g`` inside two discs
    that exclude zero and turn its argument by less than ``pi/3``:

    - ``|g''| <= sum m^2 |beta_m|`` (``beta_m`` the coefficients of
      ``g``) bounds ``|g'|`` on an arc by the mean of its two end
      samples of ``|g'|`` plus ``h/2`` times that sum, with ``h`` the
      arc length;
    - FFT rounding is covered by Higham's bound (Accuracy and Stability
      of Numerical Algorithms, Thm. 24.2) with twiddle error at most
      ``4 eps``, which gives ``|error| <= 10 eps log2(N) sqrt(N) sum|beta|``
      per sample, plus ``4 eps sum|beta|`` for forming the coefficients.

    With ``|g_k| + |g_{k+1}| - 2E >= 2 h max|g'|`` on each arc and every
    ``|g_k| >= 4E``, each sampled argument step equals the true one up
    to errors that cancel around the circle, so the summed steps are
    ``2*pi`` times the exact winding number.
    """
    beta = _centred(asc, radius, size)
    freq = np.fft.fftfreq(size, 1.0 / size)
    g = np.fft.ifft(beta, norm="forward")
    dg = np.fft.ifft(1j * freq * beta, norm="forward")
    h = 2.0 * np.pi / size
    rounding = _EPS * (10.0 * math.log2(size) * math.sqrt(size) + 4.0)
    weight = np.abs(beta)
    err = rounding * np.sum(weight)
    derr = rounding * np.sum(np.abs(freq) * weight)
    bend = np.sum(freq * freq * weight) * (1.0 + 1e-12)
    g = np.append(g, g[0])
    mag = np.abs(g)
    dmag = np.abs(np.append(dg, dg[0]))
    slope = 0.5 * (dmag[:-1] + dmag[1:]) + derr + 0.5 * h * bend
    if mag.min() < 4.0 * err or np.any(mag[:-1] + mag[1:] - 2.0 * err < 2.0 * h * slope):
        return None
    turn = float(np.sum(np.angle(g[1:] * g[:-1].conj())))
    return (asc.size - 1) // 2 + round(turn / (2.0 * np.pi))


def _centred(asc: np.ndarray, radius: float, size: int) -> np.ndarray:
    """FFT-ordered coefficients of ``exp(-j*d*t) * p(radius*exp(j*t))``."""
    half = (asc.size - 1) // 2
    scaled = asc * radius ** np.arange(asc.size)
    beta = np.zeros(size, dtype=complex)
    beta[: half + 1] = scaled[half:]
    beta[size - half:] = scaled[:half]
    return beta


def _pow2(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(x)))


def enumerate_candidates(phase_hat: float, geom: GroupGeometry) -> CandidateSet:
    """Unfold a group phase into its full candidate angle set.

    Collects every integer ``j`` for which
    ``sin(theta) = (phase_hat + 2*pi*j) * lambda / (2*pi*M_q*d)`` lands
    in ``[-1, 1]``.  At half-wavelength spacing that yields ``M_q``
    angles, or ``M_q + 1`` when the phase folds exactly onto the visible
    boundary, in which case the entry of largest ``|sin|`` is dropped
    (the positive one on an exact tie).
    """
    scale = geom.wavelength / (2.0 * np.pi * geom.virtual_spacing)
    two_pi = 2.0 * np.pi
    j_lo = math.ceil((-1.0 / scale - phase_hat) / two_pi - 1e-12)
    j_hi = math.floor((1.0 / scale - phase_hat) / two_pi + 1e-12)
    j = np.arange(j_lo, j_hi + 1)
    sines = scale * (phase_hat + two_pi * j)
    keep = np.abs(sines) <= 1.0 + 1e-12
    sines = np.clip(sines[keep], -1.0, 1.0)
    if sines.size == geom.subarray_size + 1:
        # Boundary fold: one alias too many; shed the outermost.
        order = sorted(range(sines.size), key=lambda i: (abs(sines[i]), sines[i]))
        sines = np.delete(sines, order[-1])
    return CandidateSet(
        group_index=geom.group_index,
        phase_hat=phase_hat,
        angles=np.arcsin(sines),
    )


def music_pseudospectrum(
    ns: NoiseSubspace, geom: GroupGeometry, theta_grid: np.ndarray
) -> np.ndarray:
    """Diagnostic MUSIC pseudo-spectrum over an angle grid (radians).

    ``P(theta) = 1 / (|e_q(theta)|^2 * ||U^H a(theta)||^2)``, including
    the analog gain term, so it is not the bare noise-subspace spectrum.
    Peaks line up with the candidate set of the rooted phase.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    power = np.empty(theta_grid.shape)
    for i, theta in np.ndenumerate(theta_grid):
        gain = abs(gain_coefficient(geom, theta)) ** 2
        steer = virtual_steering(geom, theta)
        proj = np.linalg.norm(ns.basis.conj().T @ steer) ** 2
        power[i] = 1.0 / (gain * proj) if gain * proj > 0 else np.inf
    return power
