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
``_CERTIFIED_MIN_DEGREE`` on, :func:`root_music_phases` finds the signal
root alone: Newton iteration from the minimum of the FFT-evaluated
spectrum, then one argument-principle root count that certifies no other
root competes with it.  The count needs only the circle inside the root:
the polynomial is conjugate-palindromic, so its roots pair as ``z`` and
``1/conj(z)``, and the roots inside a circle mirror to as many outside
its inverse.  Whenever Newton or the certificate fails, the ``np.roots``
selection runs unchanged.  The constant sits at degree 34
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
``2K_q - 1`` traces, and its rows are made exactly conjugate-palindromic,
as the root pairing needs.  The two builds agree to rounding (within
``1e-12 * K_q`` in the tests).

A certificate that fails still costs its samples, so the
argument-principle count of one fit has a budget of
``4 * degree**2`` FFT samples (:func:`_certificate_points`): about half
of what ``np.roots`` costs at that degree.  A count that would exceed
the budget is given up, and ``np.roots`` decides.

The eigenpair has two paths on the same switch.  Below ``K_q = 18``
:func:`noise_subspaces` runs one ``np.linalg.eigh`` and keeps the noise
basis.  From ``K_q = 18`` on, where only the signal eigenvector is read,
it takes the eigenvalues from ``np.linalg.eigvalsh`` and the signal
eigenvector from one inverse-iteration step shifted by the largest
eigenvalue (0.47 against 0.70-0.98 ms per group at ``K_q = 64``).  A
residual certificate (Davis-Kahan) accepts that vector only if it lies
within an angle of ``1e-12`` of the true one; otherwise the ``eigh``
path runs, so its result is the same to the bit.

Groups of one size ``K_q`` run as a stack, and :class:`SubspaceStack`
is the one subspace result type.  :func:`noise_subspaces` splits a
(G, K_q, K_q) stack of covariances with one stacked ``eigh`` below
``K_q = 18``, or one stacked ``eigvalsh`` and a certified eigenvector
per matrix from there on.  :func:`root_music_phases` builds every
polynomial of the stack, below ``K_q = 18`` with ``2K_q - 1`` stacked
``np.trace`` calls, and roots them with one stacked
``np.linalg.eigvals`` on the companion matrices ``np.roots`` would build;
from ``K_q = 18`` on each polynomial is certified alone.  A stacked
LAPACK call solves each matrix as the one-matrix call does, and each
stacked reduction sums in the one-matrix order, so a group gives the
same bits alone as in a stack.  The per-group functions
:func:`noise_subspace` and :func:`root_music_phase` are adapters over
stacks of one: every field of a :func:`noise_subspace` result has a
leading axis of length 1.  A stack raises when any member fails; which
group to name is the caller's choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .array_model import GroupGeometry

#: Two eigenvalues closer than this (relative) leave no usable signal subspace.
DEGENERACY_RTOL = 1e-9

#: Roots whose moduli differ by less than this tie on the modulus criterion.
ROOT_TIE_TOL = 1e-12

#: Slack on the unit-circle membership test; keeps a root pair that numerics
#: pushed marginally outside from being discarded.
_CIRCLE_SLACK = 1e-9

#: Polynomial degree 2(K_q - 1) from which root_music_phases certifies the
#: signal root alone instead of rooting the whole polynomial (see the
#: module docstring for the measured crossover).
_CERTIFIED_MIN_DEGREE = 34

#: Largest certified sine of the angle between the inverse-iteration
#: eigenvector and the true signal eigenvector (see _leading_eigenvector).
_EIGENVECTOR_SIN_TOL = 1e-12

_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


class DegenerateSpectrumError(RuntimeError):
    """Eigenvalue spectrum with no separable signal eigenvalue."""


class NoRootFoundError(RuntimeError):
    """Root polynomial with no usable root (all at or near zero)."""


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


@dataclass(frozen=True)
class SubspaceStack:
    """Signal and noise eigenvectors of ``G`` covariances of one size ``K_q``.

    The one subspace result type; one group is a stack with ``G = 1``.

    Attributes
    ----------
    basis : ndarray, shape (G, K_q, K_q - 1), or None
        Orthonormal eigenvectors spanning each noise subspace.  The
        root-MUSIC polynomial is built from it below degree
        ``_CERTIFIED_MIN_DEGREE`` (``K_q < 18``).  From ``K_q = 18`` on
        nothing reads it, and it is None.
    signal : ndarray, shape (G, K_q)
        Unit eigenvector of each largest eigenvalue, orthogonal to the
        noise subspace.  From ``K_q = 18`` on the polynomial is built
        from it, since ``basis @ basis^H = I - signal signal^H``, and it
        comes from one certified inverse-iteration step (see
        :func:`noise_subspaces`).
    leading_eigenvalue : ndarray, shape (G,)
        Largest eigenvalue of each covariance (the signal eigenvalue).
    noise_floor : ndarray, shape (G,)
        Mean of each covariance's trailing ``K_q - 1`` eigenvalues.
    """

    basis: np.ndarray | None
    signal: np.ndarray
    leading_eigenvalue: np.ndarray
    noise_floor: np.ndarray


def noise_subspace(cov: np.ndarray) -> SubspaceStack:
    """Split one (K_q, K_q) group covariance: :func:`noise_subspaces` of
    a stack of one, so every field has a leading axis of length 1."""
    return noise_subspaces(cov[None])


def noise_subspaces(covs: np.ndarray) -> SubspaceStack:
    """Split each matrix of a (G, K_q, K_q) stack of group covariances.

    The signal subspace is fixed at dimension one (single emitter), so
    each noise basis is the trailing ``K_q - 1`` eigenvectors in
    descending eigenvalue order.  Below ``K_q = 18`` one stacked ``eigh``
    gives every eigenpair.  From ``K_q = 18`` on (polynomial degree
    ``_CERTIFIED_MIN_DEGREE``), where root-MUSIC reads only the signal
    eigenvector, one stacked ``eigvalsh`` gives the eigenvalues and each
    matrix takes its signal eigenvector from one inverse-iteration step,
    accepted only under a residual certificate
    (:func:`_leading_eigenvector`).  When the certificate fails, that
    matrix's own ``eigh`` runs, so its result is the same to the bit;
    ``basis`` is None from ``K_q = 18`` on either way.  The stacked
    LAPACK calls solve each matrix as the one-matrix call does, so every
    group's result is the same to the bit alone or in a stack.

    Raises
    ------
    DegenerateSpectrumError
        For the first matrix, in stack order, whose two largest
        eigenvalues agree to within ``DEGENERACY_RTOL`` relative, as
        happens for noise-only input.
    """
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise ValueError(f"covariances must stack square matrices, got {covs.shape}")
    if covs.shape[1] < 2:
        raise ValueError("need at least two subarrays for a noise subspace")
    if 2 * (covs.shape[1] - 1) < _CERTIFIED_MIN_DEGREE:
        return _eigh_subspaces(covs)
    signals, leads, floors = [], [], []
    for cov, eigenvalues in zip(covs, np.linalg.eigvalsh(covs)):
        lead, second = eigenvalues[-1], eigenvalues[-2]
        _check_separable(lead, second)
        signal = _leading_eigenvector(cov, lead, second)
        floor = np.mean(eigenvalues[:-1])
        if signal is None:
            ref = _eigh_subspaces(cov[None])
            signal, lead, floor = ref.signal[0], ref.leading_eigenvalue[0], ref.noise_floor[0]
        signals.append(signal)
        leads.append(lead)
        floors.append(floor)
    return SubspaceStack(
        basis=None,
        signal=np.stack(signals),
        leading_eigenvalue=np.array(leads),
        noise_floor=np.array(floors),
    )


def _eigh_subspaces(covs: np.ndarray) -> SubspaceStack:
    """Every eigenpair of each matrix of a stack from one ``eigh``."""
    eigenvalues, eigenvectors = np.linalg.eigh(covs)
    # eigh sorts ascending; flip to descending.
    eigenvalues = eigenvalues[:, ::-1]
    eigenvectors = eigenvectors[..., ::-1]
    for lead, second in eigenvalues[:, :2]:
        _check_separable(lead, second)
    return SubspaceStack(
        basis=eigenvectors[..., 1:],
        signal=eigenvectors[..., 0],
        leading_eigenvalue=eigenvalues[:, 0],
        noise_floor=np.mean(eigenvalues[:, 1:], axis=-1),
    )


def _check_separable(lead: float, second: float) -> None:
    if lead - second <= DEGENERACY_RTOL * max(abs(lead), np.finfo(float).tiny):
        raise DegenerateSpectrumError(
            f"leading eigenvalues {lead:.6e} and {second:.6e} are not separable"
        )


def _leading_eigenvector(
    cov: np.ndarray, lead: float, second: float
) -> np.ndarray | None:
    """Unit eigenvector of ``lead`` by one inverse-iteration step, or None.

    Solves ``(cov - lead*I) x = b`` with ``b`` the column of ``cov``
    with the largest diagonal entry; with ``lead`` accurate to rounding,
    one step leaves ``x`` along the signal eigenvector up to a relative
    ``K_q * eps * lead / (lead - second)``.  The result stands only
    under a residual certificate.  With ``v = x/|x|``, Rayleigh quotient
    ``mu`` and residual ``r = |cov v - mu v|``, some eigenvalue lies
    within ``r`` of ``mu``; if ``mu - lambda_2 > r`` it is the largest,
    and by Davis and Kahan's sin-theta theorem
    ``sin angle(v, v_1) <= r / (mu - lambda_2 - r)``.  ``lambda_2`` is
    bounded by ``second`` widened by the ``eigvalsh`` error, taken as
    ``K_q * eps * lead``, and the angle must come out below
    ``_EIGENVECTOR_SIN_TOL``.  A singular solve, a non-finite or zero
    ``x`` or a failed certificate gives None.
    """
    k = cov.shape[0]
    shifted = cov.copy()
    diagonal = shifted.reshape(-1)[:: k + 1]
    rhs = cov[:, np.argmax(diagonal.real)]
    diagonal -= lead
    try:
        x = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        return None
    norm = np.linalg.norm(x)
    if not 0.0 < norm < np.inf:
        return None
    v = x / norm
    image = cov @ v
    mu = float((v.conj() @ image).real)
    residual = float(np.linalg.norm(image - mu * v))
    separation = mu - second - k * _EPS * abs(lead)
    if separation > residual and residual <= _EIGENVECTOR_SIN_TOL * (separation - residual):
        return v
    return None


def _root_polynomials(signal: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """Root-MUSIC polynomial of each group of a stack, shape (G, 2K - 1).

    Coefficients run highest degree first.  With ``F = U U^H``, the
    quadratic form ``a(z)^H F a(z)`` collapses to ``sum_l c_l z^l`` where
    ``c_l`` is the sum of the l-th diagonal of ``F``; multiplying by
    ``z^(K-1)`` gives a degree ``2(K-1)`` polynomial whose unit-circle
    roots are the MUSIC nulls.  Below degree ``_CERTIFIED_MIN_DEGREE``
    one stacked product forms every ``F`` and each offset's diagonal sums
    come from one stacked ``np.trace``; both sum each matrix in the
    one-matrix order.  From that degree on, ``F = I - v v^H`` with ``v``
    the signal eigenvector, and ``c`` is ``-correlate(v, v)`` plus ``K``
    at lag 0.  Those rows are conjugate-palindromic by construction, as
    the certificate's root pairing needs: the negative lags are the
    conjugates of the positive ones, and lag 0 is real.
    """
    k = signal.shape[-1]
    if 2 * (k - 1) >= _CERTIFIED_MIN_DEGREE:
        coeffs = np.stack([-np.correlate(v, v, "full") for v in signal])
        coeffs[:, k - 1] = k + coeffs[:, k - 1].real
        coeffs[:, : k - 1] = coeffs[:, : k - 1 : -1].conj()
        return coeffs
    f = basis @ basis.conj().swapaxes(-1, -2)
    return np.stack(
        [np.trace(f, offset=off, axis1=-2, axis2=-1) for off in range(k - 1, -k, -1)],
        axis=-1,
    )


def root_music_phase(ns: SubspaceStack, geom: GroupGeometry) -> float:
    """:func:`root_music_phases` of a stack of one, as from
    :func:`noise_subspace`.  ``geom`` is unused: rooting needs only the
    subspace.  Raises ValueError for a stack of other than one group."""
    if len(ns.signal) != 1:
        raise ValueError(f"need a stack of one group, got {len(ns.signal)}")
    return root_music_phases(ns)[0]


def root_music_phases(stack: SubspaceStack) -> list[float]:
    """Electrical phase of the signal root of each group, in stack order.

    The signal root is, among roots inside the unit circle, the one of
    largest modulus; modulus ties within ``ROOT_TIE_TOL`` break toward
    the smaller principal argument.  The analog gain prefactor is
    angle-dependent but root-free, so it plays no part in rooting.

    Below degree ``_CERTIFIED_MIN_DEGREE`` (``K_q < 18``) every root is
    computed as ``np.roots`` does, an O(K_q^3) companion-matrix
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
    list of float
        Each ``phase_hat`` in ``(-pi, pi]``, the argument of the selected
        root; equals ``(2*pi/lambda) * M_q * d * sin(theta0)`` folded to
        the principal branch.
    """
    return _polynomial_phases(_root_polynomials(stack.signal, stack.basis))


def _polynomial_phases(coeffs: np.ndarray) -> list[float]:
    """Signal-root phase of each row of a (G, degree + 1) coefficient stack.

    From degree ``_CERTIFIED_MIN_DEGREE`` on each row is certified alone
    or handed to ``np.roots``.  Below it, one stacked ``np.linalg.eigvals``
    solves the companion matrices ``np.roots`` would build, which gives
    its roots to the bit.  ``np.roots`` strips zero leading and trailing
    coefficients, so such rows go to ``np.roots`` itself.

    Raises
    ------
    NoRootFoundError
        If a row has no nonzero coefficient, or no usable root.
    """
    if not (np.abs(coeffs) > 0).any(axis=1).all():
        raise NoRootFoundError("all polynomial coefficients vanish")
    if coeffs.shape[1] - 1 >= _CERTIFIED_MIN_DEGREE:
        phases = [_certified_signal_phase(row) for row in coeffs]
        return [
            _np_roots_phase(row) if phase is None else phase
            for row, phase in zip(coeffs, phases)
        ]
    phases = np.empty(len(coeffs))
    companion_rows = (coeffs[:, 0] != 0) & (coeffs[:, -1] != 0)
    for g in np.flatnonzero(~companion_rows):
        phases[g] = _np_roots_phase(coeffs[g])
    if companion_rows.any():
        p = coeffs[companion_rows]
        n = p.shape[1] - 1
        companion = np.zeros((len(p), n, n), dtype=p.dtype)
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        phases[companion_rows] = _signal_root_phases(np.linalg.eigvals(companion))
    return phases.tolist()


def _np_roots_phase(coeffs: np.ndarray) -> float:
    """Signal-root phase from all roots of ``coeffs`` (``np.roots``)."""
    roots = np.roots(coeffs)
    if roots.size == 0:
        raise NoRootFoundError("polynomial has no roots")
    return float(_signal_root_phases(roots[None])[0])


def _signal_root_phases(roots: np.ndarray) -> np.ndarray:
    """Phase of the signal root of each row of a (G, n) root stack.

    Among roots with modulus at most ``1 + _CIRCLE_SLACK``, the largest
    modulus wins; moduli within ``ROOT_TIE_TOL`` of it tie, and the
    smallest principal argument among them is taken.
    """
    moduli = np.abs(roots)
    inside = moduli <= 1.0 + _CIRCLE_SLACK
    if not inside.any(axis=1).all():
        raise NoRootFoundError("no root on or inside the unit circle")
    moduli = np.where(inside, moduli, -np.inf)
    best = moduli.max(axis=1, keepdims=True)
    if (best < 1e-12).any():
        raise NoRootFoundError("all roots numerically at zero")
    tied = moduli >= best - ROOT_TIE_TOL
    return np.where(tied, np.angle(roots), np.inf).min(axis=1)


def _certified_signal_phase(coeffs: np.ndarray) -> float | None:
    """Phase of the signal root found alone, or None when not certified.

    The proof needs the roots to pair as ``w``, ``1/conj(w)`` (with
    multiplicity), so a row that is not exactly conjugate-palindromic, or
    has a zero end coefficient, is declined before anything is sampled.
    Newton iteration from the deepest point of the unit-circle spectrum
    converges to some root; mirrored inside the circle if it lies outside,
    it is ``z``, of modulus ``rho = 1 - gap``.  Its last step ``s`` puts
    a true root within ``n*|s|`` of ``z``, ``n`` the degree
    (``p'/p = sum 1/(z - z_i)``).  A root of larger modulus, or one that
    ties with it, may still exist elsewhere, so the result stands only if
    the argument principle counts ``K_q - 2`` roots inside radius
    ``rho - gap``.  Their mirrors lie beyond ``1/(rho - gap)``, so the
    annulus between holds only ``z`` and its mirror, of modulus
    ``1/rho > 1 + gap``.  A count there needs about ``8/gap`` samples of
    the ``4*n**2`` of :func:`_certificate_points`, so a certified gap is
    at least ``2/n**2`` (1.3e-4 at degree 126), far above
    ``_CIRCLE_SLACK``: ``z`` is the only root with modulus in
    ``[rho - ROOT_TIE_TOL, 1 + _CIRCLE_SLACK]``, and ``np.roots`` would
    select it without a tie.  A noise root with modulus in
    ``[rho - gap, rho)`` fails the count, and ``np.roots`` decides.
    The grid starts near ``8/gap`` points, where ``|p|`` bends on the
    scale of ``gap``, and doubles until the count is resolved or the
    budget is spent.
    """
    if coeffs[0] == 0 or not np.array_equal(coeffs, coeffs[::-1].conj()):
        return None
    asc = coeffs[::-1]
    z = _newton_root(asc, _spectrum_minimum(asc))
    if z is None:
        return None
    if abs(z) > 1.0:
        z = 1.0 / z.conjugate()
    rho = abs(z)
    gap = 1.0 - rho
    if not 0.0 < gap < 0.5:
        return None
    points = _certificate_points(asc.size - 1)
    size = _pow2(max(2 * asc.size, 8.0 / gap))
    while size <= points:
        count = _winding_number(asc, rho - gap, size)
        if count is not None:
            return float(np.angle(z)) if count == (asc.size - 1) // 2 - 1 else None
        points -= size
        size *= 2
    return None


def _certificate_points(degree: int) -> int:
    """FFT samples the root count of one certificate may spend in all.

    ``np.roots`` costs about ``0.5 us * degree**2`` from degree 34
    (0.46 ms) to 126 (10 ms), and a winding count about 60 ns per sample
    on the grids where the budget binds, so ``4 * degree**2`` samples
    cost about half of ``np.roots``.  Every 0 dB fit at ``K_q = 64``
    at 41 degrees needed at most 1536 of its 63504 (1200 fits).
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
    """Newton iteration on ``sum_m asc[m] z^m``; None if it does not converge.

    The powers ``z^m`` come from one cumulative product, not ``z ** m``:
    one complex multiply per power in place of a complex ``pow`` each.
    """
    slope_coeffs = np.arange(1, asc.size) * asc[1:]
    factors = np.ones(asc.size, dtype=complex)
    zp = np.empty_like(factors)
    for _ in range(_NEWTON_MAX_STEPS):
        factors[1:] = z
        np.multiply.accumulate(factors, out=zp)
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
    jfreq, abs_freq, freq_sq = _frequency_grid(size)
    pair = np.empty((2, size), dtype=complex)
    pair[0] = beta
    np.multiply(jfreq, beta, out=pair[1])
    samples = np.fft.ifft(pair, norm="forward")
    # g and g' at the size samples, then sample 0 again to close the circle
    samples = np.concatenate((samples, samples[:, :1]), axis=1)
    g = samples[0]
    h = 2.0 * np.pi / size
    rounding = _EPS * (10.0 * math.log2(size) * math.sqrt(size) + 4.0)
    weight = np.abs(beta)
    err = rounding * weight.sum()
    derr = rounding * (abs_freq * weight).sum()
    bend = (freq_sq * weight).sum() * (1.0 + 1e-12)
    mag, dmag = np.abs(samples)
    slope = 0.5 * (dmag[:-1] + dmag[1:]) + derr + 0.5 * h * bend
    if mag.min() < 4.0 * err or (mag[:-1] + mag[1:] - 2.0 * err < 2.0 * h * slope).any():
        return None
    turn = float(np.angle(g[1:] * g[:-1].conj()).sum())
    return (asc.size - 1) // 2 + round(turn / (2.0 * np.pi))


@functools.lru_cache(maxsize=None)
def _frequency_grid(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``1j*f``, ``|f|`` and ``f*f`` for ``f = fftfreq(size, 1/size)``.

    ``size`` is a power of two, so ``f`` holds exact integers and the
    cached arrays equal the ones a call would compute, bit for bit.  The
    sample budget bounds ``size`` by ``4 * degree**2``, so the cache
    holds one read-only entry per power of two up to that (128 to 32768
    at ``K_q = 64``).
    """
    freq = np.fft.fftfreq(size, 1.0 / size)
    grid = (1j * freq, np.abs(freq), freq * freq)
    for array in grid:
        array.flags.writeable = False
    return grid


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
    # scale * (phase_hat + two_pi * j), in place
    sines = np.arange(j_lo, j_hi + 1, dtype=float)
    sines *= two_pi
    sines += phase_hat
    sines *= scale
    sines = sines[np.abs(sines) <= 1.0 + 1e-12]
    np.maximum(sines, -1.0, out=sines)  # np.clip's values, without its wrapper
    np.minimum(sines, 1.0, out=sines)
    if sines.size == geom.subarray_size + 1:
        # Boundary fold: one alias too many; shed the outermost.
        order = sorted(range(sines.size), key=lambda i: (abs(sines[i]), sines[i]))
        sines = np.delete(sines, order[-1])
    return CandidateSet(
        group_index=geom.group_index,
        phase_hat=phase_hat,
        angles=np.arcsin(sines),
    )

