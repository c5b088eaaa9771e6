"""First detection on a 1D tight-binding lattice under stroboscopic projection.

A particle hops on an open chain (H = -J sum |i><i+1| + h.c.).  Every tau it
is measured projectively at the detector sites: with probability
p(n) = sum_d |psi_d|^2 it is detected, otherwise the state is projected onto
the undetected subspace (detector amplitudes zeroed, no renormalization, so
the norm *is* the survival probability).  The module also evolves the
non-Hermitian counterpart H - i gamma P_detector for comparison, fits
power-law decay of the survival series, and scans the Zeno limit tau -> 0.
The chain is diagonal in its sine modes V[j, k] = sqrt(2/(N+1)) sin(pi (j+1)(k+1)/(N+1)),
E_k = -2J cos(pi (k+1)/(N+1)).  A mode no detector sees (V_D[:, k] = 0) keeps its
amplitude, so both runs evolve only the bright amplitudes c = V psi.  A projective
step is a phase multiply, a read a = V_D c and the rank-|D| update c -= V_D^T a:
O(N |D|) with no N x N array; S(n) = S_dark + ||c||^2 since V is orthogonal.  The
absorbing run forms one step matrix X = e^a - 1 of the bright block,
a = -i tau (diag(E) - i gamma V_D^T V_D), by Pade(13) scaling and squaring, and
steps c += X c, in a basis where the absorber fills a |D| x |D| block.  The
module needs numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError, _finite

__all__ = [
    "LatticeSpec",
    "DetectionRecord",
    "evolve_project",
    "evolve_nonhermitian",
    "calibrate_gamma",
    "fit_power_law",
    "zeno_scan",
]


# The most measure-and-project cycles one run may take: each keeps p(n) and
# S(n), so 10**7 steps hold 160 MB and run for minutes.
_MAX_STEPS = 10**7

# The largest gamma * tau that evolve_nonhermitian accepts: a 30-digit oracle
# confirms its survival to about 1e-15 up to here, and gamma * tau itself may
# overflow beyond.  The default grid stops at 50.
_MAX_GAMMA_TAU = 1e12
# The largest hopping * tau that evolve_nonhermitian accepts.  A step's mode
# phases E_k tau carry a rounding of eps * hopping * tau, which every step
# adds to S(n): a 30-digit oracle finds the error below a quarter of
# 1e-12 + 4 eps gamma up to here, and above it at 500.
_MAX_HOPPING_TAU = 1e2

# Higham's Pade(13) coefficients b_0..b_13 for e^a, and the 1-norm up to
# which they are accurate to double precision without scaling (SIAM J. Matrix
# Anal. Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class LatticeSpec:
    """Stroboscopic detection run on an open chain.

    Attributes:
        n_sites: chain length (>= 3).
        hopping: amplitude J (> 0) between adjacent sites; ballistic speed is 2J.
        initial_site: site of the initial delta state.
        detector_sites: sites measured every step (may include initial_site).
        tau: measurement interval (> 0).
        n_steps: number of measure-and-project cycles (1 to _MAX_STEPS).
    """

    n_sites: int
    hopping: float
    initial_site: int
    detector_sites: frozenset[int]
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        for name in ("n_sites", "hopping", "initial_site", "tau", "n_steps"):
            integer = name not in ("hopping", "tau")
            object.__setattr__(self, name, _finite(getattr(self, name), name, integer))
        try:
            sites = frozenset(_finite(s, "detector_sites", integer=True) for s in self.detector_sites)
        except TypeError:
            raise ValidationError(f"detector_sites: expected sites, got {self.detector_sites!r}") from None
        object.__setattr__(self, "detector_sites", sites)
        if self.n_sites < 3:
            raise ValidationError(f"n_sites: must be >= 3, got {self.n_sites}")
        if not self.hopping > 0:
            raise ValidationError(f"hopping: must be positive, got {self.hopping}")
        if not self.tau > 0:
            raise ValidationError(f"tau: must be positive, got {self.tau}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps: must be >= 1, got {self.n_steps}")
        if self.n_steps > _MAX_STEPS:
            raise ValidationError(f"n_steps: must be at most {_MAX_STEPS}, got {self.n_steps}")
        if not sites:
            raise ValidationError("detector_sites: must be non-empty")
        for name, group in (("initial_site", {self.initial_site}), ("detector_sites", sites)):
            for site in sorted(group):
                if not 0 <= site < self.n_sites:
                    raise ValidationError(f"{name}: site {site} out of range [0, {self.n_sites})")


@dataclass(frozen=True)
class DetectionRecord:
    """Per-step first-detection probabilities p(n) and survival S(n), n >= 1.

    Invariants (enforced by construction, checked in tests):
    S is non-increasing and sum_{m<=n} p(m) + S(n) = 1 at every step.
    """

    p: np.ndarray
    survival: np.ndarray

    def total_probability(self) -> np.ndarray:
        """Bookkeeping series sum_{m<=n} p(m) + S(n); identically 1 up to roundoff."""
        return np.cumsum(self.p) + self.survival


def _modes(spec: LatticeSpec, sites: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the sine-mode matrix V at the given sites, and the energies E_k.

    (j+1)(k+1) is reduced modulo 2(N+1) before scaling by pi, which keeps the
    symmetric V orthogonal to ~1e-15 at N ~ 1000 (~5e-14 without), and V is
    exactly zero where the product is a multiple of N+1 (sin(pi) is 1.2e-16),
    so a mode that a site does not see is exactly dark there."""
    n1 = spec.n_sites + 1
    k = np.arange(1, n1)
    j = np.asarray(sites)[:, None] + 1
    phase = (j * k) % (2 * n1)
    rows = math.sqrt(2.0 / n1) * np.sin(np.pi * phase / n1)
    rows[phase % n1 == 0] = 0.0
    return rows, -2.0 * spec.hopping * np.cos(np.pi * k / n1)


def _bright_modes(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The bright modes' initial amplitudes c, detector rows V_D and energies
    E, and S_dark, the survival the dark modes (V_D[:, k] = 0) keep."""
    rows, energies = _modes(spec, [spec.initial_site, *sorted(spec.detector_sites)])
    c, v_d = rows[0], rows[1:]
    bright = np.any(v_d != 0.0, axis=0)
    return c[bright].astype(complex), v_d[:, bright], energies[bright], float(np.sum(c[~bright] ** 2))


def evolve_project(spec: LatticeSpec) -> DetectionRecord:
    """Run the stroboscopic measure-and-project protocol.

    Each cycle: psi <- U psi, record p(n) = sum_d |psi_d|^2, zero the detector
    amplitudes, record S(n) = ||psi||^2.
    """
    c, v_d, energies, s_dark = _bright_modes(spec)
    phase = np.exp(-1j * energies * spec.tau)
    p, s = np.empty(spec.n_steps), np.empty(spec.n_steps)
    for n in range(spec.n_steps):
        c *= phase
        a = v_d @ c
        p[n] = float(np.vdot(a, a).real)
        c -= a @ v_d
        s[n] = s_dark + float(np.vdot(c, c).real)
    return DetectionRecord(p=p, survival=s)


def _expm1(a: np.ndarray) -> np.ndarray:
    """e^a - 1 for a square matrix a, by Pade(13) scaling and squaring.

    With U and V the odd and even parts of the Pade numerator,
    e^(a / 2^s) - 1 = (V - U)^-1 2U, and each squaring doubles the argument as
    X <- 2X + X X.  Carrying X, not 1 + X, keeps the small decay of a weakly
    absorbing step, which 1 + X would round away.
    """
    norm = np.linalg.norm(a, 1)
    s = 0 if norm <= _THETA13 else math.ceil(math.log2(norm / _THETA13))
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = np.linalg.solve(v - u, 2.0 * u)
    for _ in range(s):
        x = 2.0 * x + x @ x
    return x


def _check_absorber(spec: LatticeSpec, gamma: float) -> None:
    """Refuse, by name, a gamma or a tau that evolve_nonhermitian cannot step."""
    if not 0 < gamma < math.inf:
        raise ValidationError(f"gamma: must be positive and finite, got {gamma}")
    if not gamma * spec.tau <= _MAX_GAMMA_TAU:
        raise ValidationError(
            f"gamma: {gamma!r} times tau {spec.tau!r} exceeds {_MAX_GAMMA_TAU:g}"
        )
    if not spec.hopping * spec.tau <= _MAX_HOPPING_TAU:
        raise ValidationError(
            f"tau: {spec.tau!r} times hopping {spec.hopping!r} exceeds {_MAX_HOPPING_TAU:g}"
        )


def evolve_nonhermitian(spec: LatticeSpec, gamma: float) -> np.ndarray:
    """Survival ||psi(n tau)||^2 under H - i gamma sum_d |d><d|, n = 1..n_steps.

    On the bright sine modes the step is e^a, a = -i tau (diag(E) - i gamma
    V_D^T V_D), and one X = e^a - 1 gives every step as c <- c + X c; X is
    defined at an exceptional point too, where the generator's eigenvectors
    merge.  It is formed in the basis q of V_D^T = q r, where the absorber
    r r^T fills only the leading |D| x |D| block: the rounding of the large
    gamma * tau then stays out of the surviving modes, and S(n) keeps about
    1e-15 up to the bound, where the sine modes themselves give eps * gamma * tau.

    Raises:
        ValidationError: naming gamma, unless it is positive and finite and
            gamma * tau is at most _MAX_GAMMA_TAU; naming tau, unless
            hopping * tau is at most _MAX_HOPPING_TAU.
    """
    _check_absorber(spec, gamma)
    c, v_b, energies, s_dark = _bright_modes(spec)
    q, r = np.linalg.qr(v_b.T, mode="complete")
    d = len(v_b)
    a = -1j * spec.tau * (q.T @ (energies[:, None] * q))
    a[:d, :d] -= gamma * spec.tau * (r[:d] @ r[:d].T)
    x = _expm1(a)
    c = q.T @ c
    s = np.empty(spec.n_steps)
    for n in range(spec.n_steps):
        c += x @ c
        s[n] = s_dark + float(np.vdot(c, c).real)
    return s


def calibrate_gamma(
    spec: LatticeSpec,
    window: tuple[int, int],
    gammas: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Pick the absorbing strength whose survival best matches the projective run.

    Minimizes the max relative deviation of the non-Hermitian survival from
    evolve_project's over the step window (half-open, 0-based), where both runs end.

    Returns:
        (best gamma, max relative deviation over the window).

    Raises:
        ValidationError: naming the window unless 0 <= lo < hi <= n_steps, or
            if gammas is empty or the projective survival vanishes in it; and
            evolve_nonhermitian's, naming gamma or tau, for a gamma of the
            grid or a tau that it refuses, before either run starts.
    """
    lo, hi = window
    if not 0 <= lo < hi <= spec.n_steps:
        raise ValidationError(f"window {window} invalid for a run of {spec.n_steps} steps")
    if gammas is None:
        # The effective absorption rate is non-monotonic in gamma (overdamping
        # at large gamma), so scan a broad log grid around 1/tau.
        gammas = np.geomspace(0.05, 50.0, 40) / spec.tau
    if len(gammas) == 0:
        raise ValidationError("gammas: the grid of absorbing strengths is empty")
    for gamma in gammas:
        _check_absorber(spec, gamma)
    run = replace(spec, n_steps=hi)
    ref = evolve_project(run).survival[lo:]
    if np.any(ref <= 0):
        raise ValidationError("projective survival vanishes inside the window")
    devs = [float(np.max(np.abs(evolve_nonhermitian(run, g)[lo:] - ref) / ref)) for g in gammas]
    best = int(np.argmin(devs))
    return float(gammas[best]), devs[best]


def fit_power_law(survival: Sequence[float], window: tuple[int, int]) -> tuple[float, float]:
    """Least-squares slope of log S(n) vs log n over a half-open step window.

    n is 1-based (survival[0] is step 1).

    Returns:
        (exponent, rms residual of the log-log fit).

    Raises:
        ValidationError: on an ill-formed window or non-positive values in it.
    """
    s = np.asarray(survival, dtype=float)
    lo, hi = window
    if not (0 <= lo < hi <= len(s)) or hi - lo < 2:
        raise ValidationError(f"window {window} invalid for series of length {len(s)}")
    seg = s[lo:hi]
    if np.any(seg <= 0):
        raise ValidationError("survival must be strictly positive in the fit window")
    x = np.log(np.arange(lo + 1, hi + 1, dtype=float))
    y = np.log(seg)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return float(coeffs[0]), float(np.sqrt(np.mean(resid**2)))


def zeno_scan(
    spec: LatticeSpec, tau_list: Sequence[float], t_fixed: float
) -> list[tuple[float, float]]:
    """Survival at a fixed physical time versus measurement interval.

    For each tau the protocol runs n = round(t_fixed / tau) steps (at least
    one, at most _MAX_STEPS); continuous measurement (tau -> 0) freezes the
    evolution when the detector is off the initial site.
    """
    if any(t <= 0 for t in tau_list):
        raise ValidationError("all measurement intervals must be positive")
    for tau in tau_list:
        # Checked before round(), which overflows when t_fixed / tau is inf.
        if not t_fixed / tau <= _MAX_STEPS:
            raise ValidationError(
                f"n_steps = t_fixed / tau = {t_fixed / tau:.6g} at tau = {tau:.6g} "
                f"exceeds {_MAX_STEPS}"
            )

    out = []
    for tau in tau_list:
        run = replace(spec, tau=tau, n_steps=max(1, round(t_fixed / tau)))
        out.append((float(tau), float(evolve_project(run).survival[-1])))
    return out
