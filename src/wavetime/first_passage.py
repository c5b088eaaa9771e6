"""First detection on a 1D tight-binding lattice under stroboscopic projection.

A particle hops on an open chain (H = -J sum |i><i+1| + h.c.).  Every tau it
is measured projectively at the detector sites: with probability
p(n) = sum_d |psi_d|^2 it is detected, otherwise the state is projected onto
the undetected subspace (detector amplitudes zeroed, no renormalization, so
the norm *is* the survival probability).  The module also evolves the
non-Hermitian counterpart H - i gamma P_detector for comparison, fits
power-law decay of the survival series, and scans the Zeno limit tau -> 0.
The chain is diagonal in its sine modes V[j, k] = sqrt(2/(N+1)) sin(pi (j+1)(k+1)/(N+1)),
E_k = -2J cos(pi (k+1)/(N+1)), and both runs keep the N mode amplitudes c = V psi.  A
projective step is a phase multiply, a read a = V_D c and the rank-|D| update
c -= V_D^T a: O(N |D|) with no N x N array; S(n) = ||c||^2 since V is orthogonal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import ValidationError

__all__ = [
    "LatticeSpec",
    "DetectionRecord",
    "evolve_project",
    "evolve_nonhermitian",
    "calibrate_gamma",
    "fit_power_law",
    "zeno_scan",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Stroboscopic detection run on an open chain.

    Attributes:
        n_sites: chain length (>= 3).
        hopping: amplitude J (> 0) between adjacent sites; ballistic speed is 2J.
        initial_site: site of the initial delta state.
        detector_sites: sites measured every step (may include initial_site).
        tau: measurement interval (> 0).
        n_steps: number of measure-and-project cycles (>= 1).
    """

    n_sites: int
    hopping: float
    initial_site: int
    detector_sites: frozenset[int]
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_sites < 3:
            raise ValidationError(f"n_sites must be >= 3, got {self.n_sites}")
        if not self.hopping > 0:
            raise ValidationError(f"hopping must be positive, got {self.hopping}")
        if not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        sites = set(self.detector_sites) | {self.initial_site}
        if not self.detector_sites:
            raise ValidationError("detector_sites must be non-empty")
        for s in sites:
            if not (0 <= s < self.n_sites):
                raise ValidationError(f"site index {s} out of range [0, {self.n_sites})")
        # frozenset from any iterable the caller passed
        object.__setattr__(self, "detector_sites", frozenset(self.detector_sites))


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
    symmetric V orthogonal to ~1e-15 at N ~ 1000 (~5e-14 without)."""
    n1 = spec.n_sites + 1
    k = np.arange(1, n1)
    j = np.asarray(sites)[:, None] + 1
    rows = math.sqrt(2.0 / n1) * np.sin(np.pi * ((j * k) % (2 * n1)) / n1)
    return rows, -2.0 * spec.hopping * np.cos(np.pi * k / n1)


def evolve_project(spec: LatticeSpec) -> DetectionRecord:
    """Run the stroboscopic measure-and-project protocol.

    Each cycle: psi <- U psi, record p(n) = sum_d |psi_d|^2, zero the detector
    amplitudes, record S(n) = ||psi||^2.
    """
    rows, energies = _modes(spec, [spec.initial_site, *sorted(spec.detector_sites)])
    c, v_d = rows[0].astype(complex), rows[1:]
    phase = np.exp(-1j * energies * spec.tau)
    p, s = np.empty(spec.n_steps), np.empty(spec.n_steps)
    for n in range(spec.n_steps):
        c *= phase
        a = v_d @ c
        p[n] = float(np.vdot(a, a).real)
        c -= a @ v_d
        s[n] = float(np.vdot(c, c).real)
    return DetectionRecord(p=p, survival=s)


def evolve_nonhermitian(spec: LatticeSpec, gamma: float) -> np.ndarray:
    """Survival ||psi(n tau)||^2 under H - i gamma sum_d |d><d|, n = 1..n_steps.

    Raises:
        ValidationError: if gamma is not positive.
    """
    if not gamma > 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    rows, energies = _modes(spec, [spec.initial_site, *sorted(spec.detector_sites)])
    c, v_d = rows[0].astype(complex), rows[1:]
    step = expm(-1j * spec.tau * (np.diag(energies) - 1j * gamma * (v_d.T @ v_d)))
    s = np.empty(spec.n_steps)
    for n in range(spec.n_steps):
        c = step @ c
        s[n] = float(np.vdot(c, c).real)
    return s


def calibrate_gamma(
    spec: LatticeSpec,
    window: tuple[int, int],
    gammas: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Pick the absorbing strength whose survival best matches the projective run.

    Minimizes the max relative deviation of the non-Hermitian survival from
    evolve_project's over the given step window (half-open, 0-based).

    Returns:
        (best gamma, max relative deviation over the window).
    """
    if gammas is None:
        # The effective absorption rate is non-monotonic in gamma (overdamping
        # at large gamma), so scan a broad log grid around 1/tau.
        gammas = np.geomspace(0.05, 50.0, 40) / spec.tau
    lo, hi = window
    ref = evolve_project(spec).survival[lo:hi]
    if np.any(ref <= 0):
        raise ValidationError("projective survival vanishes inside the window")

    devs = []
    for g in gammas:
        s = evolve_nonhermitian(spec, g)[lo:hi]
        devs.append(float(np.max(np.abs(s - ref) / ref)))
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
    one); continuous measurement (tau -> 0) freezes the evolution when the
    detector is off the initial site.
    """
    if any(t <= 0 for t in tau_list):
        raise ValidationError("all measurement intervals must be positive")

    out = []
    for tau in tau_list:
        run = replace(spec, tau=tau, n_steps=max(1, round(t_fixed / tau)))
        out.append((float(tau), float(evolve_project(run).survival[-1])))
    return out
