"""An independent oracle for the scattering clocks.

The chain is a scalar transfer matrix in mpmath: plane-wave amplitudes (a, b)
of psi = a exp(ik(x - x0)) + b exp(-ik(x - x0)), referenced at each medium's
left edge, are matched across every interface (psi and psi' continuous) and
carried across every segment by diag(exp(ik'd), exp(-ik'd)), with k' the
propagation wavevector (the bare k unless a sojourn dressing moves it).  It
runs at 60 digits plus one per unit of sum |Im k| d, which covers the
cancellation of the growing and decaying waves in an opaque chain, and takes
every derivative as a central difference at h = 1e-20.  It imports no
wavetime kernel: only the clocks it checks come from wavetime.

The wavevector branch is the one the kernel documents (principal root where
Re k^2 >= 0, Im k >= 0 otherwise); only the sojourn's dressing depends on it.
"""
import math

import mpmath
import pytest

from wavetime.potentials import PotentialProfile, Segment
from wavetime.timescales import imag_clock_time, sojourn_transmission, wigner_delay

# 12-segment superlattice: barriers V=5, L=0.6 alternating with wells V=1,
# L=0.9; the clock region is the 4 middle segments.
LAYERS = [(0.6, 5.0) if i % 2 == 0 else (0.9, 1.0) for i in range(12)]
CLOCK = range(4, 8)
STACK = PotentialProfile(tuple(Segment(d, v) for d, v in LAYERS), clock_region=(4, 7))

H = mpmath.mpf("1e-20")


def _branch(k2):
    return mpmath.sqrt(k2) if k2.real >= 0 else 1j * mpmath.sqrt(-k2)


class Oracle:
    """t_local (the transmitted amplitude at the exit plane for a unit
    incident wave at x = 0) of a chain of (length, V) layers between zero
    leads, with an absorptive v_imag or a sojourn dressing xi on the clock
    segments.  interface scales k_prev at every interface and sign flips the
    dressing; both exist only to show that a wrong oracle fails."""

    def __init__(self, layers, clock, interface=1, sign=1):
        self.layers, self.clock = layers, list(clock)
        self.interface, self.sign = interface, sign

    def t_local(self, E, v_imag=0, xi=0, regime=None):
        E = mpmath.mpf(E)
        ks = [_branch(mpmath.mpc(E - v, v_imag if j in self.clock else 0))
              for j, (_, v) in enumerate(self.layers)]
        props = list(ks)
        if xi:
            L_act = sum(mpmath.mpf(self.layers[j][0]) for j in self.clock)
            for j in self.clock:
                root = mpmath.sqrt(abs(E - self.layers[j][1]))
                shift = self.sign * xi / (2 * root * L_act)
                props[j] = mpmath.mpc(root, shift) if regime == "propagating" else mpmath.mpc(shift, root)
        k_lead = mpmath.sqrt(E)
        T = mpmath.eye(2)
        k_prev = k_lead
        for (d, _), k, kp in zip(self.layers, ks, props):
            T = self._interface(k_prev, k) * T
            T = mpmath.diag([mpmath.exp(1j * kp * d), mpmath.exp(-1j * kp * d)]) * T
            k_prev = k
        T = self._interface(k_prev, k_lead) * T
        # a_R = t_local and b_R = 0 for a_L = 1, b_L = r.
        return (T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]) / T[1, 1]

    def _interface(self, k1, k2):
        k1 = k1 * self.interface
        return mpmath.matrix([[k2 + k1, k2 - k1], [k2 - k1, k2 + k1]]) / (2 * k2)

    def dps(self, E):
        opacity = sum(abs(_branch(mpmath.mpc(E - v)).imag) * d for d, v in self.layers)
        return 60 + int(math.ceil(opacity))

    def wigner(self, E):
        """d arg t_local / dE."""
        with mpmath.workdps(self.dps(E)):
            e = mpmath.mpf(E)
            return float(mpmath.arg(self.t_local(e + H) / self.t_local(e - H)) / (2 * H))

    def imag_clock(self, E):
        """-(1/2) d ln|t|^2 / dV_I at V_I = 0, V_I on the clock segments."""
        with mpmath.workdps(self.dps(E)):
            ratio = abs(self.t_local(E, v_imag=H)) / abs(self.t_local(E, v_imag=-H))
            return float(-mpmath.log(ratio) / (2 * H))

    def sojourn(self, E):
        """The transmission sojourn time over a clock region in one regime:
        -(L/2) d ln|t|^2 / dxi when propagating, L d arg t / dxi when
        evanescent."""
        regimes = {"propagating" if E > self.layers[j][1] else "evanescent" for j in self.clock}
        (regime,) = regimes
        L_act = sum(self.layers[j][0] for j in self.clock)
        with mpmath.workdps(self.dps(E)):
            up = self.t_local(E, xi=H, regime=regime)
            down = self.t_local(E, xi=-H, regime=regime)
            if regime == "propagating":
                return float(-(L_act / 2) * 2 * mpmath.log(abs(up) / abs(down)) / (2 * H))
            return float(L_act * mpmath.arg(up / down) / (2 * H))


ORACLE = Oracle(LAYERS, CLOCK)
CLOCKS = {
    "wigner": (wigner_delay, Oracle.wigner),
    "imag_clock": (imag_clock_time, Oracle.imag_clock),
    "sojourn": (sojourn_transmission, Oracle.sojourn),
}
# The probe ladder's known failures on the stack, each energy at full
# precision with the oracle's value: a Wigner point where the ladder is off
# by 1.3e-6 relative; the Wigner delay at 8.9, off by 2.5e-8 relative (a
# central difference of the kernel's own phase at h = 1e-5 agrees with the
# oracle to 4e-10); and a stack candidate just above the barrier top, where
# ln|T|^2 varies on a scale below the smallest sojourn probe, so the ladder
# reads 18.53 (a central difference of the kernel's dressed |T|^2 converges
# on the oracle's value as h falls from 1e-3 to 1e-7).
KNOWN_FAILURES = [
    ("wigner", 2.4478125, 4.106133962),
    ("wigner", 8.9, 2.901812003),
    ("sojourn", 5.0034374999999995, 465.2522057),
]
# (clock, E): the sojourn only where the clock region is in one regime, so
# not at 3.3, where the wells propagate and the barriers are evanescent.
SPOT_CHECKS = [(clock, E) for E in (0.7, 3.3, 6.1, 8.9) for clock in CLOCKS
               if not (clock == "sojourn" and E == 3.3)
               and (clock, E) not in [failure[:2] for failure in KNOWN_FAILURES]]


@pytest.mark.parametrize("clock, E", SPOT_CHECKS)
def test_clock_matches_the_oracle(clock, E):
    kernel, oracle = CLOCKS[clock]
    assert kernel(STACK, E) == pytest.approx(oracle(ORACLE, E), rel=1e-8)


@pytest.mark.parametrize("clock, E, truth", KNOWN_FAILURES)
def test_oracle_value_at_a_known_ladder_failure(clock, E, truth):
    assert CLOCKS[clock][1](ORACLE, E) == pytest.approx(truth, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="the Richardson probe ladder misreads these points "
                   "(ROADMAP item 3: exact derivatives through the chain)")
@pytest.mark.parametrize("clock, E, truth", KNOWN_FAILURES)
def test_ladder_matches_the_oracle_at_a_known_failure(clock, E, truth):
    kernel, oracle = CLOCKS[clock]
    assert kernel(STACK, E) == pytest.approx(oracle(ORACLE, E), rel=1e-8)


@pytest.mark.parametrize(
    "wrong, clock, E",
    [(Oracle(LAYERS, CLOCK, interface=1 + 1e-6), "wigner", 6.1),
     (Oracle(LAYERS, CLOCK, interface=1 + 1e-6), "imag_clock", 0.7),
     (Oracle(LAYERS, CLOCK, sign=-1), "sojourn", 0.7),
     (Oracle(LAYERS, CLOCK, sign=-1), "sojourn", 8.9)],
    ids=["interface-wigner", "interface-imag_clock", "dressing-evanescent", "dressing-propagating"],
)
def test_a_wrong_oracle_fails(wrong, clock, E):
    kernel, oracle = CLOCKS[clock]
    assert kernel(STACK, E) != pytest.approx(oracle(wrong, E), rel=1e-8)
