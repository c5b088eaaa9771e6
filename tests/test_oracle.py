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
from dataclasses import replace

import mpmath
import pytest

from wavetime.potentials import PotentialProfile, Segment
from wavetime.timescales import imag_clock_time, larmor_times, sojourn_transmission, wigner_delay

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
    leads.  Each segment's k^2 = E - V may be moved by its own complex offset
    (i v_imag, or spin omega_larmor / 2 in a Zeeman channel), the clock
    segments' k^2 by one complex shift (i V_I for the imaginary clock,
    spin omega / 2 for the Larmor clock), and their propagation by a sojourn
    dressing xi.  interface scales k_prev at every interface and sign flips
    the dressing; both exist only to show that a wrong oracle fails."""

    def __init__(self, layers, clock, interface=1, sign=1):
        self.layers, self.clock = layers, list(clock)
        self.interface, self.sign = interface, sign

    def t_local(self, E, shift=0, xi=0, regime=None, offsets=None):
        E = mpmath.mpf(E)
        offsets = offsets or {}
        ks = [_branch(E - v + offsets.get(j, 0) + (shift if j in self.clock else 0))
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

    def imag_clock(self, E, v_imag=0):
        """-(1/2) d ln|t|^2 / dV_I at the clock segments' own V_I = v_imag."""
        own = {j: 1j * mpmath.mpf(v_imag) for j in self.clock}
        with mpmath.workdps(self.dps(E)):
            up, down = (abs(self.t_local(E, shift=1j * h, offsets=own)) for h in (H, -H))
            return float(-mpmath.log(up / down) / (2 * H))

    def larmor(self, E, fields=None):
        """(tau_y, tau_z) = (2 |d<S_y>/d omega|, 2 d<S_z>/d omega) of the
        transmitted spinor (t of spin +1, t of spin -1), omega added to the
        clock segments' own fields; fields maps a segment to its omega_larmor."""

        def spin(omega):
            up, down = (self.t_local(E, shift=s * omega / 2,
                                     offsets={j: s * mpmath.mpf(w) / 2 for j, w in (fields or {}).items()})
                        for s in (1, -1))
            norm = abs(up) ** 2 + abs(down) ** 2
            return mpmath.im(mpmath.conj(up) * down) / norm, (abs(up) ** 2 - abs(down) ** 2) / (2 * norm)

        with mpmath.workdps(self.dps(E)):
            (y_up, z_up), (y_down, z_down) = spin(H), spin(-H)
            return float(abs(y_up - y_down) / H), float((z_up - z_down) / H)

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
FIELD = 0.2  # the omega_larmor of a Zeeman segment


def stack_with(segments, **fields):
    """STACK with fields (v_imag=, omega_larmor=) set on the given segments."""
    return replace(STACK, segments=tuple(
        replace(seg, **fields) if j in segments else seg for j, seg in enumerate(STACK.segments)
    ))


def larmor(part, field_segment=None):
    """tau_y (part 0) or tau_z (part 1) of the kernel and of the oracle, with
    a Zeeman field FIELD on field_segment."""
    fields = {} if field_segment is None else {field_segment: FIELD}
    profile = stack_with(fields, omega_larmor=FIELD)
    return lambda E: larmor_times(profile, E)[part], lambda oracle, E: oracle.larmor(E, fields)[part]


def absorbing_imag_clock(v_imag):
    """The imaginary clock of the kernel and of the oracle on a clock region
    of its own V_I = v_imag."""
    profile = stack_with(CLOCK, v_imag=v_imag)
    return lambda E: imag_clock_time(profile, E), lambda oracle, E: oracle.imag_clock(E, v_imag)


# name: (kernel time at E, oracle time of an Oracle at E).
CLOCKS = {
    "wigner": (lambda E: wigner_delay(STACK, E), Oracle.wigner),
    "imag_clock": (lambda E: imag_clock_time(STACK, E), Oracle.imag_clock),
    "sojourn": (lambda E: sojourn_transmission(STACK, E), Oracle.sojourn),
    "larmor_y": larmor(0),
    "larmor_z": larmor(1),
    # A Zeeman field outside the clock region, and on a clock segment.
    "larmor_y field 1": larmor(0, 1),
    "larmor_z field 1": larmor(1, 1),
    "larmor_y field 5": larmor(0, 5),
    "larmor_z field 5": larmor(1, 5),
    # An absorbing and an amplifying clock region.
    "imag_clock V_I=0.3": absorbing_imag_clock(0.3),
    "imag_clock V_I=-0.3": absorbing_imag_clock(-0.3),
}
# The probe ladder's known failures on the stack, each energy at full
# precision with the oracle's value: a Wigner point where the ladder is off
# by 1.3e-6 relative; the Wigner delay at 8.9, off by 2.5e-8 relative (a
# central difference of the kernel's own phase at h = 1e-5 agrees with the
# oracle to 4e-10); a stack candidate just above the barrier top, where
# ln|T|^2 varies on a scale below the smallest sojourn probe, so the ladder
# reads 18.53 (a central difference of the kernel's dressed |T|^2 converges
# on the oracle's value as h falls from 1e-3 to 1e-7); a resonance
# candidate, where the imaginary clock reads 5.8e-5 high, larmor_y 7.3e-6
# low and larmor_z 4.7e-6 low; and the imaginary clock on the amplifying
# region at 8.9, 2.8e-8 high.
KNOWN_FAILURES = [
    ("wigner", 2.4478125, 4.106133962),
    ("wigner", 8.9, 2.901812003),
    ("sojourn", 5.0034374999999995, 465.2522057),
    ("imag_clock", 2.5456874999999997, 21.79584047),
    ("larmor_y", 2.5456874999999997, 21.79584047),
    ("larmor_z", 2.5456874999999997, 3.959585323),
    ("imag_clock V_I=-0.3", 8.9, 1.875636488),
]
# (clock, E): the sojourn only where the clock region is in one regime, so
# not at 3.3, where the wells propagate and the barriers are evanescent.
SPOT_CHECKS = [(clock, E) for E in (0.7, 3.3, 6.1, 8.9) for clock in CLOCKS
               if not (clock == "sojourn" and E == 3.3)
               and (clock, E) not in [failure[:2] for failure in KNOWN_FAILURES]]


@pytest.mark.parametrize("clock, E", SPOT_CHECKS)
def test_clock_matches_the_oracle(clock, E):
    kernel, oracle = CLOCKS[clock]
    assert kernel(E) == pytest.approx(oracle(ORACLE, E), rel=1e-8)


@pytest.mark.parametrize("clock, E, truth", KNOWN_FAILURES)
def test_oracle_value_at_a_known_ladder_failure(clock, E, truth):
    assert CLOCKS[clock][1](ORACLE, E) == pytest.approx(truth, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="the Richardson probe ladder misreads these points "
                   "(ROADMAP item 3: exact derivatives through the chain)")
@pytest.mark.parametrize("clock, E, truth", KNOWN_FAILURES)
def test_ladder_matches_the_oracle_at_a_known_failure(clock, E, truth):
    kernel, oracle = CLOCKS[clock]
    assert kernel(E) == pytest.approx(oracle(ORACLE, E), rel=1e-8)


@pytest.mark.parametrize(
    "wrong, clock, E",
    [(Oracle(LAYERS, CLOCK, interface=1 + 1e-6), "wigner", 6.1),
     (Oracle(LAYERS, CLOCK, interface=1 + 1e-6), "imag_clock", 0.7),
     (Oracle(LAYERS, CLOCK, interface=1 + 1e-6), "larmor_y field 5", 3.3),
     (Oracle(LAYERS, CLOCK, sign=-1), "sojourn", 0.7),
     (Oracle(LAYERS, CLOCK, sign=-1), "sojourn", 8.9)],
    ids=["interface-wigner", "interface-imag_clock", "interface-larmor_y", "dressing-evanescent",
         "dressing-propagating"],
)
def test_a_wrong_oracle_fails(wrong, clock, E):
    kernel, oracle = CLOCKS[clock]
    assert kernel(E) != pytest.approx(oracle(wrong, E), rel=1e-8)
