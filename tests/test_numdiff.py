"""Numerical differentiation in timescales: the probe ladder, its fixed
Richardson stencil and its phase unwrapping."""
import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavetime import timescales
from wavetime.errors import DerivativeError, LogSingularityError, StepSizeError
from wavetime.potentials import make_rectangular_barrier
from wavetime.timescales import full_report, richardson


def ladder_values(f, h, centre=False):
    """f over the ladder offsets [-h, -h/2, -h/4, (0,) h/4, h/2, h]."""
    hs = [h, 0.5 * h, 0.25 * h]
    return [f(s) for s in [-s for s in hs] + ([0.0] if centre else []) + hs[::-1]]


def phase_derivative(amplitude, scale):
    """d arg a(s)/ds at s = 0 as the phase clocks take it: the centred ladder,
    its unwrapped phases and the stencil."""
    h, amps = timescales._ladder(amplitude, scale, centre=True)
    return richardson(timescales._reduce(amps, "phase", "amplitude"), h)


@pytest.mark.parametrize("centre", [False, True])
def test_ladder_probes_in_offset_order(centre):
    probed = []
    h, values = timescales._ladder(lambda s: probed.append(s) or 2.0 * s, 0.5, centre)
    assert h == timescales._PROBE_STEP * 0.5
    assert probed == ladder_values(lambda s: s, h, centre)
    assert values == [2.0 * s for s in probed]


def test_polynomial_derivative_is_exact():
    # The stencil cancels the h^2 and h^4 error terms, so it is exact on any
    # odd quintic (up to rounding), with or without the centre probe.
    def f(s):
        return 1.5 + 2.0 * s - 7.0 * s**3 + 40.0 * s**5

    for centre in (False, True):
        assert richardson(ladder_values(f, 0.3, centre), 0.3) == pytest.approx(2.0, rel=1e-13)


def test_richardson_beats_raw_differences():
    h = 1e-1
    raw = (math.sin(h) - math.sin(-h)) / (2.0 * h)
    value = richardson(ladder_values(math.sin, h), h)
    assert abs(value - 1.0) < abs(raw - 1.0) * 1e-5


def test_non_finite_value_raises():
    with pytest.raises(DerivativeError):
        richardson(ladder_values(lambda s: math.inf if s > 0 else 0.0, 1e-2), 1e-2)


def test_unwrapped_phases_cross_branch_cut():
    # arg a(s) = pi - 0.01 + 3 s runs through the branch cut at pi on the ladder.
    def amplitude(s):
        return cmath.exp(1j * (math.pi - 0.01 + 3.0 * s))

    value = phase_derivative(amplitude, 1.0)
    assert value == pytest.approx(3.0, rel=1e-10)


def test_undersampled_phase_raises():
    # 500 s moves the phase by 2.5 rad between the probes at -h and -h/2.
    def amplitude(s):
        return cmath.exp(500j * s)

    with pytest.raises(StepSizeError, match="undersamples"):
        phase_derivative(amplitude, 1.0)


# Amplitudes on the real axis, with both signs of zero: their atan2 arguments
# are 0, -0, pi and -pi exactly, so neighbours among them differ by exactly
# 0, +-pi or +-2 pi.
AXIS = [complex(x, y) for x in (1.0, -1.0) for y in (0.0, -0.0)]
AMPLITUDES = st.one_of(
    st.sampled_from(AXIS),
    st.builds(cmath.rect, st.floats(1e-100, 1e100), st.floats(-4.0, 4.0)),
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).filter(
        lambda a: abs(a) >= timescales._PHASE_FLOOR),
)


def numpy_unwrap(amps):
    return np.unwrap([math.atan2(a.imag, a.real) for a in amps])


class TestPhaseUnwrap:
    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(st.lists(AMPLITUDES, min_size=6, max_size=7))
    @example([1.0, -1.0] * 3)
    @example(AXIS + AXIS[::-1][:3])
    @example([complex(-1.0, 0.0), complex(-1.0, -0.0)] * 3 + [complex(-1.0, 0.0)])
    # An infinite part with a NaN part passes the floor, and its phase is NaN:
    # numpy refuses no jump then, not even the pi before it.
    @example([1.0, -1.0, complex(math.inf, math.nan), 3.0, -1.0, 1j])
    def test_phases_are_numpy_unwrap_to_the_bit(self, amps):
        # With the jump test lifted, every ladder's phases are numpy's, signed
        # zeros included, as Python floats; with it, the ladder is refused
        # exactly where numpy's unwrapped phases jump by more than pi/2.
        expected = [float(x).hex() for x in numpy_unwrap(amps)]
        with mock.patch.object(timescales, "_MAX_PHASE_JUMP", math.inf):
            phases = timescales._reduce(amps, "phase", "amplitude")
        assert all(type(x) is float for x in phases)
        assert [x.hex() for x in phases] == expected
        if np.max(np.abs(np.diff(numpy_unwrap(amps)))) > timescales._MAX_PHASE_JUMP:
            with pytest.raises(StepSizeError, match="undersamples"):
                timescales._reduce(amps, "phase", "amplitude")
        else:
            assert [x.hex() for x in timescales._reduce(amps, "phase", "amplitude")] == expected

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.nan), 1e-151, 0.0])
    @pytest.mark.parametrize("kind", ["phase", "log"])
    def test_undefined_or_vanishing_amplitude_raises(self, bad, kind):
        amps = [cmath.rect(1.0, 0.1 * i) for i in range(7)]
        amps[3] = bad
        with pytest.raises(LogSingularityError, match="singular"):
            timescales._reduce(amps, kind, "amplitude")


@pytest.mark.parametrize("channel", ["transmission", "reflection"])
def test_full_report_takes_one_stencil_per_derivative(monkeypatch, channel):
    # wigner 1 + larmor_y 1 + larmor_z 1 + imag_clock 1 + sojourn 1
    calls = []
    original = timescales.richardson

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(timescales, "richardson", counted)
    rep = full_report(make_rectangular_barrier(4.0, 1.0), 2.0, channel=channel)
    assert rep.reasons == {}
    assert len(calls) == 5
