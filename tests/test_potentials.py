import math

import numpy as np
import pytest

from wavetime.errors import ValidationError
from wavetime.potentials import PotentialProfile, Segment, make_rectangular_barrier
from wavetime.timescales import full_report


def test_rectangular_barrier_layout():
    prof = make_rectangular_barrier(2.0, 1.5)
    assert prof.extent() == 1.5
    assert prof.edges() == [0.0, 1.5]
    assert prof.clock_region == (0, 0)
    assert prof.segments[0].v_real == 2.0
    assert prof.segments[0].v_imag == 0.0


@pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
def test_rectangular_barrier_rejects_bad_width(width):
    with pytest.raises(ValidationError):
        make_rectangular_barrier(1.0, width)


SEGMENT = {"length": 1.0, "v_real": 2.0, "v_imag": 0.1, "omega_larmor": 0.5}
# Not finite, not real, or a boolean; 10**400 overflows a float.
NOT_FINITE_REAL = [math.nan, math.inf, -math.inf, np.float64("nan"), True, np.True_,
                   "1.0", b"1", 1 + 0j, None, [1.0], 10**400]


@pytest.mark.parametrize("value", NOT_FINITE_REAL, ids=repr)
@pytest.mark.parametrize("field", list(SEGMENT))
def test_segment_refuses_a_bad_field(field, value):
    with pytest.raises(ValidationError, match=f"^{field}: must be a finite real number"):
        Segment(**{**SEGMENT, field: value})


@pytest.mark.parametrize("length", [0.0, -0.0, -1.0, -5e-324])
def test_segment_refuses_a_length_not_above_zero(length):
    with pytest.raises(ValidationError, match="^length: must be > 0"):
        Segment(length, 2.0)


def test_segment_stores_floats():
    seg = Segment(np.int64(2), np.float32(0.5), 1, np.float64(-3.0))
    assert seg == Segment(2.0, 0.5, 1.0, -3.0)
    assert all(type(getattr(seg, name)) is float for name in SEGMENT)


def test_good_profile_constructs():
    prof = PotentialProfile(
        segments=[Segment(1.0, 2.0), Segment(0.5, -1.0, v_imag=0.3)],
        clock_region=[0, 1],
        v_right=np.float64(0.5),
    )
    assert prof.segments == (Segment(1.0, 2.0), Segment(0.5, -1.0, v_imag=0.3))
    assert prof.clock_region == (0, 1)
    assert type(prof.v_right) is float


@pytest.mark.parametrize("value", NOT_FINITE_REAL, ids=repr)
@pytest.mark.parametrize("field", ["v_left", "v_right"])
def test_profile_refuses_a_bad_lead(field, value):
    with pytest.raises(ValidationError, match=f"^{field}: must be a finite real number"):
        PotentialProfile(segments=(Segment(1.0, 2.0),), **{field: value})


@pytest.mark.parametrize(
    "segments",
    [None, 3, (Segment(1.0, 2.0), (1.0, 2.0)), {"length": 1.0, "v_real": 2.0}, "ab"],
    ids=["none", "integer", "tuple-item", "mapping", "string"],
)
def test_profile_refuses_what_is_not_segments(segments):
    with pytest.raises(ValidationError, match="^segments: expected a sequence of Segments"):
        PotentialProfile(segments=segments)


@pytest.mark.parametrize(
    "region",
    [(0, 1), [0, 1], (np.int64(0), np.int64(1)), np.array([0, 1]), range(2),
     (np.int32(1), 1)],
    ids=["tuple", "list", "numpy-ints", "numpy-array", "range", "mixed"],
)
def test_integer_region_is_stored_as_a_tuple_of_ints(region):
    prof = PotentialProfile(segments=(Segment(1.0, 2.0), Segment(1.0, 1.0)), clock_region=region)
    lo, hi = region
    assert prof.clock_region == (lo, hi)
    assert type(prof.clock_region) is tuple
    assert all(type(i) is int for i in prof.clock_region)


@pytest.mark.parametrize(
    "region",
    [(True, False), (False, False), (np.True_, np.False_), (0.0, 1.0), (0, 1.0), [0], [0, 1, 2],
     "01", 3, np.array([0.0, 1.0]), ((0, 0), (1, 1))],
    ids=repr,
)
def test_region_that_is_not_an_integer_pair_is_refused(region):
    with pytest.raises(ValidationError, match=r"^clock_region: expected a \[first, last\] pair"):
        PotentialProfile(segments=(Segment(1.0, 2.0), Segment(1.0, 1.0)), clock_region=region)


@pytest.mark.parametrize("segments, region", [(2, (0, 2)), (2, (1, 0)), (2, (-1, 0)), (2, (0, -1)),
                                              (0, (0, 0))])
def test_out_of_range_region_is_refused(segments, region):
    with pytest.raises(ValidationError, match=r"^clock_region: \(.*\) out of range"):
        PotentialProfile(segments=(Segment(1.0, 2.0),) * segments, clock_region=region)


@pytest.mark.parametrize("channel", ["transmission", "reflection"])
def test_numpy_region_is_accepted_by_the_clocks(channel):
    segments = (Segment(0.5, 0.0), Segment(1.0, 3.0), Segment(0.5, 1.0))
    numpy_region = PotentialProfile(segments, clock_region=(np.int64(1), np.int64(1)))
    report = full_report(numpy_region, 2.0, channel)
    assert report.reasons == {}
    assert report == full_report(PotentialProfile(segments, clock_region=(1, 1)), 2.0, channel)


def test_edges_accumulate_lengths():
    prof = PotentialProfile(segments=(Segment(0.5, 0.0), Segment(0.25, 1.0), Segment(1.0, 0.0)))
    assert prof.edges() == pytest.approx([0.0, 0.5, 0.75, 1.75])
    assert prof.clock_indices() == ()
