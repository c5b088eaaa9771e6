import math

import pytest

from wavetime.errors import ValidationError
from wavetime.potentials import PotentialProfile, Segment, make_rectangular_barrier, validate


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


def test_validate_is_total_and_catches_everything():
    bad = PotentialProfile(
        segments=(
            Segment(length=-1.0, v_real=math.nan),
            Segment(length=1.0, v_real=0.0, v_imag=math.inf),
        ),
        clock_region=(0, 5),
        v_left=math.nan,
    )
    problems = validate(bad)
    assert len(problems) == 5
    assert any("length" in p for p in problems)
    assert any("clock_region" in p for p in problems)
    assert any("left" in p for p in problems)


def test_validate_accepts_good_profile():
    prof = PotentialProfile(
        segments=(Segment(1.0, 2.0), Segment(0.5, -1.0, v_imag=0.3)),
        clock_region=(0, 1),
        v_right=0.5,
    )
    assert validate(prof) == []


def test_edges_accumulate_lengths():
    prof = PotentialProfile(segments=(Segment(0.5, 0.0), Segment(0.25, 1.0), Segment(1.0, 0.0)))
    assert prof.edges() == pytest.approx([0.0, 0.5, 0.75, 1.75])
    assert prof.clock_indices() == ()
