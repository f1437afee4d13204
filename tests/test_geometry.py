import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdesign.geometry import (
    DegeneratePointError,
    RegionSpec,
    in_region_H,
    joukowski_radius,
    segment_distance,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

FIG7 = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                   / "fig7_regions.json").read_text())["region"]
FIG7_SPEC = RegionSpec(z0=complex(*FIG7["z0"]), r=FIG7["r"])
# fig7's region, one on each side of the segment and one around a point above it
SPECS = [FIG7_SPEC, RegionSpec(z0=2.5 + 0.5j, r=0.9), RegionSpec(z0=-1.5 - 0.2j, r=0.5),
         RegionSpec(z0=0.2 + 0.3j, r=0.25)]


def three_branch_H(z, spec: RegionSpec) -> np.ndarray:
    """H1 u H2 u H3 branch by branch: |z - z0| <= r |z + 1| for Re z <= -1,
    r |Im z| for |Re z| <= 1 and r |z - 1| for Re z >= 1."""
    z = np.asarray(z, dtype=complex)
    d = np.abs(z - spec.z0)
    x = z.real
    return (((x <= -1.0) & (d <= spec.r * np.abs(z + 1.0)))
            | ((-1.0 <= x) & (x <= 1.0) & (d <= spec.r * np.abs(z.imag)))
            | ((x >= 1.0) & (d <= spec.r * np.abs(z - 1.0))))


def branchy_distance(z: complex) -> float:
    """Per-point reference: |Im z| above the segment, else the distance to the
    nearer endpoint."""
    if -1.0 <= z.real <= 1.0:
        return abs(z.imag)
    return abs(z - (1.0 if z.real > 1.0 else -1.0))


class TestSegmentDistance:
    def test_above_interior(self):
        assert segment_distance(0.5 + 1j) == pytest.approx(1.0)

    def test_right_of_endpoint(self):
        assert segment_distance(2.0) == pytest.approx(1.0)

    def test_corner_case(self):
        assert segment_distance(2.0 + 1j) == pytest.approx(np.sqrt(2.0))
        assert type(segment_distance(2.0 + 1j)) is float

    def test_left_of_endpoint(self):
        assert segment_distance(-3.0 - 4j) == pytest.approx(np.sqrt(20.0))

    def test_on_segment(self):
        assert segment_distance(0.25) == 0.0

    @given(x=finite, y=finite)
    @settings(max_examples=200)
    def test_matches_brute_force_min(self, x, y):
        z = complex(x, y)
        lam = np.linspace(-1.0, 1.0, 20001)
        brute = np.min(np.abs(lam - z))
        assert segment_distance(z) <= brute + 1e-12
        assert segment_distance(z) >= brute - 1e-4

    @given(points=st.lists(st.tuples(finite, finite), min_size=1, max_size=24))
    @settings(max_examples=200)
    def test_array_call_matches_per_point_formula(self, points):
        # Re z inside and outside [-1,1], on the real axis and at the endpoints
        z = np.array([complex(x, y) for x, y in points] + [1.0, -1.0, 2.5, -3.0, 0.3 + 0.7j])
        want = np.array([branchy_distance(complex(v)) for v in z])
        assert np.array_equal(segment_distance(z), want)
        assert np.array_equal(segment_distance(z.reshape(1, -1)), want.reshape(1, -1))
        assert [segment_distance(v) for v in z] == want.tolist()

    @given(x=finite, y=finite)
    @settings(max_examples=200)
    def test_conjugation_symmetry(self, x, y):
        assert segment_distance(complex(x, y)) == pytest.approx(
            segment_distance(complex(x, -y)))


class TestJoukowski:
    def test_real_point(self):
        # z0 = 1.25 maps back to zeta0 = 2 via (2 + 1/2)/2
        assert joukowski_radius(1.25) == pytest.approx(2.0)

    def test_imaginary_point(self):
        # z0 = 0.75i: zeta0 = (0.75 + 1.25)i = 2i
        assert joukowski_radius(0.75j) == pytest.approx(2.0)

    def test_segment_point_rejected(self):
        with pytest.raises(DegeneratePointError):
            joukowski_radius(0.3)

    @pytest.mark.parametrize("zeta", [3.0, -3.0, 1.5j, -1.5j, 2.0 * np.exp(1j * np.pi / 3),
                                      1.25 * np.exp(-2j), 1.01 * np.exp(2.5j)],
                             ids=["right", "left", "above", "below", "first_quadrant",
                                  "third_quadrant", "near_segment"])
    def test_radius_of_a_joukowski_image(self, zeta):
        # z0 = (zeta + 1/zeta)/2 has the reciprocal preimages zeta and 1/zeta,
        # in every quadrant and on either side of the segment
        z0 = (zeta + 1.0 / zeta) / 2.0
        assert joukowski_radius(z0) == pytest.approx(abs(zeta), rel=1e-9)

    @given(x=finite, y=finite)
    @settings(max_examples=200)
    def test_radius_is_symmetric_about_both_axes(self, x, y):
        # so are the Bernstein ellipses: no branch cut shows
        z0 = complex(x, y)
        if segment_distance(z0) <= 1e-6:
            return
        big_r = joukowski_radius(z0)
        for w in (-z0, z0.conjugate(), -z0.conjugate()):
            assert joukowski_radius(w) == pytest.approx(big_r, rel=1e-12)

    @given(x=finite, y=finite)
    @settings(max_examples=200)
    def test_preimage_round_trip(self, x, y):
        # z0 lies on the Bernstein ellipse of radius R, whose foci are -1 and
        # 1 and whose major axis is R + 1/R
        z0 = complex(x, y)
        if segment_distance(z0) <= 1e-6:
            return
        big_r = joukowski_radius(z0)
        assert big_r > 1.0
        assert abs(z0 - 1.0) + abs(z0 + 1.0) == pytest.approx(big_r + 1.0 / big_r, rel=1e-9)

    @given(x=finite, y=finite)
    @settings(max_examples=200)
    def test_radius_exceeds_one(self, x, y):
        z0 = complex(x, y)
        if segment_distance(z0) <= 1e-6:
            return
        assert joukowski_radius(z0) > 1.0

    @given(x=finite, y=finite)
    @settings(max_examples=200)
    def test_distance_lower_bound_from_radius(self, x, y):
        # d(z0) >= (R-1)^2 / (2R): the segment is inside the Bernstein
        # ellipse of radius 1, z0 sits on the one of radius R
        z0 = complex(x, y)
        if segment_distance(z0) <= 1e-6:
            return
        big_r = joukowski_radius(z0)
        bound = (big_r - 1.0) ** 2 / (2.0 * big_r)
        # equality holds for real z0 outside the segment, hence the slack
        assert segment_distance(z0) >= bound * (1.0 - 1e-9) - 1e-12


class TestRegionH:
    def test_z0_always_inside(self):
        spec = RegionSpec(z0=2.5 + 0.5j, r=1.0)
        assert in_region_H(2.5 + 0.5j, spec)

    def test_far_point_outside(self):
        spec = RegionSpec(z0=2.5 + 0.5j, r=0.5)
        assert not in_region_H(-5.0 + 0.01j, spec)

    def test_right_branch_membership(self):
        spec = RegionSpec(z0=2.5, r=0.9)
        # |z - z0| = 0.5 <= 0.9 * |z - 1| = 0.9
        assert in_region_H(2.0, spec)
        # |z - z0| = 1.3 > 0.9 * |z - 1| = 0.18
        assert not in_region_H(1.2, spec)

    def test_boundary_counts_as_inside(self):
        spec = RegionSpec(z0=3.0, r=0.5)
        # at z = 7/3: |z - 3| = 2/3 = 0.5 * |z - 1|
        assert in_region_H(7.0 / 3.0, spec)

    def test_r_must_stay_below_radius(self):
        with pytest.raises(ValueError):
            RegionSpec(z0=1.25, r=2.0)

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RegionSpec(z0=1.25, r=0.0)

    def test_degenerate_z0_rejected(self):
        with pytest.raises(DegeneratePointError):
            RegionSpec(z0=0.5, r=0.5)

    def test_fig7_grid_matches_three_branches(self):
        # the mesh the region command scans
        half_width = 3.0 + abs(FIG7_SPEC.z0)
        axis = np.linspace(-half_width, half_width, FIG7["samples"])
        z = axis[:, None] + 1j * axis[None, :]
        assert np.array_equal(in_region_H(z, FIG7_SPEC), three_branch_H(z, FIG7_SPEC))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_segment_ends_and_real_axis_match_three_branches(self, spec):
        y = np.concatenate([np.linspace(-4.0, 4.0, 2001), [5e-324, -5e-324, 1e-300, -0.0]])
        ends = np.array([-1.0, 1.0, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0),
                         np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)])
        axis = np.concatenate([np.linspace(-6.0, 6.0, 4001), ends]).astype(complex)
        # the real axis with Im z = +0.0 and, through conj, -0.0
        for z in (ends[:, None] + 1j * y[None, :], axis, np.conj(axis)):
            assert np.array_equal(in_region_H(z, spec), three_branch_H(z, spec))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_random_points_match_three_branches(self, spec):
        rng = np.random.default_rng(20260825)
        z = rng.uniform(-6.0, 6.0, 10 ** 5) + 1j * rng.uniform(-6.0, 6.0, 10 ** 5)
        inside = in_region_H(z, spec)
        assert np.array_equal(inside, three_branch_H(z, spec))
        assert 0 < inside.sum() < inside.size

    @pytest.mark.parametrize("z", [2.5 + 0.5j, -5.0 + 0.01j, 2.0, 1.2, -1.0, 0.3 + 0.7j, 1])
    def test_scalar_gives_bool(self, z):
        spec = RegionSpec(z0=2.5 + 0.5j, r=0.9)
        got = in_region_H(z, spec)
        assert type(got) is bool and got == bool(three_branch_H(z, spec))

    @given(x=finite, y=finite, x0=finite, y0=finite,
           r1=st.floats(min_value=0.05, max_value=0.95),
           r2=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=300)
    def test_monotone_in_r(self, x, y, x0, y0, r1, r2):
        z0 = complex(x0, y0)
        if segment_distance(z0) <= 1e-6:
            return
        lo, hi = sorted((r1, r2))
        big_r = joukowski_radius(z0)
        if hi >= big_r:
            return
        z = complex(x, y)
        if in_region_H(z, RegionSpec(z0=z0, r=lo)):
            assert in_region_H(z, RegionSpec(z0=z0, r=hi))
