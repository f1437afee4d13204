import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdesign.design import PoleSet, design_unit
from markovdesign.measure import (
    DiscreteMeasure,
    MeasureError,
    markov_eval,
    moments,
    random_measure_with_moments,
    worst_case_point_mass,
)

atom_lists = st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                      min_size=1, max_size=6)


def normalized_measure(atoms, raw_weights):
    w = np.asarray(raw_weights, dtype=float)
    w = w / w.sum()
    return DiscreteMeasure(atoms=tuple(atoms), weights=tuple(w))


class TestDiscreteMeasure:
    def test_point_mass(self):
        mu = DiscreteMeasure.point_mass(0.5)
        assert mu.atoms == (0.5,)
        assert mu.weights == (1.0,)

    def test_canonical_sorting(self):
        mu = DiscreteMeasure(atoms=(0.5, -0.5), weights=(0.9, 0.1))
        assert mu.atoms == (-0.5, 0.5)
        assert mu.weights == (0.1, 0.9)

    def test_duplicate_atoms_merged(self):
        mu = DiscreteMeasure(atoms=(0.5, 0.5, -0.5), weights=(0.3, 0.3, 0.4))
        assert mu.atoms == (-0.5, 0.5)
        assert mu.weights == pytest.approx((0.4, 0.6))

    def test_mismatched_atoms_and_weights_rejected(self):
        with pytest.raises(MeasureError, match="matched"):
            DiscreteMeasure(atoms=(0.0, 0.5), weights=(1.0,))

    def test_mass_must_be_one(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure(atoms=(0.0,), weights=(0.5,))

    def test_negative_weight_rejected(self):
        for weights in ((1.5, -0.5), (float("nan"), 0.5)):
            with pytest.raises(MeasureError):
                DiscreteMeasure(atoms=(0.0, 0.5), weights=weights)

    def test_atom_outside_interval_rejected(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure(atoms=(1.5,), weights=(1.0,))
        with pytest.raises(MeasureError):
            DiscreteMeasure(atoms=(float("nan"), 0.5), weights=(0.5, 0.5))

    @given(atoms=atom_lists, data=st.data())
    @settings(max_examples=200)
    def test_canonical_form_invariants(self, atoms, data):
        raw = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                 min_size=len(atoms), max_size=len(atoms)))
        mu = normalized_measure(atoms, raw)
        arr = mu.atom_array
        assert np.all(np.diff(arr) > 0) or arr.size == 1
        assert mu.weight_array.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mu.weight_array >= 0)


class TestMarkovEval:
    def test_point_mass_resolvent(self):
        mu = DiscreteMeasure.point_mass(0.5)
        z = 2.0 + 1j
        assert markov_eval(mu, z) == pytest.approx(1.0 / (0.5 - z))

    def test_two_atom_mixture(self):
        mu = DiscreteMeasure(atoms=(-0.5, 0.5), weights=(0.25, 0.75))
        z = 3.0
        want = 0.25 / (-0.5 - 3.0) + 0.75 / (0.5 - 3.0)
        assert markov_eval(mu, z) == pytest.approx(want)

    def test_segment_point_rejected(self):
        mu = DiscreteMeasure.point_mass(0.0)
        with pytest.raises(MeasureError):
            markov_eval(mu, 0.5)
        with pytest.raises(MeasureError):
            markov_eval(mu, np.array([2.0 + 1j, 0.5]))

    @given(atoms=atom_lists, data=st.data())
    @settings(max_examples=100)
    def test_array_call_matches_per_point(self, atoms, data):
        raw = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                 min_size=len(atoms), max_size=len(atoms)))
        mu = normalized_measure(atoms, raw)
        points = data.draw(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 3.0),
                                              st.booleans()), min_size=1, max_size=12))
        # Re z inside and outside [-1,1], plus real points beyond the endpoints
        z = np.array([complex(x, y if up else -y) for x, y, up in points] + [2.0, -3.5])
        want = np.array([complex(np.sum(mu.weight_array / (mu.atom_array - v))) for v in z])
        assert np.array_equal(markov_eval(mu, z), want)
        assert [markov_eval(mu, v) for v in z] == want.tolist()
        assert type(markov_eval(mu, z[0])) is complex

    def test_herglotz_sign(self):
        # Im F and Im z share a sign for positive measures
        mu = DiscreteMeasure(atoms=(-0.3, 0.1, 0.8), weights=(0.2, 0.5, 0.3))
        for z in (1j, 2.0 + 0.5j, -1.5 + 3j):
            assert markov_eval(mu, z).imag > 0
            assert markov_eval(mu, np.conj(z)).imag < 0


class TestMoments:
    def test_point_mass_moments(self):
        mu = DiscreteMeasure.point_mass(0.5)
        assert moments(mu, 3) == pytest.approx([1.0, 0.5, 0.25, 0.125])

    def test_symmetric_measure_odd_moments_vanish(self):
        mu = DiscreteMeasure(atoms=(-0.7, 0.7), weights=(0.5, 0.5))
        got = moments(mu, 3)
        assert got[1] == pytest.approx(0.0, abs=1e-15)
        assert got[3] == pytest.approx(0.0, abs=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            moments(DiscreteMeasure.point_mass(0.5), -1)

    @given(atoms=atom_lists, data=st.data())
    @settings(max_examples=100)
    def test_moment_inequalities(self, atoms, data):
        raw = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                 min_size=len(atoms), max_size=len(atoms)))
        mu = normalized_measure(atoms, raw)
        m = moments(mu, 2)
        assert m[0] == pytest.approx(1.0, abs=1e-12)
        assert -1.0 - 1e-12 <= m[1] <= 1.0 + 1e-12
        assert m[1] ** 2 - 1e-12 <= m[2] <= 1.0 + 1e-12


class TestWorstCasePointMass:
    def test_matches_certified_interval(self):
        design = design_unit(PoleSet(points=(2.5 + 0.5j, 3.0 - 0.5j)))
        lam_star, value = worst_case_point_mass(design)
        assert -1.0 <= lam_star <= 1.0
        assert value <= design.epsilon + 1e-9
        # the point mass at lam_star realizes the deviation
        mu = DiscreteMeasure.point_mass(lam_star)
        combo = sum(a * markov_eval(mu, z)
                    for a, z in zip(design.alphas, design.poles.points))
        assert abs(combo - 1.0) == pytest.approx(value, abs=1e-12)

    def test_dominates_random_measures(self):
        design = design_unit(PoleSet(points=(2.5 + 0.5j, 3.0 - 0.5j)))
        _, value = worst_case_point_mass(design)
        rng = np.random.default_rng(9)
        for _ in range(200):
            atoms = rng.uniform(-1, 1, 4)
            w = rng.uniform(0.05, 1.0, 4)
            mu = normalized_measure(atoms, w)
            combo = sum(a * markov_eval(mu, z)
                        for a, z in zip(design.alphas, design.poles.points))
            assert abs(combo - 1.0) <= value + 1e-9


class TestRandomMeasureWithMoments:
    def test_hits_prescribed_first_moment(self):
        for seed in range(20):
            mu = random_measure_with_moments(0.4, 4, seed)
            got = moments(mu, 1)
            assert got[1] == pytest.approx(0.4, abs=1e-10)

    def test_deterministic_in_seed(self):
        a = random_measure_with_moments(-0.2, 5, 123)
        b = random_measure_with_moments(-0.2, 5, 123)
        assert a == b

    def test_prescribed_atoms(self):
        mu = random_measure_with_moments(0.1, 3, 7, atoms=(-0.8, 0.0, 0.9))
        assert mu.atoms == (-0.8, 0.0, 0.9)
        assert moments(mu, 1)[1] == pytest.approx(0.1, abs=1e-10)

    @given(m1=st.floats(-0.99, 0.99), atom_count=st.integers(2, 8),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=300)
    def test_every_first_moment_reached(self, m1, atom_count, seed, data):
        atoms = None
        if data.draw(st.booleans(), label="prescribed"):
            below = data.draw(st.lists(st.floats(-1.0, m1, exclude_max=True),
                                       min_size=1, max_size=atom_count - 1))
            size = atom_count - len(below)
            above = data.draw(st.lists(st.floats(m1, 1.0, exclude_min=True),
                                       min_size=size, max_size=size))
            atoms = tuple(data.draw(st.permutations(below + above)))
        mu = random_measure_with_moments(m1, atom_count, seed, atoms=atoms)
        w = mu.weight_array
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(moments(mu, 1)[1] - m1) <= 1e-12

    @pytest.mark.parametrize("m1", [0.89, 0.85, -0.79])
    def test_prescribed_atoms_near_their_hull(self, m1):
        for seed in range(50):
            mu = random_measure_with_moments(m1, 3, seed, atoms=(-0.8, 0.0, 0.9))
            assert moments(mu, 1)[1] == pytest.approx(m1, abs=1e-12)

    def test_unreachable_moment_rejected(self):
        with pytest.raises(MeasureError):
            random_measure_with_moments(0.9, 2, 0, atoms=(-0.5, 0.5))

    def test_single_atom_rejected(self):
        with pytest.raises(MeasureError, match="2 atoms"):
            random_measure_with_moments(0.1, 1, 0)

    def test_moment_outside_open_interval_rejected(self):
        with pytest.raises(MeasureError):
            random_measure_with_moments(1.0, 4, 0)
