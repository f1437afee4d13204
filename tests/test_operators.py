import json

import numpy as np
import pytest

from markovdesign.design import PoleSet, design_frequency_target, design_moments, design_unit
from markovdesign.measure import DiscreteMeasure, markov_eval
from markovdesign import cli
from markovdesign.operators import (
    SWEEP_CHUNK,
    HermitianOperator,
    OperatorError,
    operator_sweep,
    random_hermitian_in_spectrum,
    resolvent_combination,
    verify_operator_bound,
)

POLES = PoleSet(points=(2.5 + 0.5j, 3.0 - 0.5j, 2.0 + 1.0j))


class TestHermitianOperator:
    def test_valid_matrix(self):
        a = HermitianOperator(entries=((0.5, 0.0), (0.0, -0.5)))
        assert a.dim == 2
        assert np.allclose(a.eigenvalues(), [-0.5, 0.5])

    def test_non_hermitian_rejected(self):
        with pytest.raises(OperatorError):
            HermitianOperator(entries=((0.0, 1.0), (0.0, 0.0)))

    def test_spectrum_outside_interval_rejected(self):
        with pytest.raises(OperatorError):
            HermitianOperator(entries=((2.0,),))

    def test_non_square_rejected(self):
        with pytest.raises(OperatorError):
            HermitianOperator(entries=((0.0, 0.0),))

    @pytest.mark.parametrize("entries", [((np.nan,),), ((0.5, np.nan), (np.nan, 0.2)),
                                         ((np.inf,),), ((0.1, 1j * np.inf), (0.0, 0.1))])
    def test_non_finite_rejected(self, entries):
        with pytest.raises(OperatorError, match="finite"):
            HermitianOperator(entries=entries)

    def test_dimension_cap(self):
        with pytest.raises(OperatorError):
            random_hermitian_in_spectrum(65, 0)

    def test_random_generator_valid_and_deterministic(self):
        a = random_hermitian_in_spectrum(8, 123)
        b = random_hermitian_in_spectrum(8, 123)
        assert a == b
        eigs = a.eigenvalues()
        assert eigs.min() >= -1.0 - 1e-10 and eigs.max() <= 1.0 + 1e-10


class TestResolventCombination:
    def test_diagonal_matrix_reduces_to_scalars(self):
        design = design_unit(POLES)
        lam = np.array([-0.7, 0.1, 0.9])
        a = HermitianOperator(entries=tuple(map(tuple, np.diag(lam))))
        comb = resolvent_combination(a, design)
        want = np.diag(design.rational_eval(lam) - 1.0)
        assert np.allclose(comb, want, atol=1e-12)

    def test_commutes_with_unitary_conjugation(self):
        design = design_unit(POLES)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        d = np.diag(rng.uniform(-1, 1, 4))
        a = HermitianOperator(entries=tuple(map(tuple, q @ d @ q.conj().T)))
        b = HermitianOperator(entries=tuple(map(tuple, d)))
        ca = resolvent_combination(a, design)
        cb = resolvent_combination(b, design)
        assert np.allclose(ca, q @ cb @ q.conj().T, atol=1e-10)

    def test_moments_mode_subtracts_polynomial(self):
        design = design_moments(POLES, 1)
        lam = np.array([0.3, -0.4])
        a = HermitianOperator(entries=tuple(map(tuple, np.diag(lam))))
        comb = resolvent_combination(a, design)
        want = np.diag(design.rational_eval(lam)
                       - (design.gammas[0] + design.gammas[1] * lam))
        assert np.allclose(comb, want, atol=1e-12)

    def test_target_mode_unsupported(self):
        design = design_frequency_target(POLES, 2.2 + 0.8j)
        a = random_hermitian_in_spectrum(3, 0)
        with pytest.raises(OperatorError):
            resolvent_combination(a, design)


class TestVerifyOperatorBound:
    def test_certified_for_random_matrices(self):
        design = design_unit(POLES)
        for seed in range(20):
            a = random_hermitian_in_spectrum(8, seed)
            norm, ok = verify_operator_bound(a, design)
            assert ok
            assert norm <= design.epsilon + 1e-9

    def test_dim_one_matches_point_mass(self):
        design = design_unit(POLES)
        lam = 0.85
        a = HermitianOperator(entries=((lam,),))
        norm, _ = verify_operator_bound(a, design)
        mu = DiscreteMeasure.point_mass(lam)
        combo = sum(al * markov_eval(mu, z)
                    for al, z in zip(design.alphas, design.poles.points))
        assert norm == pytest.approx(abs(combo - 1.0), abs=1e-12)

    def test_norm_bounded_by_observed_sup(self):
        # the matrix norm can never exceed the scalar sup over [-1,1]
        design = design_unit(POLES)
        for seed in range(10):
            a = random_hermitian_in_spectrum(6, seed)
            norm, _ = verify_operator_bound(a, design)
            assert norm <= design.epsilon_observed + 1e-9


class TestOperatorSweep:
    @pytest.mark.parametrize("make", [design_unit, lambda poles: design_moments(poles, 2)],
                             ids=["unit", "moments_n2"])
    @pytest.mark.parametrize("dim, seeds", [(8, range(150)), (64, range(7, 10))],
                             ids=["dim8", "dim64"])
    def test_matches_one_operator_at_a_time(self, make, dim, seeds):
        assert SWEEP_CHUNK == 64  # so 150 seeds span three stacks
        design = make(POLES)
        norms, certified = operator_sweep(design, dim, seeds)
        one_by_one = [verify_operator_bound(random_hermitian_in_spectrum(dim, s), design)
                      for s in seeds]
        assert np.array_equal(norms, [norm for norm, _ in one_by_one])
        assert np.array_equal(certified, [ok for _, ok in one_by_one])
        assert certified.all()

    def test_target_mode_unsupported(self):
        with pytest.raises(OperatorError):
            operator_sweep(design_frequency_target(POLES, 2.2 + 0.8j), 4, range(3))

    def test_empty_sweep_rejected(self):
        with pytest.raises(OperatorError):
            operator_sweep(design_unit(POLES), 4, range(0))

    def test_dimension_cap(self):
        with pytest.raises(OperatorError):
            operator_sweep(design_unit(POLES), 65, range(3))

    def test_verify_with_many_operators(self, tmp_path):
        scenario = {
            "model": {"kind": "lossy_dielectric", "a0": 0.6},
            "frequencies": [[1.0, 1.0], [0.5, 0.3], [2.0, 0.5]],
            "design": {"mode": "moments", "n": 1},
            "stress": {"measure_count": 10, "operator_count": 150},
            "seed": 3,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        sweep = json.loads((tmp_path / "verify.json").read_text())["operator_sweep"]
        assert sweep["count"] == 150 and sweep["all_certified"] is True
