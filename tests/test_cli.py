import json
from pathlib import Path

import numpy as np
import pytest

import markovdesign.design
from markovdesign import cli
from markovdesign.measure import DiscreteMeasure, markov_eval, moments

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BASE = {
    "model": {"kind": "lossy_dielectric", "a0": 0.6},
    "frequencies": [[1.0, 1.0], [0.5, 0.3], [2.0, 0.5]],
    "design": {"mode": "unit"},
    "measure": {"atoms": [-0.5, 0.5], "weights": [0.1, 0.9]},
    "moments_cases": [
        {"label": "m0_only", "known": [], "a0_known": True},
        {"label": "m0_m1", "known": [0.4], "a0_known": True},
    ],
    "grid": {"t_start": -2.0, "t_end": 1.0, "steps": 13, "t0": 0.0},
    "seed": 7,
}


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(command, scenario_path, out_dir, *extra):
    return cli.main([command, "--scenario", scenario_path, "--out", str(out_dir), *extra])


class TestScenarioValidation:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("design", str(tmp_path / "nope.json"), tmp_path) == 2
        assert "scenario" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("design", str(path), tmp_path) == 2

    def test_missing_model_names_field(self, tmp_path, capsys):
        obj = {k: v for k, v in BASE.items() if k != "model"}
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 2
        assert "model" in capsys.readouterr().err

    def test_bad_complex_encoding_names_entry(self, tmp_path, capsys):
        obj = dict(BASE, frequencies=[[1.0, 1.0], 0.5])
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 2
        assert "frequencies[1]" in capsys.readouterr().err

    def test_duplicate_frequency_names_entry(self, tmp_path, capsys):
        obj = dict(BASE, frequencies=[[1.0, 1.0], [1.0, 1.0]])
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 2
        assert "frequencies[1]" in capsys.readouterr().err

    def test_unknown_model_kind(self, tmp_path, capsys):
        obj = dict(BASE, model={"kind": "perpetual_motion"})
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 2
        assert "model.kind" in capsys.readouterr().err

    def test_bad_moment_case_names_path(self, tmp_path, capsys):
        obj = dict(BASE, moments_cases=[{"label": "x", "known": [2.0]}])
        assert run("bounds", write_scenario(tmp_path, obj), tmp_path) == 2
        assert "moments_cases[0].known[0]" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # plasma at omega = 1 puts a pole at 0, on the segment
        obj = dict(BASE, model={"kind": "plasma", "a0": 0.6},
                   frequencies=[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_grid_size_too_small_exits_2(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert run("design", path, tmp_path, "--grid-size", "4") == 2


class TestDesignCommand:
    def test_report_contents(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert run("design", path, tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        assert report["mode"] == "unit"
        assert len(report["z_points"]) == 3
        assert len(report["alphas"]) == 3
        assert report["epsilon_observed"] <= report["epsilon"] + 1e-9
        assert report["convergent_flag"] is True
        assert report["d_min"] == pytest.approx(1.2126781251816647, abs=1e-9)
        z1 = complex(*report["z_points"][0])
        assert z1 == pytest.approx(2.5 + 0.5j)

    def test_json_is_sorted_and_indented(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        run("design", path, tmp_path)
        text = (tmp_path / "design.json").read_text()
        keys = [line.split('"')[1] for line in text.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_moments_mode_reports_gammas(self, tmp_path):
        obj = dict(BASE, design={"mode": "moments", "n": 1})
        path = write_scenario(tmp_path, obj)
        assert run("design", path, tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        assert len(report["gammas"]) == 2
        assert report["gammas"][1] == [1.0, 0.0]

    def test_grid_size_override_is_restored(self, tmp_path):
        assert run("design", str(SCENARIO_DIR / "fig4_dielectric.json"), tmp_path,
                   "--grid-size", "16") == 0
        assert markovdesign.design.SUP_GRID_SIZE == 4096

    def test_target_mode_via_omega0(self, tmp_path):
        obj = dict(BASE, design={"mode": "frequency_target", "omega0": [0.0, 0.7]})
        path = write_scenario(tmp_path, obj)
        assert run("design", path, tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        # z(0.7i) = 2 + i/(0.7i) = 2 + 1/0.7
        assert complex(*report["z0"]) == pytest.approx(2.0 + 1.0 / 0.7)
        assert "b_m" in report


ALL_MODES = {
    "unit": {"mode": "unit"},
    "moments": {"mode": "moments", "n": 2},
    "frequency_target": {"mode": "frequency_target", "omega0": [0.0, 0.7]},
    "derivative_target": {"mode": "derivative_target", "omega0": [0.0, 0.7]},
    # s(lambda) = lambda - z_1 drops the first frequency
    "zero_factor": {"mode": "zero_factor", "coeffs": [[-2.5, -0.5], [1.0, 0.0]]},
}


class TestVerifyCommand:
    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_stress_matches_per_measure_sum(self, tmp_path, mode):
        count = 40
        obj = dict(BASE, design=ALL_MODES[mode],
                   stress={"measure_count": count, "operator_count": 2})
        path = write_scenario(tmp_path, obj)
        assert run("verify", path, tmp_path) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        d = report["design"]
        z = [complex(*p) for p in d["z_points"]]
        alphas = [complex(*p) for p in d["alphas"]]
        atoms, weights = cli._random_measures(np.random.default_rng(BASE["seed"]), count)
        deviations = []
        for lam, w in zip(atoms, weights):
            mu = DiscreteMeasure(atoms=tuple(lam), weights=tuple(w))
            combo = sum(a * markov_eval(mu, zk) for a, zk in zip(alphas, z))
            if "gammas" in d:
                gammas = [complex(*g) for g in d["gammas"]]
                target = np.dot(gammas, moments(mu, len(gammas) - 1))
            else:
                z0 = complex(*d["z0"])
                target = markov_eval(mu, z0)
                if "alpha0" in d:
                    target = (np.sum(mu.weight_array / (mu.atom_array - z0) ** 2)
                              - complex(*d["alpha0"]) * target)
            deviations.append(abs(combo - target))
        stress = report["random_measure_stress"]
        assert stress["max_deviation"] == pytest.approx(max(deviations), rel=1e-9, abs=1e-13)
        assert stress["within_epsilon"] is True

    def test_deterministic_reports(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("verify", path, out1) == 0
        assert run("verify", path, out2) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()

    def test_seed_override_changes_stress(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("verify", path, out1, "--seed", "1") == 0
        assert run("verify", path, out2, "--seed", "2") == 0
        r1 = json.loads((out1 / "verify.json").read_text())
        r2 = json.loads((out2 / "verify.json").read_text())
        assert r1["seed"] == 1 and r2["seed"] == 2
        assert (r1["random_measure_stress"]["max_deviation"]
                != r2["random_measure_stress"]["max_deviation"])

    def test_stress_and_operators_certified(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert run("verify", path, tmp_path) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["random_measure_stress"]["within_epsilon"] is True
        assert report["operator_sweep"]["all_certified"] is True

    def test_flags_agree_with_epsilon_below_rounding_floor(self, tmp_path):
        # 48 poles z_k on the ellipse 1.9 cos + 0.9i sin through the
        # lossy-dielectric map: the moments(8) certificate epsilon ~ 1.7e-10 is
        # smaller than its float64 rounding error, so an absolute slack of
        # 1e-9 would report any deviation as within it
        theta = 2.0 * np.pi * np.arange(48) / 48 + 0.1
        omegas = 1j / (1.9 * np.cos(theta) + 0.9j * np.sin(theta) - 2.0)
        obj = dict(BASE, frequencies=[[w.real, w.imag] for w in omegas],
                   design={"mode": "moments", "n": 8},
                   stress={"measure_count": 200, "operator_count": 3})
        path = write_scenario(tmp_path, obj)
        assert run("verify", path, tmp_path) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        held = report["design"]["epsilon"] * (1.0 + 1e-12)
        stress, sweep = report["random_measure_stress"], report["operator_sweep"]
        assert stress["within_epsilon"] is (stress["max_deviation"] <= held)
        assert sweep["all_certified"] is (sweep["max_norm"] <= held)


class TestSimulateCommand:
    def test_csv_shape_and_header(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert run("simulate", path, tmp_path) == 0
        lines = (tmp_path / "simulate.csv").read_text().strip().splitlines()
        assert lines[0] == "t,re_u,im_u,re_v,im_v"
        assert len(lines) == 1 + BASE["grid"]["steps"]

    def test_floats_round_trip(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        run("simulate", path, tmp_path)
        data = np.genfromtxt(tmp_path / "simulate.csv", delimiter=",", names=True)
        # response at t0 is pinned near a0 for any measure
        i0 = int(np.argmin(np.abs(data["t"])))
        assert abs(data["re_v"][i0] - 0.6) < 0.6 * 0.15
        assert abs(data["im_v"][i0]) < 0.6 * 0.15

    def test_reference_columns_present_when_requested(self, tmp_path):
        obj = dict(BASE, compare_omega0=[0.0, 0.7])
        path = write_scenario(tmp_path, obj)
        assert run("simulate", path, tmp_path) == 0
        header = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        assert header == "t,re_u,im_u,re_v,im_v,re_v0,im_v0"


class TestBoundsCommand:
    def test_one_file_per_case(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert run("bounds", path, tmp_path) == 0
        assert (tmp_path / "bounds_m0_only.csv").exists()
        assert (tmp_path / "bounds_m0_m1.csv").exists()

    def test_bounds_ordered_and_pinched(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        run("bounds", path, tmp_path)
        data = np.genfromtxt(tmp_path / "bounds_m0_only.csv", delimiter=",", names=True)
        assert np.all(data["lower"] <= data["upper"])
        i0 = int(np.argmin(np.abs(data["t"])))
        assert data["lower"][i0] <= 0.6 <= data["upper"][i0]

    def test_unknown_scale_clamps_through_zero(self, tmp_path):
        obj = dict(BASE, moments_cases=[{"label": "free", "known": [],
                                         "a0_known": False}])
        path = write_scenario(tmp_path, obj)
        run("bounds", path, tmp_path)
        data = np.genfromtxt(tmp_path / "bounds_free.csv", delimiter=",", names=True)
        assert np.all(data["lower"] <= 1e-12)
        assert np.all(data["upper"] >= -1e-12)


class TestRegionCommand:
    def test_boundary_cells_written(self, tmp_path):
        obj = {"region": {"z0": [0.308824, -0.764706], "r": 1.0, "samples": 65},
               "seed": 0}
        path = write_scenario(tmp_path, obj)
        assert run("region", path, tmp_path) == 0
        data = np.genfromtxt(tmp_path / "region.csv", delimiter=",", names=True)
        assert data["x"].size > 0

    def test_r_too_large_exits_2(self, tmp_path):
        obj = {"region": {"z0": [0.308824, -0.764706], "r": 5.0}}
        path = write_scenario(tmp_path, obj)
        assert run("region", path, tmp_path) == 2


class TestBundledScenarios:
    @pytest.mark.parametrize("name", [
        "fig3_visco", "fig4_dielectric", "fig5_plasma", "fig6_freq_target"])
    def test_design_runs_clean(self, tmp_path, name):
        assert run("design", str(SCENARIO_DIR / f"{name}.json"), tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        assert report["epsilon_observed"] <= report["epsilon"] + 1e-9

    def test_region_scenario_runs_clean(self, tmp_path):
        assert run("region", str(SCENARIO_DIR / "fig7_regions.json"), tmp_path) == 0
