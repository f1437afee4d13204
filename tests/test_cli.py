import io
import json
import os
import subprocess
import sys
import warnings
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


# Scenario values that are NaN or infinite, with the field the error names.
NON_FINITE = [
    ("model", {"kind": "lossy_dielectric", "a0": float("nan")}, "model.a0"),
    ("model", {"kind": "plasma", "a0": float("inf")}, "model.a0"),
    ("model", {"kind": "two_phase", "phases": [{"G": float("nan")}, {"G": 1.0}]},
     "model.phases[0]"),
    ("model", {"kind": "two_phase", "phases": [{"G": 2.0}, {"G": 1.0, "eta": float("nan")}]},
     "model.phases[1]"),
    ("frequencies", [[float("nan"), 0.0], [1.0, 0.0]], "frequencies[0]"),
    ("frequencies", [[1.0, float("-inf")], [1.0, 0.0]], "frequencies[0]"),
    ("design", {"mode": "frequency_target", "z0": [float("inf"), 0.0]}, "design.z0"),
    ("design", {"mode": "zero_factor", "coeffs": [[float("nan"), 0.0], [1.0, 0.0]]},
     "design.coeffs[0]"),
    ("measure", {"atoms": [float("nan"), 0.5], "weights": [0.5, 0.5]}, "measure"),
    ("measure", {"atoms": [-0.5, 0.5], "weights": [float("nan"), 0.5]}, "measure"),
]

REGION = {"z0": [0.308824, -0.764706], "r": 1.0}

# 48 poles z_k on the ellipse 1.9 cos + 0.9i sin through the lossy-dielectric
# map: the moments(8) certificate epsilon ~ 1.7e-10 is smaller than its
# float64 rounding error, so the measured deviation exceeds it
_THETA = 2.0 * np.pi * np.arange(48) / 48 + 0.1
_ELLIPSE_OMEGAS = 1j / (1.9 * np.cos(_THETA) + 0.9j * np.sin(_THETA) - 2.0)
ELLIPSE_MOMENTS = dict(BASE, frequencies=[[w.real, w.imag] for w in _ELLIPSE_OMEGAS],
                       design={"mode": "moments", "n": 8},
                       stress={"measure_count": 200, "operator_count": 3})

# Scenario values of the wrong type or out of range, with the command that
# reads them and the field the error names.
BAD_VALUES = [
    ("design", "seed", "abc", "seed"),
    ("design", "seed", -1, "seed"),
    ("design", "model", 3, "model"),
    ("design", "design", [1], "design"),
    ("design", "design", {"mode": "moments", "n": True}, "design.n"),
    ("verify", "stress", {"measure_count": 0}, "stress.measure_count"),
    ("verify", "stress", {"measure_count": -3}, "stress.measure_count"),
    ("verify", "stress", {"measure_count": "abc"}, "stress.measure_count"),
    ("verify", "stress", {"operator_count": 0}, "stress.operator_count"),
    ("verify", "stress", {"operator_dim": 0}, "stress.operator_dim"),
    ("verify", "stress", {"operator_dim": 65}, "stress.operator_dim"),
    ("verify", "stress", [1], "stress"),
    ("simulate", "grid", dict(BASE["grid"], steps=10.5), "grid.steps"),
    ("simulate", "grid", 3, "grid"),
    ("simulate", "grid", dict(BASE["grid"], t_end=float("inf")), "grid"),
    ("bounds", "grid", dict(BASE["grid"], t_start=float("-inf")), "grid"),
    # finite ends, but t_end - t_start overflows: linspace gave NaN and inf times
    ("simulate", "grid", dict(BASE["grid"], t_start=-1e308, t_end=1e308), "grid"),
    ("bounds", "grid", dict(BASE["grid"], t_start=-1e308, t_end=1e308), "grid"),
    ("simulate", "measure", {"atoms": ["a", "b"], "weights": [0.5, 0.5]}, "measure"),
    ("region", "region", dict(REGION, r=float("nan")), "region"),
    ("region", "region", dict(REGION, r=None), "region"),
    ("region", "region", dict(REGION, r=[1]), "region"),
    ("region", "region", dict(REGION, samples="abc"), "region.samples"),
    ("region", "region", dict(REGION, samples=-1), "region.samples"),
    # JSON true and numeric strings are not numbers
    ("design", "model", {"kind": "lossy_dielectric", "a0": True}, "model.a0"),
    ("design", "model", {"kind": "two_phase", "phases": [{"G": True}, {"G": 6000, "eta": 20000}]},
     "model.phases[0].G"),
    ("design", "frequencies", [[True, 1.0], [0.5, 0.3]], "frequencies[0]"),
    ("simulate", "measure", {"atoms": ["-0.5", "0.5"], "weights": [0.5, 0.5]}, "measure.atoms[0]"),
    ("simulate", "measure", {"atoms": [-0.5, 0.5], "weights": [True, 0]}, "measure.weights[0]"),
    ("simulate", "grid", dict(BASE["grid"], t0=True), "grid.t0"),
    ("bounds", "moments_cases", [{"label": "x", "known": [True]}], "moments_cases[0].known[0]"),
    ("region", "region", dict(REGION, r="0.5"), "region.r"),
    ("bounds", "moments_cases", 5, "moments_cases"),
    ("bounds", "moments_cases", [5], "moments_cases[0]"),
    ("bounds", "moments_cases", [{"label": "x", "theta": "abc"}], "moments_cases[0].theta"),
    ("bounds", "moments_cases", [{"label": "x", "theta": float("nan")}],
     "moments_cases[0].theta"),
    ("bounds", "moments_cases", [{"label": "x", "a0_known": "no"}],
     "moments_cases[0].a0_known"),
    ("bounds", "moments_cases", [{"label": "/../../../escaped", "known": [0.4]}],
     "moments_cases[0].label"),
    ("bounds", "moments_cases", [{"label": "", "known": []}], "moments_cases[0].label"),
    ("bounds", "moments_cases", [{"label": 3, "known": []}], "moments_cases[0].label"),
    ("bounds", "moments_cases", [{"label": "x", "known": []}, {"label": "x", "known": [0.4]}],
     "moments_cases[1].label"),
    # scenario limits: at most 48 frequencies, m + n <= 64, a monic s of degree below m
    ("design", "frequencies", [[1.0, 0.1 * k] for k in range(1, 50)], "frequencies"),
    ("design", "design", {"mode": "moments", "n": 62}, "design.n"),
    ("design", "design", {"mode": "zero_factor", "coeffs": [[-2.5, -0.5], [2.0, 0.0]]},
     "design.coeffs"),
    ("design", "design", {"mode": "zero_factor", "coeffs": [[0.0, 0.0]] * 3 + [[1.0, 0.0]]},
     "design.coeffs"),
    ("simulate", "measure", {"atoms": 5, "weights": [1.0]}, "measure.atoms"),
    ("design", "model", {"kind": "lossy_dielectric", "a0": 0}, "model.a0"),
    ("design", "model", {"kind": "lossy_dielectric", "a0": -1}, "model.a0"),
    ("design", "model", {"kind": "two_phase", "phases": [{"G": 6000, "eta": 20000}]},
     "model.phases"),
    ("design", "frequencies", [], "frequencies"),
    ("design", "design", {"mode": "frequency_target"}, "design"),
    ("design", "design", {"mode": "zero_factor", "coeffs": []}, "design.coeffs"),
    ("design", "design", {"mode": "spline"}, "design.mode"),
]


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

    @pytest.mark.parametrize("known, index", [([0.5, 0.1], 1), (["0.4"], 0), ([0.4, None], 1)])
    def test_bad_moment_entry_names_path(self, tmp_path, capsys, known, index):
        obj = dict(BASE, moments_cases=[{"label": "x", "known": known}])
        assert run("bounds", write_scenario(tmp_path, obj), tmp_path) == 2
        assert f"moments_cases[0].known[{index}]" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # plasma at omega = 1 puts a pole at 0, on the segment
        obj = dict(BASE, model={"kind": "plasma", "a0": 0.6},
                   frequencies=[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 3
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field, value, path", [
        (command, *case) for case in NON_FINITE for command in ("design", "simulate", "bounds")
        # only simulate reads the measure
        if case[0] != "measure" or command == "simulate"])
    def test_non_finite_value_names_field(self, tmp_path, capsys, command, field, value, path):
        obj = dict(BASE, **{field: value})
        assert run(command, write_scenario(tmp_path, obj), tmp_path) == 2
        assert f"error: {path}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("command, field, value, path", BAD_VALUES)
    def test_bad_value_names_field(self, tmp_path, capsys, command, field, value, path):
        obj = dict(BASE, **{field: value})
        scenario = write_scenario(tmp_path, obj)
        assert run(command, scenario, tmp_path / "out") == 2
        assert f"error: {path}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [Path(scenario)]
        assert not (tmp_path.parent / "escaped.csv").exists()

    def test_top_level_array_exits_2(self, tmp_path, capsys):
        assert run("design", write_scenario(tmp_path, [BASE]), tmp_path) == 2
        assert "error: scenario: top level must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_grid_size_flag_is_refused(self, tmp_path, capsys, command):
        # every sup is measured on the certificate grid; the flag is gone
        path = write_scenario(tmp_path, BASE)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--scenario", path, "--out", str(tmp_path / "out"),
                      "--grid-size", "64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid-size 64" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


FIG4 = json.loads((SCENARIO_DIR / "fig4_dielectric.json").read_text())


class TestFailureRule:
    """ScenarioError exits 2; any other ValueError or ArithmeticError exits 3."""

    def test_exit_code_follows_exception_kind(self, tmp_path, monkeypatch):
        def failing(exc):
            def command(*args):
                raise exc
            return command

        path = write_scenario(tmp_path, BASE)
        for exc, code in [(cli.ScenarioError("grid", "x"), 2), (ValueError("x"), 3),
                          (np.linalg.LinAlgError("x"), 3), (OverflowError("x"), 3),
                          (ZeroDivisionError("x"), 3), (cli.CertificateViolation("x"), 3)]:
            monkeypatch.setitem(cli.COMMANDS, "design", failing(exc))
            assert run("design", path, tmp_path) == code, type(exc).__name__
        for bug in (KeyError, TypeError, AttributeError, OSError):  # bugs and I/O propagate
            monkeypatch.setitem(cli.COMMANDS, "design", failing(bug("x")))
            with pytest.raises(bug):
                run("design", path, tmp_path)

    def test_overflowing_frequency_exits_3(self, tmp_path, capsys):
        # omega = 1e200 overflows the plasma map's omega ** 2
        obj = dict(BASE, model={"kind": "plasma", "a0": 0.6},
                   frequencies=[[1e200, 0.0], [1.0, 1.0]])
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 3
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["design", "simulate", "bounds"])
    def test_overflowing_certificate_exits_3(self, tmp_path, capsys, command):
        # 30 poles near -2e12: (2 d_min) ** 30 is past the float range
        obj = dict(FIG4, model={"kind": "plasma", "a0": 0.6},
                   frequencies=[[1e-6 * (1 + k / 100), 0.0] for k in range(30)])
        assert run(command, write_scenario(tmp_path, obj), tmp_path / "out") == 3
        # one line that names the quantity, raised before any numpy overflow
        assert capsys.readouterr().err.splitlines() == [
            "numeric error: (2 d_min)**m overflows at d_min = 1.20185e+12, m = 30: "
            "the poles lie too far from [-1,1]"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    @pytest.mark.parametrize("change, why", [
        # Im omega_1 (t - t0) reaches 1500: 53 of 101 rows were written as NaN
        ({"grid": {"t_start": -8.0, "t_end": 1500.0, "steps": 101, "t0": 0.0}},
         "Im omega_k (t - t0) above about 709"),
        # Im omega_4 (t - t0) reaches 800 at t = 2 on the bundled grid
        ({"frequencies": FIG4["frequencies"] + [[2.0, 400.0]]},
         "Im omega_k (t - t0) above about 709"),
        # omega_4 (t - t0) reaches 1e400: the product itself overflowed
        ({"frequencies": FIG4["frequencies"] + [[1e200, 0.0]],
          "grid": {"t_start": -1e200, "t_end": 0.0, "steps": 101, "t0": 0.0}},
         "omega_k (t - t0) past the float range"),
    ], ids=["long_grid", "fourth_frequency", "product"])
    def test_overflowing_phase_exits_3(self, tmp_path, capsys, command, change, why):
        obj = dict(FIG4, **change)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, write_scenario(tmp_path, obj), tmp_path / "out") == 3
        # one line, with no numpy warning ahead of it
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            f"numeric error: exp(-i omega_k (t - t0)) overflows on this grid ({why})"]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.parametrize("command", ["design", "verify"])
    def test_non_finite_report_exits_3(self, tmp_path, capsys, command):
        # a pole 1e-7 above 0.3 underflows the padding of min |q| to 0, so the
        # frequency-target certificate is infinite; JSON has no infinity
        omega = 1j / (0.3 + 1e-7j - 2.0)
        obj = dict(BASE, frequencies=[[omega.real, omega.imag], [1.0, 1.0]],
                   design={"mode": "frequency_target", "z0": [2.0, 1.4]})
        assert run(command, write_scenario(tmp_path, obj), tmp_path / "out") == 3
        path = tmp_path / "out" / f"{command}.json"
        assert capsys.readouterr().err.splitlines() == [
            f"numeric error: {path}: a non-finite number cannot be written as JSON"]
        assert not (tmp_path / "out").exists()


ALL_MODES = {
    "unit": {"mode": "unit"},
    "moments": {"mode": "moments", "n": 2},
    "frequency_target": {"mode": "frequency_target", "omega0": [0.0, 0.7]},
    "derivative_target": {"mode": "derivative_target", "omega0": [0.0, 0.7]},
    # s(lambda) = lambda - z_1 drops the first frequency
    "zero_factor": {"mode": "zero_factor", "coeffs": [[-2.5, -0.5], [1.0, 0.0]]},
}


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

    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_report_is_the_constructors_design(self, tmp_path, mode):
        # the report holds the certificate and the observation the
        # constructor made on the certificate grid, and nothing measured anew
        obj = dict(BASE, design=ALL_MODES[mode])
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        design = cli._designed(obj)[2]
        assert report == json.loads(json.dumps(cli.design_report(design)))
        assert report["epsilon_observed"] == design.epsilon_observed
        assert report["epsilon"] == design.epsilon

    def test_runs_do_not_interact(self, tmp_path):
        path = str(SCENARIO_DIR / "fig4_dielectric.json")
        assert run("design", str(SCENARIO_DIR / "fig6_freq_target.json"), tmp_path / "fig6") == 0
        assert run("design", path, tmp_path / "after") == 0
        # a fresh interpreter has run nothing before
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "markovdesign.cli", "design", "--scenario", path,
                        "--out", str(tmp_path / "fresh")], check=True, env=env,
                       capture_output=True, timeout=120)
        assert ((tmp_path / "after" / "design.json").read_bytes()
                == (tmp_path / "fresh" / "design.json").read_bytes())

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

    def test_violated_certificate_exits_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ELLIPSE_MOMENTS)
        assert run("design", path, tmp_path) == 3
        report = json.loads((tmp_path / "design.json").read_text())
        assert report["epsilon_observed"] > report["epsilon"] * (1.0 + 1e-12)
        assert str(tmp_path / "design.json") in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [{"mode": "unit"},
                                      {"mode": "frequency_target", "omega0": [0.0, 0.7]}],
                             ids=["unit", "frequency_target"])
    @pytest.mark.parametrize("spacing", [np.linspace, np.geomspace], ids=["even", "log"])
    @pytest.mark.parametrize("m", [4, 8, 12, 16, 24])
    def test_real_band_exits_0_only_when_certified(self, tmp_path, capsys, mode, spacing, m):
        # m real frequencies in [0.2, 20] put the lossy-dielectric poles
        # 2 + i/omega close to one another near 2; some of these designs
        # measure a deviation above their certificate.  Whichever they do,
        # exit 0 means the certificate holds, and exit 3 names the report
        # it still writes, on one line
        obj = dict(BASE, frequencies=[[w, 0.0] for w in spacing(0.2, 20.0, m)], design=mode)
        code = run("design", write_scenario(tmp_path, obj), tmp_path / "out")
        path = tmp_path / "out" / "design.json"
        report = json.loads(path.read_text())
        certified = report["epsilon_observed"] <= report["epsilon"] * (1.0 + 1e-12)
        err = capsys.readouterr().err.splitlines()
        if certified:
            assert code == 0 and err == []
        else:
            assert code == 3
            assert err == [f"numeric error: {path}: the certificate epsilon does not hold"]

    def test_zero_factor_on_a_circle_is_certified(self, tmp_path):
        # 12 frequencies on a circle in the upper half plane; the Ehlich-Zeller
        # bound read from the certificate grid holds on all of [-1,1]
        omegas = 1.5 * np.exp(1j * np.pi * (np.arange(12) + 0.5) / 12)
        obj = dict(BASE, frequencies=[[w.real, w.imag] for w in omegas],
                   design={"mode": "zero_factor", "coeffs": [[-2.0, 0.0], [1.0, 0.0]]})
        assert run("design", write_scenario(tmp_path, obj), tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        assert 0.0 < report["epsilon"] < np.inf
        assert report["epsilon_observed"] <= report["epsilon"]

    def test_target_mode_via_omega0(self, tmp_path):
        obj = dict(BASE, design={"mode": "frequency_target", "omega0": [0.0, 0.7]})
        path = write_scenario(tmp_path, obj)
        assert run("design", path, tmp_path) == 0
        report = json.loads((tmp_path / "design.json").read_text())
        # z(0.7i) = 2 + i/(0.7i) = 2 + 1/0.7
        assert complex(*report["z0"]) == pytest.approx(2.0 + 1.0 / 0.7)
        assert "b_m" in report


class TestSupMeasurement:
    """design and verify measure epsilon_observed once, on the certificate
    grid; simulate and bounds, which never write it, do not measure it."""

    @pytest.mark.parametrize("command, calls",
                             [("design", 1), ("verify", 1), ("simulate", 0), ("bounds", 0)])
    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_sup_deviation_calls(self, tmp_path, monkeypatch, mode, command, calls):
        scans = []
        scan = markovdesign.design.sup_deviation

        def counted(design):
            scans.append(design.mode)
            return scan(design)

        monkeypatch.setattr(markovdesign.design, "sup_deviation", counted)
        path = write_scenario(tmp_path, dict(BASE, design=ALL_MODES[mode]))
        assert run(command, path, tmp_path / "out") == 0
        assert scans == [mode] * calls

    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_skipped_scan_changes_no_output(self, tmp_path, monkeypatch, mode, command):
        # simulate and bounds build the design without its sup scan; with
        # the scan forced on, the files are the same bytes
        path = write_scenario(tmp_path, dict(BASE, design=ALL_MODES[mode]))
        assert run(command, path, tmp_path / "skipped") == 0
        scans = []
        scan, designed = markovdesign.design.sup_deviation, cli._designed

        def counted(design):
            scans.append(design.mode)
            return scan(design)

        monkeypatch.setattr(markovdesign.design, "sup_deviation", counted)
        monkeypatch.setattr(cli, "_designed", lambda scenario, scan=True: designed(scenario))
        assert run(command, path, tmp_path / "scanned") == 0
        assert scans == [mode]
        names = sorted(p.name for p in (tmp_path / "skipped").iterdir())
        assert names and names == sorted(p.name for p in (tmp_path / "scanned").iterdir())
        for name in names:
            assert ((tmp_path / "skipped" / name).read_bytes()
                    == (tmp_path / "scanned" / name).read_bytes()), name


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

    def test_flags_agree_with_epsilon_below_rounding_floor(self, tmp_path, capsys):
        # ELLIPSE_MOMENTS: an absolute slack of 1e-9 would report any
        # deviation from its epsilon ~ 1.7e-10 as within it
        path = write_scenario(tmp_path, ELLIPSE_MOMENTS)
        assert run("verify", path, tmp_path) == 3
        assert str(tmp_path / "verify.json") in capsys.readouterr().err
        report = json.loads((tmp_path / "verify.json").read_text())
        held = report["design"]["epsilon"] * (1.0 + 1e-12)
        stress, sweep = report["random_measure_stress"], report["operator_sweep"]
        assert stress["within_epsilon"] is (stress["max_deviation"] <= held)
        assert sweep["all_certified"] is (sweep["max_norm"] <= held)

    def test_every_flag_reads_the_one_verdict(self, tmp_path, monkeypatch):
        # SignalDesign.certifies refusing everything flips the sup check, the
        # stress flag and the operator flags of a scenario that passes
        monkeypatch.setattr(markovdesign.design.SignalDesign, "certifies",
                            lambda self, value: np.zeros(np.shape(value), dtype=bool)[()])
        path = write_scenario(tmp_path, BASE)
        assert run("design", path, tmp_path) == 3
        assert run("verify", path, tmp_path) == 3
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["random_measure_stress"]["within_epsilon"] is False
        assert report["operator_sweep"]["all_certified"] is False


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


class TestWriteCsv:
    def test_seventeen_significant_digits(self, tmp_path):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((101, 7)) * 10.0 ** rng.integers(-300, 301, (101, 7))
        table[:6, 0] = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, np.inf, np.nan]
        cli.write_csv(tmp_path / "t.csv", list("abcdefg"), list(table.T))
        want = "a,b,c,d,e,f,g\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in table)
        assert (tmp_path / "t.csv").read_text() == want

    def test_empty_table_writes_header_only(self, tmp_path):
        cli.write_csv(tmp_path / "e.csv", ["x", "y"], (np.array([]), np.array([])))
        assert (tmp_path / "e.csv").read_text() == "x,y\n"

    @pytest.mark.parametrize("shape", [(1, 5), (101, 1), (1, 1)])
    def test_same_bytes_as_savetxt(self, tmp_path, shape):
        table = np.random.default_rng(5).standard_normal(shape)
        header = [f"c{i}" for i in range(shape[1])]
        cli.write_csv(tmp_path / "t.csv", header, list(table.T))
        want = io.BytesIO()
        np.savetxt(want, table, fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="")
        assert (tmp_path / "t.csv").read_bytes() == want.getvalue()

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            cli.write_csv(path, ["x"], (np.array([1.0]),))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old\n"


class TestBoundsCommand:
    def test_one_file_per_case(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert run("bounds", path, tmp_path) == 0
        assert (tmp_path / "bounds_m0_only.csv").exists()
        assert (tmp_path / "bounds_m0_m1.csv").exists()

    def test_no_cases_bound_the_mass_alone(self, tmp_path):
        obj = {k: v for k, v in BASE.items() if k != "moments_cases"}
        assert run("bounds", write_scenario(tmp_path, obj), tmp_path) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["bounds_m0_only.csv"]

    def test_single_moments_object(self, tmp_path):
        obj = {k: v for k, v in BASE.items() if k != "moments_cases"}
        obj["moments"] = {"label": "single", "known": [0.4]}
        assert run("bounds", write_scenario(tmp_path, obj), tmp_path) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["bounds_single.csv"]
        single = np.genfromtxt(tmp_path / "bounds_single.csv", delimiter=",", names=True)
        run("bounds", write_scenario(tmp_path, BASE), tmp_path / "cases")
        case = np.genfromtxt(tmp_path / "cases" / "bounds_m0_m1.csv", delimiter=",", names=True)
        assert single.tobytes() == case.tobytes()

    def test_bounds_ordered_and_pinched(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        run("bounds", path, tmp_path)
        data = np.genfromtxt(tmp_path / "bounds_m0_only.csv", delimiter=",", names=True)
        assert np.all(data["lower"] <= data["upper"])
        i0 = int(np.argmin(np.abs(data["t"])))
        assert data["lower"][i0] <= 0.6 <= data["upper"][i0]

    def test_cases_sharing_an_envelope_solve_it_once(self, tmp_path, monkeypatch):
        # fig4's m0_m1 and m0_m1_a0 differ only in a0_known
        calls = []
        solve = cli.rz.response_bounds
        monkeypatch.setattr(cli.rz, "response_bounds", lambda *a: calls.append(a) or solve(*a))
        assert run("bounds", str(SCENARIO_DIR / "fig4_dielectric.json"), tmp_path / "all") == 0
        assert len(calls) == 2
        for case in FIG4["moments_cases"]:  # each case alone writes the same bytes
            path = write_scenario(tmp_path, dict(FIG4, moments_cases=[case]))
            assert run("bounds", path, tmp_path / case["label"]) == 0
            name = f"bounds_{case['label']}.csv"
            alone = (tmp_path / case["label"] / name).read_bytes()
            assert (tmp_path / "all" / name).read_bytes() == alone

    def test_point_mass_moments_within_rounding_accepted(self, tmp_path):
        # 0.4 ** 2 is 0.16000000000000003, above M2 = 0.16 by one rounding
        obj = dict(BASE, moments_cases=[{"label": "point", "known": [0.4, 0.16]}])
        assert run("bounds", write_scenario(tmp_path, obj), tmp_path) == 0
        data = np.genfromtxt(tmp_path / "bounds_point.csv", delimiter=",", names=True)
        assert data.size == BASE["grid"]["steps"]
        assert np.all(data["lower"] <= data["upper"])

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
        obj = {"region": dict(REGION, samples=65),
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
