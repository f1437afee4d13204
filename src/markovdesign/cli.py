"""Scenario-driven command line: design, verify, simulate, bounds, region.

Scenarios are JSON files (the only input pathway, so reproduction recipes
stay versionable); complex numbers are two-element [re, im] arrays.  Reports
are JSON with sorted keys; time series are CSV with a fixed header and
17-significant-digit floats so doubles round-trip losslessly.

Exit codes: 0 success, 2 scenario validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import design as dz
from . import measure as mz
from . import operators as oz
from . import response as rz
from .geometry import DegeneratePointError, RegionSpec, in_region_H
from .polynomial import ComplexPolynomial, DegreeLimitError

NUMERIC_ERRORS = (
    dz.DesignError,
    mz.MeasureError,
    oz.OperatorError,
    rz.SingularFrequencyError,
    rz.InfeasibleMomentsError,
    DegeneratePointError,
    DegreeLimitError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
)


class ScenarioError(ValueError):
    """Validation failure naming the offending scenario field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise ScenarioError(f"{path}.{field}" if path else field, "missing required field")
    return obj[field]


def _as_complex(value, path: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) for v in value)):
        raise ScenarioError(path, "complex numbers are two-element [re, im] arrays")
    return complex(value[0], value[1])


def _complex_pair(z: complex):
    return [z.real, z.imag]


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError("scenario", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario", f"invalid JSON: {exc}")
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario", "top level must be an object")
    return scenario


def build_model(scenario: dict) -> rz.SystemModel:
    spec = _require(scenario, "model", "")
    kind = _require(spec, "kind", "model")
    a0 = spec.get("a0", 1.0)
    if not isinstance(a0, (int, float)) or a0 <= 0:
        raise ScenarioError("model.a0", "must be a positive number")
    if kind == "lossy_dielectric":
        return rz.SystemModel.lossy_dielectric(a0)
    if kind == "plasma":
        return rz.SystemModel.plasma(a0)
    if kind == "two_phase":
        phases = _require(spec, "phases", "model")
        if not isinstance(phases, list) or len(phases) != 2:
            raise ScenarioError("model.phases", "need exactly two phase objects")
        built = []
        for i, ph in enumerate(phases):
            try:
                built.append(rz.MaxwellPhase(G=ph["G"], eta=ph.get("eta")))
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"model.phases[{i}]", str(exc))
        return rz.SystemModel.two_phase(built[0], built[1], a0)
    raise ScenarioError("model.kind", f"unknown kind {kind!r}")


def parse_frequencies(scenario: dict) -> np.ndarray:
    freqs = _require(scenario, "frequencies", "")
    if not isinstance(freqs, list) or not freqs:
        raise ScenarioError("frequencies", "must be a nonempty list")
    omegas = []
    for i, f in enumerate(freqs):
        w = _as_complex(f, f"frequencies[{i}]")
        for j, prev in enumerate(omegas):
            if abs(w - prev) <= 1e-12 * max(1.0, abs(w)):
                raise ScenarioError(f"frequencies[{i}]", f"duplicates frequencies[{j}]")
        omegas.append(w)
    return np.array(omegas, dtype=complex)


def build_poles(model: rz.SystemModel, omegas: np.ndarray) -> dz.PoleSet:
    return dz.PoleSet(points=tuple(rz.model_z(model, w) for w in omegas))


def build_design(scenario: dict, model: rz.SystemModel,
                 omegas: np.ndarray) -> dz.SignalDesign:
    spec = scenario.get("design", {"mode": "unit"})
    mode = spec.get("mode", "unit")
    poles = build_poles(model, omegas)
    if mode == "unit":
        return dz.design_unit(poles)
    if mode == "moments":
        n = spec.get("n", 1)
        if not isinstance(n, int) or n < 0:
            raise ScenarioError("design.n", "must be a nonnegative integer")
        return dz.design_moments(poles, n)
    if mode in ("frequency_target", "derivative_target"):
        if "z0" in spec:
            z0 = _as_complex(spec["z0"], "design.z0")
        elif "omega0" in spec:
            z0 = rz.model_z(model, _as_complex(spec["omega0"], "design.omega0"))
        else:
            raise ScenarioError("design", "target modes need z0 or omega0")
        builder = (dz.design_frequency_target if mode == "frequency_target"
                   else dz.design_derivative_target)
        return builder(poles, z0)
    if mode == "zero_factor":
        coeffs = _require(spec, "coeffs", "design")
        if not isinstance(coeffs, list) or not coeffs:
            raise ScenarioError("design.coeffs", "must be a nonempty coefficient list")
        s = ComplexPolynomial(tuple(
            _as_complex(c, f"design.coeffs[{i}]") for i, c in enumerate(coeffs)))
        return dz.design_with_zero_factor(poles, s)
    raise ScenarioError("design.mode", f"unknown mode {mode!r}")


def build_measure(scenario: dict) -> mz.DiscreteMeasure:
    spec = _require(scenario, "measure", "")
    atoms = _require(spec, "atoms", "measure")
    weights = _require(spec, "weights", "measure")
    try:
        return mz.DiscreteMeasure(atoms=tuple(atoms), weights=tuple(weights))
    except (mz.MeasureError, TypeError) as exc:
        raise ScenarioError("measure", str(exc))


def build_grid(scenario: dict) -> rz.TimeGrid:
    spec = _require(scenario, "grid", "")
    try:
        return rz.TimeGrid(
            t_start=spec["t_start"], t_end=spec["t_end"],
            steps=spec["steps"], t0=spec.get("t0", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError("grid", str(exc))


def _moment_cases(scenario: dict):
    if "moments_cases" in scenario:
        cases = scenario["moments_cases"]
    elif "moments" in scenario:
        cases = [scenario["moments"]]
    else:
        cases = [{"label": "m0_only", "known": [], "a0_known": True}]
    parsed = []
    for i, case in enumerate(cases):
        path = f"moments_cases[{i}]"
        known = case.get("known", [])
        if not isinstance(known, list) or len(known) > 2:
            raise ScenarioError(f"{path}.known", "need at most two known moments")
        if known and abs(known[0]) > 1.0:
            raise ScenarioError(f"{path}.known[0]", f"|M1| = {abs(known[0])} exceeds 1")
        if len(known) == 2 and not known[0] ** 2 <= known[1] <= 1.0:
            raise ScenarioError(f"{path}.known[1]", "M2 must satisfy M1^2 <= M2 <= 1")
        parsed.append({
            "label": case.get("label", f"case{i}"),
            "known": [float(v) for v in known],
            "a0_known": bool(case.get("a0_known", True)),
            "theta": float(case.get("theta", 0.0)),
        })
    return parsed


def _atomic_write(path: Path, data: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, obj) -> str:
    data = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _atomic_write(path, data)
    return data


def design_report(design: dz.SignalDesign) -> dict:
    report = {
        "mode": design.mode,
        "z_points": [_complex_pair(z) for z in design.poles.points],
        "alphas": [_complex_pair(a) for a in design.alphas],
        "epsilon": design.epsilon,
        "epsilon_observed": design.epsilon_observed,
        "d_min": design.poles.d_min,
        "convergent_flag": design.convergent,
    }
    if design.gammas is not None:
        report["gammas"] = [_complex_pair(g) for g in design.gammas]
    if design.alpha0 is not None:
        report["alpha0"] = _complex_pair(design.alpha0)
    if design.b_m is not None:
        report["b_m"] = _complex_pair(design.b_m)
    if design.z0 is not None:
        report["z0"] = _complex_pair(design.z0)
    if design.region_diagnostics is not None:
        report["region_diagnostics"] = {
            str(k): bool(v) for k, v in design.region_diagnostics.items()}
    return report


def _random_measures(rng: np.random.Generator, count: int, atom_count: int = 4):
    atoms = rng.uniform(-1.0, 1.0, size=(count, atom_count))
    weights = rng.uniform(0.05, 1.0, size=(count, atom_count))
    weights /= weights.sum(axis=1, keepdims=True)
    return atoms, weights


def _stress_deviations(design: dz.SignalDesign, atoms: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """|sum alpha_k F_mu(z_k) - target through mu| for a batch of measures.

    By linearity in mu this is |sum_j w_j (rational - target)(lambda_j)|.
    """
    return np.abs(np.sum(weights * (design.rational_eval(atoms)
                                    - design.target_eval(atoms)), axis=1))


def cmd_design(scenario: dict, out_dir: Path, seed: int) -> Path:
    model = build_model(scenario)
    omegas = parse_frequencies(scenario)
    design = build_design(scenario, model, omegas)
    path = out_dir / "design.json"
    write_json(path, design_report(design))
    return path


def cmd_verify(scenario: dict, out_dir: Path, seed: int) -> Path:
    model = build_model(scenario)
    omegas = parse_frequencies(scenario)
    design = build_design(scenario, model, omegas)
    stress = scenario.get("stress", {})
    measure_count = int(stress.get("measure_count", 1000))
    op_dim = int(stress.get("operator_dim", 8))
    op_count = int(stress.get("operator_count", 20))

    rng = np.random.default_rng(seed)
    atoms, weights = _random_measures(rng, measure_count)
    deviations = _stress_deviations(design, atoms, weights)

    report = {
        "seed": seed,
        "design": design_report(design),
        "sup_deviation": {"lambda_star": design.lambda_star,
                          "value": design.epsilon_observed},
        "random_measure_stress": {
            "count": measure_count,
            "max_deviation": float(deviations.max()),
            # a relative tie allowance: an absolute one passes any violation
            # of an epsilon below it
            "within_epsilon": bool(deviations.max() <= design.epsilon * (1.0 + 1e-12)),
        },
    }
    if design.gammas is not None:
        norms = []
        certified = []
        for i in range(op_count):
            a = oz.random_hermitian_in_spectrum(op_dim, seed + i)
            norm, ok = oz.verify_operator_bound(a, design)
            norms.append(norm)
            certified.append(ok)
        report["operator_sweep"] = {
            "dim": op_dim,
            "count": op_count,
            "max_norm": max(norms),
            "all_certified": all(certified),
        }
    path = out_dir / "verify.json"
    write_json(path, report)
    return path


def cmd_simulate(scenario: dict, out_dir: Path, seed: int) -> Path:
    model = build_model(scenario)
    omegas = parse_frequencies(scenario)
    design = build_design(scenario, model, omegas)
    mu = build_measure(scenario)
    grid = build_grid(scenario)
    u = rz.synthesize_input(design, model, omegas, grid)
    v = rz.simulate_response(design, model, omegas, mu, grid)
    header = ["t", "re_u", "im_u", "re_v", "im_v"]
    columns = [grid.times, u.real, u.imag, v.real, v.imag]
    if "compare_omega0" in scenario:
        omega0 = _as_complex(scenario["compare_omega0"], "compare_omega0")
        v0 = rz.single_frequency_response(model, omega0, mu, grid)
        header += ["re_v0", "im_v0"]
        columns += [v0.real, v0.imag]
    path = out_dir / "simulate.csv"
    write_csv(path, header, zip(*columns))
    return path


def cmd_bounds(scenario: dict, out_dir: Path, seed: int):
    model = build_model(scenario)
    omegas = parse_frequencies(scenario)
    design = build_design(scenario, model, omegas)
    grid = build_grid(scenario)
    paths = []
    for case in _moment_cases(scenario):
        lower, upper = rz.response_bounds(
            design, model, omegas, case["known"], case["theta"], grid)
        if not case["a0_known"]:
            # a0 itself unknown in [0,1]: response scales through zero
            lower, upper = (np.minimum(0.0, lower / model.a0),
                            np.maximum(0.0, upper / model.a0))
        path = out_dir / f"bounds_{case['label']}.csv"
        write_csv(path, ["t", "lower", "upper"], zip(grid.times, lower, upper))
        paths.append(path)
    return paths


def cmd_region(scenario: dict, out_dir: Path, seed: int) -> Path:
    spec = _require(scenario, "region", "")
    z0 = _as_complex(_require(spec, "z0", "region"), "region.z0")
    r = spec.get("r", 1.0)
    n = int(spec.get("samples", 256))
    try:
        region = RegionSpec(z0=z0, r=float(r))
    except (ValueError, DegeneratePointError) as exc:
        raise ScenarioError("region", str(exc))
    half_width = 3.0 + abs(z0)
    axis = np.linspace(-half_width, half_width, n)
    inside = in_region_H(axis[:, None] + 1j * axis[None, :], region)
    # a boundary point is inside with an outside four-neighbour; the mesh
    # edge counts as inside
    padded = np.pad(inside, 1, constant_values=True)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    i, j = np.nonzero(inside & ~interior)
    path = out_dir / "region.csv"
    write_csv(path, ["x", "y"], zip(axis[i], axis[j]))
    return path


COMMANDS = {
    "design": cmd_design,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "region": cmd_region,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="markovdesign",
        description="Design and verify measure-independent multi-frequency signals.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--grid-size", type=int, default=None,
                        help="override the sup-norm verification grid size")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        seed = args.seed if args.seed is not None else int(scenario.get("seed", 0))
        if args.grid_size is not None and args.grid_size < 8:
            raise ScenarioError("grid-size", "must be at least 8")
        saved_grid_size = dz.SUP_GRID_SIZE
        dz.SUP_GRID_SIZE = args.grid_size or saved_grid_size
        try:
            result = COMMANDS[args.command](scenario, Path(args.out), seed)
        finally:
            dz.SUP_GRID_SIZE = saved_grid_size
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    paths = result if isinstance(result, list) else [result]
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
