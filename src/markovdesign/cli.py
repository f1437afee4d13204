"""Scenario-driven command line: design, verify, simulate, bounds, region.

Scenarios are JSON files (the only input pathway, so reproduction recipes
stay versionable); complex numbers are two-element [re, im] arrays.  Reports
are JSON with sorted keys; time series are CSV with a fixed header and
17-significant-digit floats so doubles round-trip losslessly.

Exit codes: 0 success, 2 scenario validation error (ScenarioError), 3 any
other ValueError or ArithmeticError: the library rejected the input, a float
computation overflowed, or a written report's certificate does not hold.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import design as dz
from . import measure as mz
from . import operators as oz
from . import response as rz
from .geometry import RegionSpec, in_region_H
from .polynomial import ComplexPolynomial


class CertificateViolation(ArithmeticError):
    """A written report whose measured deviation exceeds its certificate."""


class ScenarioError(ValueError):
    """Validation failure naming the offending scenario field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "must be an object")
    return value


def _require(obj: dict, field: str, path: str):
    if field not in _object(obj, path):
        raise ScenarioError(f"{path}.{field}" if path else field, "missing required field")
    return obj[field]


@contextlib.contextmanager
def _field(path: str):
    """Report a library type's KeyError, TypeError or ValueError as the field at path."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(path, str(exc)) from None


def _integer(value, path: str, low: int, high: float = np.inf) -> int:
    # bool is an int subclass; JSON true is not a count
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        bound = f"in [{low}, {high}]" if high < np.inf else f">= {low}"
        raise ScenarioError(path, f"must be an integer {bound}")
    return value


def _real(value, path: str) -> float:
    # bool is an int subclass; NaN, infinities and ints past float range fail the bound
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ScenarioError(path, "must be a finite number")
    return float(value)


def _reals(values, path: str) -> list:
    if not isinstance(values, list):
        raise ScenarioError(path, "must be a list of numbers")
    return [_real(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _as_complex(value, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(path, "complex numbers are two-element [re, im] arrays")
    return complex(*_reals(value, path))


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
    a0 = _real(spec.get("a0", 1.0), "model.a0")
    if not a0 > 0:
        raise ScenarioError("model.a0", "must be a positive finite number")
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
            path = f"model.phases[{i}]"
            numbers = {k: _real(v, f"{path}.{k}") for k, v in _object(ph, path).items()}
            with _field(path):
                built.append(rz.MaxwellPhase(**numbers))
        return rz.SystemModel.two_phase(built[0], built[1], a0)
    raise ScenarioError("model.kind", f"unknown kind {kind!r}")


def parse_frequencies(scenario: dict) -> np.ndarray:
    freqs = _require(scenario, "frequencies", "")
    if not isinstance(freqs, list) or not 1 <= len(freqs) <= dz.MAX_POLES:
        raise ScenarioError("frequencies", f"must be a list of 1 to {dz.MAX_POLES} frequencies")
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


def build_design(scenario: dict, model: rz.SystemModel, omegas: np.ndarray,
                 grid_size=dz.SUP_GRID_SIZE) -> dz.SignalDesign:
    spec = _object(scenario.get("design", {"mode": dz.MODE_UNIT}), "design")
    mode = spec.get("mode", dz.MODE_UNIT)
    poles = build_poles(model, omegas)
    if mode == dz.MODE_UNIT:
        return dz.design_unit(poles, grid_size)
    if mode == dz.MODE_MOMENTS:
        n = _integer(spec.get("n", 1), "design.n", 0, dz.DEGREE_CAP - poles.m)
        return dz.design_moments(poles, n, grid_size)
    if mode in (dz.MODE_FREQUENCY_TARGET, dz.MODE_DERIVATIVE_TARGET):
        if "z0" in spec:
            z0 = _as_complex(spec["z0"], "design.z0")
        elif "omega0" in spec:
            z0 = rz.model_z(model, _as_complex(spec["omega0"], "design.omega0"))
        else:
            raise ScenarioError("design", "target modes need z0 or omega0")
        builder = (dz.design_frequency_target if mode == dz.MODE_FREQUENCY_TARGET
                   else dz.design_derivative_target)
        return builder(poles, z0, grid_size)
    if mode == dz.MODE_ZERO_FACTOR:
        coeffs = _require(spec, "coeffs", "design")
        if not isinstance(coeffs, list) or not coeffs:
            raise ScenarioError("design.coeffs", "must be a nonempty coefficient list")
        s = tuple(_as_complex(c, f"design.coeffs[{i}]") for i, c in enumerate(coeffs))
        with _field("design.coeffs"):  # not monic, or of degree m or more
            return dz.design_with_zero_factor(poles, ComplexPolynomial(s), grid_size)
    raise ScenarioError("design.mode", f"unknown mode {mode!r}")


def build_measure(scenario: dict) -> mz.DiscreteMeasure:
    spec = _require(scenario, "measure", "")
    atoms = _reals(_require(spec, "atoms", "measure"), "measure.atoms")
    weights = _reals(_require(spec, "weights", "measure"), "measure.weights")
    with _field("measure"):
        return mz.DiscreteMeasure(atoms=tuple(atoms), weights=tuple(weights))


def build_grid(scenario: dict) -> rz.TimeGrid:
    spec = _require(scenario, "grid", "")
    steps = _integer(_require(spec, "steps", "grid"), "grid.steps", 2)
    t_start, t_end = (_real(_require(spec, k, "grid"), f"grid.{k}") for k in ("t_start", "t_end"))
    t0 = _real(spec.get("t0", 0.0), "grid.t0")
    with _field("grid"):
        return rz.TimeGrid(t_start=t_start, t_end=t_end, steps=steps, t0=t0)


def _moment_cases(scenario: dict):
    if "moments_cases" in scenario:
        cases = scenario["moments_cases"]
    elif "moments" in scenario:
        cases = [scenario["moments"]]
    else:
        cases = [{"label": "m0_only", "known": [], "a0_known": True}]
    if not isinstance(cases, list):
        raise ScenarioError("moments_cases", "must be a list of objects")
    parsed = []
    for i, case in enumerate(cases):
        path = f"moments_cases[{i}]"
        label = _object(case, path).get("label", f"case{i}")
        # the label names an output file: no path separators or other specials
        if not isinstance(label, str) or not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
            raise ScenarioError(f"{path}.label", "use only letters, digits, '_', '-' and '.'")
        if any(c["label"] == label for c in parsed):  # one output file per label
            raise ScenarioError(f"{path}.label", f"repeats the label {label!r}")
        theta = _real(case.get("theta", 0.0), f"{path}.theta")
        a0_known = case.get("a0_known", True)
        if not isinstance(a0_known, bool):
            raise ScenarioError(f"{path}.a0_known", "must be true or false")
        known = _reals(case.get("known", []), f"{path}.known")
        for k in range(len(known)):
            # the first prefix the library rejects names the offending moment
            with _field(f"{path}.known[{k}]"):
                rz._check_moment_feasibility(known[:k + 1])
        parsed.append({"label": label, "known": known, "a0_known": a0_known, "theta": theta})
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


def write_csv(path: Path, header, columns):
    table = np.column_stack(columns)  # one % pass writes what np.savetxt writes row by row
    rows = (",".join(["%.17g"] * table.shape[1]) + "\n") * len(table)
    _atomic_write(path, ",".join(header) + "\n" + rows % tuple(table.ravel().tolist()))


def write_json(path: Path, obj):
    try:  # JSON has no NaN or infinity
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"{path}: a non-finite number cannot be written as JSON") from None
    _atomic_write(path, text)


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
    for name in ("alpha0", "b_m", "z0"):
        if getattr(design, name) is not None:
            report[name] = _complex_pair(getattr(design, name))
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

    By linearity in mu this is |sum_j w_j E(lambda_j)|, E the sup scan's error.
    """
    error = dz._error_kernel(design)(atoms.ravel())
    return np.hypot(*(weights * np.reshape(error, (2,) + atoms.shape)).sum(axis=-1))


def _designed(scenario: dict, grid_size=dz.SUP_GRID_SIZE):
    """The scenario's model, frequencies and design, measured on grid_size (None: not)."""
    model, omegas = build_model(scenario), parse_frequencies(scenario)
    return model, omegas, build_design(scenario, model, omegas, grid_size)


def _require_certified(path: Path, design: dz.SignalDesign, *flags: bool):
    if not (design.certifies(design.epsilon_observed) and all(flags)):
        raise CertificateViolation(f"{path}: the certificate epsilon does not hold")


def cmd_design(scenario: dict, out_dir: Path, seed: int, grid_size) -> Path:
    design = _designed(scenario, grid_size)[2]
    path = out_dir / "design.json"
    write_json(path, design_report(design))
    _require_certified(path, design)
    return path


def cmd_verify(scenario: dict, out_dir: Path, seed: int, grid_size) -> Path:
    design = _designed(scenario, grid_size)[2]
    stress = _object(scenario.get("stress", {}), "stress")
    measure_count = _integer(stress.get("measure_count", 1000), "stress.measure_count", 1)
    op_dim = _integer(stress.get("operator_dim", 8), "stress.operator_dim", 1, oz.DIM_CAP)
    op_count = _integer(stress.get("operator_count", 20), "stress.operator_count", 1)

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
            "within_epsilon": bool(design.certifies(deviations.max())),
        },
    }
    if design.gammas is not None:
        norms, certified = oz.operator_sweep(design, op_dim, range(seed, seed + op_count))
        report["operator_sweep"] = {"dim": op_dim, "count": op_count,
                                    "max_norm": float(norms.max()),
                                    "all_certified": bool(certified.all())}
    path = out_dir / "verify.json"
    write_json(path, report)
    _require_certified(path, design, report["random_measure_stress"]["within_epsilon"],
                       report.get("operator_sweep", {}).get("all_certified", True))
    return path


def cmd_simulate(scenario: dict, out_dir: Path, seed: int, grid_size) -> Path:
    model, omegas, design = _designed(scenario, None)  # writes no epsilon_observed
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
    write_csv(path, header, columns)
    return path


def cmd_bounds(scenario: dict, out_dir: Path, seed: int, grid_size):
    model, omegas, design = _designed(scenario, None)  # writes no epsilon_observed
    grid = build_grid(scenario)
    envelopes, paths = {}, []  # cases differing only in a0_known share an envelope
    for case in _moment_cases(scenario):
        key = (tuple(case["known"]), case["theta"])
        if key not in envelopes:
            envelopes[key] = rz.response_bounds(design, model, omegas, *key, grid)
        lower, upper = envelopes[key]
        if not case["a0_known"]:
            # a0 itself unknown in [0,1]: response scales through zero
            lower, upper = (np.minimum(0.0, lower / model.a0),
                            np.maximum(0.0, upper / model.a0))
        path = out_dir / f"bounds_{case['label']}.csv"
        write_csv(path, ["t", "lower", "upper"], (grid.times, lower, upper))
        paths.append(path)
    return paths


def cmd_region(scenario: dict, out_dir: Path, seed: int, grid_size) -> Path:
    spec = _require(scenario, "region", "")
    z0 = _as_complex(_require(spec, "z0", "region"), "region.z0")
    r = _real(spec.get("r", 1.0), "region.r")
    n = _integer(spec.get("samples", 256), "region.samples", 2)
    with _field("region"):
        region = RegionSpec(z0=z0, r=r)
    half_width = 3.0 + abs(z0)
    axis = np.linspace(-half_width, half_width, n)
    inside = in_region_H(axis[:, None] + 1j * axis[None, :], region)
    # a boundary point is inside with an outside four-neighbour; the mesh
    # edge counts as inside
    padded = np.pad(inside, 1, constant_values=True)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    i, j = np.nonzero(inside & ~interior)
    path = out_dir / "region.csv"
    write_csv(path, ["x", "y"], (axis[i], axis[j]))
    return path


COMMANDS = {
    "design": cmd_design,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "region": cmd_region,
}


PARSER = argparse.ArgumentParser(
    prog="markovdesign",
    description="Design and verify measure-independent multi-frequency signals.")
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("--scenario", required=True, help="scenario JSON path")
PARSER.add_argument("--out", default=".", help="output directory")
PARSER.add_argument("--seed", type=int, default=None, help="override scenario seed")
PARSER.add_argument("--grid-size", type=int, default=dz.SUP_GRID_SIZE,
                    help="sup grid of design and verify: moves epsilon_observed, not epsilon")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        seed = _integer(args.seed if args.seed is not None else scenario.get("seed", 0),
                        "seed", 0)
        if args.grid_size < 8:
            raise ScenarioError("grid-size", "must be at least 8")
        result = COMMANDS[args.command](scenario, Path(args.out), seed, args.grid_size)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    paths = result if isinstance(result, list) else [result]
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
