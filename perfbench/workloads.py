"""The three workloads: the operations of one round, and the checks run on
their outputs after the timed rounds.

``operations`` lists one round in a fixed order (the runner shuffles it by
seed); the seed also feeds the checks.  ``digest`` condenses an output so the
runner can compare every round with the first without keeping them all.
``check`` gets the first round's outputs and returns the labels of operations
that failed (a violated certificate or a non-zero exit), the problems found
on operations that did not fail, and the workload's ``envelope_width``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from markovdesign import cli
from markovdesign import response as rz

import inputs
import reference as ref

# Envelopes may be looser than the exact extremum over measures by at most
# this share of a0 * sum_k |c_k(t)| / d_k**3, the curvature scale of the
# integrand at time t: a grid method on 2049 atoms needs about 2.4e-7 of it.
TIGHTNESS_TOL = 1e-6
# Enclosure comparisons allow this share of a0 * sum_k |c_k(t)| / d_k, the
# magnitude scale of the integrand, for float64 rounding of both sums.
ROUNDING_TOL = 1e-12
# A certificate holds when the observed and the reference deviation stay
# within epsilon * (1 + CERT_RTOL).  Frequency-target bounds are attained at
# lambda = +-1, where the two float paths differ in the last bits; this slack
# keeps such ties (seen up to 3e-14) from flipping with evaluation order.
CERT_RTOL = 1e-12
# Residues and time series are compared with the reference at this relative
# tolerance of their largest magnitude.
RESIDUE_RTOL = 1e-9


@dataclass
class Op:
    label: str
    fn: object  # fn(round_index) -> output


@dataclass
class Report:
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    envelope_width: float = float("nan")
    details: dict = field(default_factory=dict)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class BoundsEnvelopes:
    """One operation is one response_bounds call: one envelope."""

    name = "bounds_envelopes"

    def __init__(self, seed: int):
        self.seed = seed
        self.scenarios = [inputs.scenario_inputs(n) for n in inputs.BOUNDS_FIGS]
        self.cases = {f"{s.name}/{c['label']}": (s, c)
                      for s in self.scenarios for c in s.cases}

    def operations(self):
        def op(s, c):
            return lambda rnd: rz.response_bounds(
                s.design, s.model, s.omegas, c["known"], c["theta"], s.grid)
        return [Op(label, op(s, c)) for label, (s, c) in self.cases.items()]

    @staticmethod
    def digest(envelope):
        return _sha(*envelope)

    def check(self, outputs) -> Report:
        rep = Report()
        widths = []
        for label, (lower, upper) in outputs.items():
            s, case = self.cases[label]
            idx = list(self.cases).index(label)
            lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
            escaped, problems, details = self._check_envelope(s, case, lower, upper, idx)
            details["problems"] = problems
            rep.details[label] = details
            if escaped:
                rep.failed.add(label)
            else:
                rep.problems += [f"{label}: {p}" for p in problems]
            widths.append(np.mean(upper - lower) / s.model.a0)
        rep.envelope_width = float(np.mean(widths))
        return rep

    def _check_envelope(self, s, case, lower, upper, idx):
        """Returns (escaped, problems, details).  ``escaped`` means an extremal
        measure, which does not depend on the seed, lies outside the envelope:
        the operation failed."""
        a0 = s.model.a0
        times = s.grid.times
        zvals = np.array([ref.z_of(s.scenario["model"], w) for w in s.omegas])
        if lower.shape != times.shape or upper.shape != times.shape:
            return False, [f"envelope shape {lower.shape}"], {}
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            return False, ["non-finite envelope"], {}
        problems = []
        if not np.allclose(zvals, s.design.poles.array, rtol=1e-12, atol=0):
            problems.append("model_z disagrees with the model's definition")
        kernel = ref.response_kernel(s.design.alphas, zvals, s.omegas, times,
                                     s.grid.t0, case["theta"])
        dists = np.abs(zvals - np.clip(zvals.real, -1.0, 1.0))
        etol = ROUNDING_TOL * a0 * (np.abs(kernel) @ (1.0 / dists))
        curvature = a0 * (np.abs(kernel) @ (1.0 / dists ** 3))
        known = case["known"]

        rng = np.random.default_rng([self.seed, idx])
        atoms, weights = ref.admissible_measures(rng, known, 48)
        vals = a0 * ref.measure_values(kernel, zvals, atoms, weights)
        if np.any(lower > vals + etol) or np.any(upper < vals - etol):
            problems.append("a seeded admissible measure escapes the envelope")

        escaped = False
        details = {}
        if len(known) <= 1:
            lam = np.linspace(-1.0, 1.0, 4097)
            g = ref.dense_g(kernel, zvals, lam)
            if known:
                lo = ref.moment_extremum(g, lam, known[0])
                hi = -ref.moment_extremum(-g, lam, known[0])
            else:
                lo, hi = g.min(axis=1), g.max(axis=1)
            lo, hi = a0 * lo, a0 * hi
            excess = np.maximum(lower - lo, hi - upper)
            escaped = bool(np.any(excess > etol))
            details["escape"] = float(excess.max())
            details["escape_t"] = float(times[np.argmax(excess)])
            looseness = np.maximum(lo - lower, upper - hi)
            details["looseness_share"] = float(np.max(looseness / curvature))
            if np.any(looseness > TIGHTNESS_TOL * curvature):
                problems.append(f"envelope looser than the exact extremum by "
                                f"{details['looseness_share']:.3g} of the curvature "
                                f"scale > {TIGHTNESS_TOL}")

        i0 = int(np.argmin(np.abs(times - s.grid.t0)))
        details["t0_gap"] = gap = float(upper[i0] - lower[i0])
        details["width"] = float(np.mean(upper - lower) / a0)
        if s.design.mode == "unit" and case["a0_known"]:
            if gap > 2.0 * a0 * s.design.epsilon + TIGHTNESS_TOL * curvature[i0]:
                problems.append(f"gap at t0 {gap:.6g} exceeds 2 a0 epsilon")
        return escaped, problems, details


class DesignCertify:
    """One operation is one public design constructor, including its sup
    verification."""

    name = "design_certify"

    def __init__(self):
        self.cases = {c.label: c for c in inputs.design_cases()}

    def operations(self):
        def op(case):
            return lambda rnd: inputs.build_design(case)
        return [Op(label, op(c)) for label, c in self.cases.items()]

    @staticmethod
    def digest(design):
        return _sha(design.alphas, [design.epsilon, design.epsilon_observed])

    def check(self, outputs) -> Report:
        rep = Report()
        widths = []
        for label, d in outputs.items():
            eps, obs = d.epsilon, d.epsilon_observed
            if not (np.isfinite(eps) and np.isfinite(obs) and np.all(np.isfinite(d.alphas))):
                rep.problems.append(f"{label}: non-finite design")
                continue
            widths.append(2.0 * eps)
            dev, rounding = ref.design_deviation(d)
            problems = []
            if abs(obs - dev) > 1e-6 * dev + rounding:
                problems.append(f"epsilon_observed {obs:.6g} disagrees with the "
                                f"reference {dev:.6g}")
            rep.details[label] = {"epsilon": eps, "epsilon_observed": obs,
                                  "reference": dev, "ratio": obs / eps,
                                  "problems": problems}
            if max(obs, dev) > eps * (1.0 + CERT_RTOL):
                rep.failed.add(label)
            else:
                rep.problems += [f"{label}: {p}" for p in problems]
        rep.envelope_width = float(np.mean(widths))
        return rep


class CliCommands:
    """One operation is one in-process cli.main call writing into a temporary
    directory; ``--grid-size`` is never passed."""

    name = "cli_commands"
    COMMANDS = ("design", "verify", "simulate")

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.scenarios = {n: inputs.load(n) for n in inputs.BOUNDS_FIGS + (inputs.REGION_FIG,)}
        self.labels = [(n, c) for n in inputs.BOUNDS_FIGS for c in self.COMMANDS]
        self.labels.append((inputs.REGION_FIG, "region"))

    def out_dir(self, rnd: int, scenario: str) -> Path:
        return self.work_dir / f"r{rnd}" / scenario

    def operations(self):
        def op(name, command):
            path = str(inputs.SCENARIOS / f"{name}.json")
            return lambda rnd: cli.main([command, "--scenario", path, "--out",
                                         str(self.out_dir(rnd, name)),
                                         "--seed", str(self.seed)])
        return [Op(f"{n}/{c}", op(n, c)) for n, c in self.labels]

    FILES = {"design": "design.json", "verify": "verify.json",
             "simulate": "simulate.csv", "region": "region.csv"}

    @staticmethod
    def digest(code):
        return code

    def check(self, outputs) -> Report:
        rep = Report()
        rounds = len(list(self.work_dir.glob("r*")))
        widths = []
        for name, command in self.labels:
            label = f"{name}/{command}"
            if label not in outputs:
                continue
            if outputs[label] != 0:
                rep.failed.add(label)
                continue
            files = [self.out_dir(r, name) / self.FILES[command] for r in range(rounds)]
            first = files[0].read_bytes()
            if any(f.read_bytes() != first for f in files[1:]):
                rep.problems.append(f"{label}: output not byte-identical across rounds")
            sc = self.scenarios[name]
            if command == "region":
                rep.problems += self._check_region(label, sc, files[0])
                continue
            design = self._reference_design(sc)
            if command == "design":
                report = json.loads(first)
                widths.append(2.0 * report["epsilon"])
                rep.problems += self._check_design(label, report, design)
            elif command == "verify":
                rep.problems += self._check_verify(label, json.loads(first), design)
            else:
                rep.problems += self._check_simulate(label, sc, files[0], design)
        rep.envelope_width = float(np.mean(widths)) if widths else float("nan")
        return rep

    @staticmethod
    def _reference_design(sc):
        """z_k and alpha_k from the model and mode definitions."""
        omegas = inputs.omegas_of(sc)
        z = np.array([ref.z_of(sc["model"], w) for w in omegas])
        spec = sc.get("design", {"mode": "unit"})
        if spec["mode"] == "unit":
            alphas = ref.unit_residues(z)
        else:
            z0 = ref.z_of(sc["model"], complex(*spec["omega0"]))
            alphas = ref.frequency_target_residues(z, z0)
        return {"mode": spec["mode"], "omegas": omegas, "z": z, "alphas": alphas}

    @staticmethod
    def _close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and np.allclose(
            a, b, rtol=0, atol=RESIDUE_RTOL * max(np.abs(b).max(), 1e-300))

    def _check_design(self, label, report, design):
        problems = []
        z = np.array([complex(*p) for p in report["z_points"]])
        alphas = np.array([complex(*p) for p in report["alphas"]])
        if not self._close(z, design["z"]):
            problems.append(f"{label}: z_points differ from the model maps")
        if not self._close(alphas, design["alphas"]):
            problems.append(f"{label}: alphas differ from the closed form")
        if not report["epsilon_observed"] <= report["epsilon"]:
            problems.append(f"{label}: epsilon_observed exceeds epsilon")
        return problems

    def _check_verify(self, label, report, design):
        problems = []
        eps = report["design"]["epsilon"]
        if report["seed"] != self.seed:
            problems.append(f"{label}: seed {report['seed']} is not the one passed")
        if not self._close([complex(*p) for p in report["design"]["alphas"]],
                           design["alphas"]):
            problems.append(f"{label}: alphas differ from the closed form")
        if not report["sup_deviation"]["value"] <= eps:
            problems.append(f"{label}: sup deviation exceeds epsilon")
        stress = report["random_measure_stress"]
        if not (stress["within_epsilon"] and stress["max_deviation"] <= eps):
            problems.append(f"{label}: random-measure stress exceeds epsilon")
        if not report.get("operator_sweep", {}).get("all_certified", True):
            problems.append(f"{label}: operator sweep not certified")
        return problems

    def _check_simulate(self, label, sc, path, design):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], np.array(rows[1:], dtype=float)
        cols = dict(zip(header, data.T))
        g = sc["grid"]
        t0 = g.get("t0", 0.0)
        times = np.linspace(g["t_start"], g["t_end"], g["steps"])
        a0 = sc["model"].get("a0", 1.0)
        omegas, z, alphas = design["omegas"], design["z"], design["alphas"]
        phase = np.exp(-1j * np.outer(omegas, times - t0))
        if sc["model"]["kind"] == "two_phase":
            c = np.array([ref.maxwell_modulus(sc["model"]["phases"][1], w) for w in omegas])
        else:
            c = np.ones_like(omegas)
        atoms = np.array(sc["measure"]["atoms"], dtype=float)
        weights = np.array(sc["measure"]["weights"], dtype=float)
        f = (weights[None, :] / (atoms[None, :] - z[:, None])).sum(axis=1)
        expected = {"u": (alphas / c) @ phase, "v": a0 * (alphas * f) @ phase}
        if "compare_omega0" in sc:
            w0 = complex(*sc["compare_omega0"])
            f0 = np.sum(weights / (atoms - ref.z_of(sc["model"], w0)))
            expected["v0"] = a0 * f0 * np.exp(-1j * w0 * (times - t0))
        problems = []
        if not self._close(cols.get("t", []), times):
            problems.append(f"{label}: time column differs from the grid")
        for key, want in expected.items():
            got = cols.get(f"re_{key}", np.nan) + 1j * cols.get(f"im_{key}", np.nan)
            if not self._close(got, want):
                problems.append(f"{label}: {key}(t) differs from the reference sum")
        if design["mode"] == "unit":
            i0 = int(np.argmin(np.abs(times - t0)))
            v_t0 = cols["re_v"][i0] + 1j * cols["im_v"][i0]
            eps = 2.0 / (2.0 * min(abs(zk - np.clip(zk.real, -1, 1)) for zk in z)) ** len(z)
            if abs(v_t0 - a0) > a0 * eps:
                problems.append(f"{label}: |v(t0) - a0| exceeds a0 epsilon")
        return problems

    def _check_region(self, label, sc, path):
        spec = sc["region"]
        z0, r, n = complex(*spec["z0"]), float(spec.get("r", 1.0)), int(spec["samples"])
        half = 3.0 + abs(z0)
        grid = np.linspace(-half, half, n)
        inside, boundary = ref.region_boundary(z0, r, grid, grid)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        pts = np.array(rows[1:], dtype=float).reshape(-1, 2)
        idx = np.rint((pts + half) / (2 * half) * (n - 1)).astype(int)
        if idx.size and (idx.min() < 0 or idx.max() >= n
                         or not np.array_equal(grid[idx], pts)):
            return [f"{label}: region points off the scan grid"]
        got = np.zeros_like(boundary)
        got[idx[:, 0], idx[:, 1]] = True
        problems = []
        if not np.all(inside[got]):
            problems.append(f"{label}: a region point violates the H(r) inequalities")
        if not np.all(boundary[got]):
            problems.append(f"{label}: a region point has no outside neighbour")
        if not np.array_equal(got, boundary) or len(pts) != boundary.sum():
            problems.append(f"{label}: region boundary differs from the reference scan")
        return problems


def make(name: str, seed: int, work_dir: Path):
    if name == BoundsEnvelopes.name:
        return BoundsEnvelopes(seed)
    if name == DesignCertify.name:
        return DesignCertify()
    if name == CliCommands.name:
        return CliCommands(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
