"""Input generation for the benchmark workloads.

Everything the timed operations receive is built here from the bundled
scenarios and a fixed ellipse pole family.  The seed never changes what the
program computes on; it only orders the operations of a round and feeds the
independent checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from markovdesign import design as dz
from markovdesign import response as rz
from markovdesign.polynomial import ComplexPolynomial

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
BOUNDS_FIGS = ("fig3_visco", "fig4_dielectric", "fig5_plasma", "fig6_freq_target")
REGION_FIG = "fig7_regions"

# The second moment that no bundled scenario prescribes: fig4 with known
# (M1, M2) = (0.4, 0.3), so the n = 2 path of the bounds engine is timed.
M2_CASE = {"label": "m0_m1_m2", "known": [0.4, 0.3], "a0_known": True, "theta": 0.0}

# Fixed, unseeded ellipse family 1.9 cos(theta) + 0.9i sin(theta), phase 0.1.
ELLIPSE_MS = (3, 12, 24, 32, 40, 48)
MOMENT_NS = (0, 2, 8)


def load(name: str) -> dict:
    with open(SCENARIOS / f"{name}.json") as fh:
        return json.load(fh)


def model_of(spec: dict) -> rz.SystemModel:
    a0 = spec.get("a0", 1.0)
    if spec["kind"] == "lossy_dielectric":
        return rz.SystemModel.lossy_dielectric(a0)
    if spec["kind"] == "plasma":
        return rz.SystemModel.plasma(a0)
    p1, p2 = (rz.MaxwellPhase(G=p["G"], eta=p.get("eta")) for p in spec["phases"])
    return rz.SystemModel.two_phase(p1, p2, a0)


def omegas_of(scenario: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in scenario["frequencies"]])


def poles_of(model: rz.SystemModel, omegas) -> dz.PoleSet:
    return dz.PoleSet(points=tuple(rz.model_z(model, w) for w in omegas))


def ellipse_poles(m: int) -> dz.PoleSet:
    theta = 2.0 * np.pi * np.arange(m) / m + 0.1
    return dz.PoleSet(points=tuple(1.9 * np.cos(theta) + 0.9j * np.sin(theta)))


@dataclass
class ScenarioInputs:
    """One bundled scenario turned into library objects."""

    name: str
    scenario: dict
    model: rz.SystemModel
    omegas: np.ndarray
    design: dz.SignalDesign
    grid: rz.TimeGrid
    cases: list


def scenario_inputs(name: str) -> ScenarioInputs:
    scenario = load(name)
    model = model_of(scenario["model"])
    omegas = omegas_of(scenario)
    poles = poles_of(model, omegas)
    spec = scenario.get("design", {"mode": "unit"})
    if spec["mode"] == "unit":
        design = dz.design_unit(poles)
    else:
        z0 = rz.model_z(model, complex(*spec["omega0"]))
        design = dz.design_frequency_target(poles, z0)
    g = scenario["grid"]
    grid = rz.TimeGrid(g["t_start"], g["t_end"], g["steps"], g.get("t0", 0.0))
    cases = [{"label": c["label"], "known": [float(v) for v in c["known"]],
              "a0_known": bool(c.get("a0_known", True)),
              "theta": float(c.get("theta", 0.0))}
             for c in scenario["moments_cases"]]
    if name == "fig4_dielectric":
        cases.append(dict(M2_CASE))
    return ScenarioInputs(name, scenario, model, omegas, design, grid, cases)


@dataclass
class DesignCase:
    """One design_certify operation: a constructor and its arguments."""

    label: str
    mode: str
    poles: dz.PoleSet
    arg: object = None  # n, z0 or the zero-factor polynomial


def design_cases() -> list:
    """All five modes on the bundled frequency sets mapped through the three
    models, and on the ellipse family."""
    sets = []
    freq_sets = {}
    for name in BOUNDS_FIGS:
        sc = load(name)
        freq_sets.setdefault(json.dumps(sc["frequencies"]), (name, omegas_of(sc)))
    fig3, fig6 = load("fig3_visco"), load("fig6_freq_target")
    omega0 = complex(*fig6["design"]["omega0"])
    models = [model_of({"kind": "lossy_dielectric"}), model_of({"kind": "plasma"}),
              model_of(fig3["model"])]
    for fname, omegas in freq_sets.values():
        for model in models:
            sets.append((f"{fname}/{model.kind}", poles_of(model, omegas),
                         rz.model_z(model, omega0)))
    ellipse_z0 = rz.model_z(models[0], omega0)
    sets += [(f"ellipse/m{m}", ellipse_poles(m), ellipse_z0) for m in ELLIPSE_MS]

    cases = []
    for family, poles, z0 in sets:
        cases.append(DesignCase(f"{family}/unit", dz.MODE_UNIT, poles))
        for n in MOMENT_NS:
            cases.append(DesignCase(f"{family}/moments_n{n}", dz.MODE_MOMENTS, poles, n))
        for mode in (dz.MODE_FREQUENCY_TARGET, dz.MODE_DERIVATIVE_TARGET):
            cases.append(DesignCase(f"{family}/{mode}", mode, poles, z0))
        # a root at the first pole drops that frequency from the signal
        s = ComplexPolynomial((-poles.points[0], 1.0))
        cases.append(DesignCase(f"{family}/zero_factor", dz.MODE_ZERO_FACTOR, poles, s))
    return cases


def build_design(case: DesignCase) -> dz.SignalDesign:
    """Call the public constructor for the case (looked up at call time, so
    tracing wrappers installed on the module are seen)."""
    if case.mode == dz.MODE_UNIT:
        return dz.design_unit(case.poles)
    if case.mode == dz.MODE_MOMENTS:
        return dz.design_moments(case.poles, case.arg)
    if case.mode == dz.MODE_FREQUENCY_TARGET:
        return dz.design_frequency_target(case.poles, case.arg)
    if case.mode == dz.MODE_DERIVATIVE_TARGET:
        return dz.design_derivative_target(case.poles, case.arg)
    return dz.design_with_zero_factor(case.poles, case.arg)
