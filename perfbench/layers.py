"""Tracing and the per-layer measurements of the traced run.

The tracer records spans at the boundaries of the library's modules, from
outside the program: it replaces public functions on the modules (and on
the modules that imported them by name) with timing wrappers while it is
installed.  Functions called thousands of times per command (the H(r) test,
``model_z``, ``linprog``) get counting wrappers that add their calls and busy
time to the enclosing span instead of making a span per call.  A span's self
time is its duration minus its child spans and counted calls.

``measure`` gives every per-layer metric.  Each calls a module's public
function directly on the inputs of the workload the metric belongs to, so
the traced run of any workload reports the same set.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from markovdesign import cli
from markovdesign import design as dz
from markovdesign import geometry as gz
from markovdesign import measure as mz
from markovdesign import operators as oz
from markovdesign import polynomial as pz
from markovdesign import response as rz

import inputs
from workloads import CERT_RTOL

SPANNED = [
    (dz, "design_unit", "design.design_unit"),
    (dz, "design_moments", "design.design_moments"),
    (dz, "design_frequency_target", "design.design_frequency_target"),
    (dz, "design_derivative_target", "design.design_derivative_target"),
    (dz, "design_with_zero_factor", "design.design_with_zero_factor"),
    (dz, "sup_deviation", "design.sup_deviation"),
    (mz, "sup_deviation", "design.sup_deviation"),
    (rz, "synthesize_input", "response.synthesize_input"),
    (rz, "simulate_response", "response.simulate_response"),
    (rz, "single_frequency_response", "response.single_frequency_response"),
    (rz, "response_bounds", "response.response_bounds"),
    (oz, "random_hermitian_in_spectrum", "operators.random_hermitian_in_spectrum"),
    (oz, "verify_operator_bound", "operators.verify_operator_bound"),
    (oz, "resolvent_combination", "operators.resolvent_combination"),
]
COUNTED = [
    (rz, "model_z", "response.model_z"),
    (rz, "linprog", "response.linprog"),
    (cli, "in_region_H", "geometry.in_region_H"),
]

DESIGN_MS = (3, 12, 24, 48)
DESIGN_MODES = {"unit": "unit", "moments": "moments_n2",
                "frequency_target": "frequency_target",
                "derivative_target": "derivative_target", "zero_factor": "zero_factor"}


class Tracer:
    """In-memory spans: id, name, parent, start, end (perf_counter seconds)."""

    def __init__(self):
        self.spans = []
        self.stack = [None]
        self.counted = {}  # (parent span id, name) -> [calls, busy seconds]

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self.stack[-1],
               "start": perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self.stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counting(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = self.counted.setdefault((self.stack[-1], name), [0, 0.0])
                acc[0] += 1
                acc[1] += perf_counter() - t
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in SPANNED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._spanned(name, getattr(module, attr)))
            for module, attr, name in COUNTED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counting(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @staticmethod
    def duration(rec) -> float:
        return rec["end"] - rec["start"]

    def self_time(self, rec) -> float:
        children = sum(self.duration(s) for s in self.spans if s["parent"] == rec["id"])
        counted = sum(busy for (parent, _), (_, busy) in self.counted.items()
                      if parent == rec["id"])
        return self.duration(rec) - children - counted

    def counted_within(self, rec, name):
        """Calls and busy seconds of a counted function anywhere under rec."""
        ids = {rec["id"]}
        for s in self.spans[rec["id"] + 1:]:
            if s["parent"] in ids:
                ids.add(s["id"])
        calls = busy = 0
        for (parent, n), (c, b) in self.counted.items():
            if n == name and parent in ids:
                calls, busy = calls + c, busy + b
        return calls, busy

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counted": [{"parent": p, "name": n, "calls": c, "busy_s": b}
                            for (p, n), (c, b) in self.counted.items()]}


def _timed(tracer, name, fn, reps: int = 1, **attrs):
    """Run fn reps times, each in its own span; returns (median seconds, spans)."""
    recs = []
    for _ in range(reps):
        with tracer.span(name, **attrs) as rec:
            fn()
        recs.append(rec)
    return statistics.median(Tracer.duration(r) for r in recs), recs


def _per_call_us(tracer, name, calls, loops: int = 5) -> float:
    """Median over loops of the mean time per call, in microseconds."""
    def loop():
        for fn, args in calls:
            fn(*args)
    seconds, _ = _timed(tracer, name, loop, loops)
    return seconds / len(calls) * 1e6


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "bytes" if name.endswith("bytes_written") else "count"


def measure(seed: int, work_dir: Path):
    """Every per-layer metric as name -> (value, unit), with the tracer that
    recorded their spans."""
    tracer = Tracer()
    metrics = {}
    with tracer.installed():
        _response(tracer, metrics)
        _design(tracer, metrics)
        _polynomial(tracer, metrics)
        _geometry_measure_operators(tracer, metrics, seed)
        _cli(tracer, metrics, seed, work_dir)
    return {name: (value, _unit(name)) for name, value in metrics.items()}, tracer


def _response(tracer, metrics):
    scen = [inputs.scenario_inputs(n) for n in inputs.BOUNDS_FIGS]

    def bounds(s, case):
        return lambda: rz.response_bounds(s.design, s.model, s.omegas, case["known"],
                                          case["theta"], s.grid)

    n0 = [_timed(tracer, "probe.bounds", bounds(s, c), 5, case=f"{s.name}/{c['label']}")[0]
          for s in scen for c in s.cases if not c["known"]]
    metrics["response.bounds_n0_ms"] = statistics.median(n0) * 1e3
    fig4 = scen[1]
    lp_calls = lp_busy = 0
    for n, label in ((1, "m0_m1"), (2, "m0_m1_m2")):
        case = next(c for c in fig4.cases if c["label"] == label)
        seconds, recs = _timed(tracer, "probe.bounds", bounds(fig4, case),
                               case=f"{fig4.name}/{label}")
        metrics[f"response.bounds_n{n}_ms"] = seconds * 1e3
        calls, busy = tracer.counted_within(recs[0], "response.linprog")
        lp_calls, lp_busy = lp_calls + calls, lp_busy + busy
    metrics["response.lp_calls"] = lp_calls
    metrics["response.lp_busy_ms"] = lp_busy * 1e3

    sim, syn = [], []
    for s in scen:
        mu = mz.DiscreteMeasure(atoms=tuple(s.scenario["measure"]["atoms"]),
                                weights=tuple(s.scenario["measure"]["weights"]))
        sim.append(_timed(tracer, "probe.simulate", lambda: rz.simulate_response(
            s.design, s.model, s.omegas, mu, s.grid), 20)[0])
        syn.append(_timed(tracer, "probe.synthesize", lambda: rz.synthesize_input(
            s.design, s.model, s.omegas, s.grid), 20)[0])
    metrics["response.simulate_ms"] = statistics.median(sim) * 1e3
    metrics["response.synthesize_ms"] = statistics.median(syn) * 1e3


def _design(tracer, metrics):
    cases = {c.label: c for c in inputs.design_cases()}
    for m in DESIGN_MS:
        for mode, suffix in DESIGN_MODES.items():
            case = cases[f"ellipse/m{m}/{suffix}"]
            seconds, _ = _timed(tracer, "probe.design", lambda: inputs.build_design(case),
                                5, case=case.label)
            metrics[f"design.{mode}.m{m}_ms"] = seconds * 1e3
        unit = inputs.build_design(cases[f"ellipse/m{m}/unit"])
        seconds, _ = _timed(tracer, "probe.sup_deviation",
                            lambda: dz.sup_deviation(unit), 5, m=m)
        metrics[f"design.sup_deviation.m{m}_ms"] = seconds * 1e3
    designs = [inputs.build_design(c) for c in cases.values()]
    metrics["design.cert_violations"] = sum(
        bool(d.epsilon_observed > d.epsilon * (1.0 + CERT_RTOL)) for d in designs)


def _polynomial(tracer, metrics):
    points = inputs.ellipse_poles(48).points
    q = pz.monic_from_roots(points)
    t50 = pz.monic_cheb(50)
    metrics["polynomial.monic_from_roots.m48_us"] = _per_call_us(
        tracer, "probe.monic_from_roots", [(pz.monic_from_roots, (points,))] * 100)
    metrics["polynomial.poly_divmod.m48_us"] = _per_call_us(
        tracer, "probe.poly_divmod", [(pz.poly_divmod, (t50, q))] * 100)
    metrics["polynomial.cheb_eval.m48_us"] = _per_call_us(
        tracer, "probe.cheb_eval", [(pz.cheb_eval, (48, z)) for z in points] * 4)


def _geometry_measure_operators(tracer, metrics, seed):
    region = inputs.load(inputs.REGION_FIG)["region"]
    spec = gz.RegionSpec(z0=complex(*region["z0"]), r=float(region.get("r", 1.0)))
    half = 3.0 + abs(spec.z0)
    grid = np.linspace(-half, half, int(region["samples"]))[::16]
    metrics["geometry.in_region_H_us"] = _per_call_us(
        tracer, "probe.in_region_H",
        [(gz.in_region_H, (complex(x, y), spec)) for x in grid for y in grid])
    poles = [z for c in inputs.design_cases() if c.mode == dz.MODE_UNIT
             for z in c.poles.points]
    metrics["geometry.segment_distance_us"] = _per_call_us(
        tracer, "probe.segment_distance", [(gz.segment_distance, (z,)) for z in poles])

    scen = [inputs.scenario_inputs(n) for n in inputs.BOUNDS_FIGS]
    calls, worst = [], []
    for s in scen:
        mu = mz.DiscreteMeasure(atoms=tuple(s.scenario["measure"]["atoms"]),
                                weights=tuple(s.scenario["measure"]["weights"]))
        calls += [(mz.markov_eval, (mu, z)) for z in s.design.poles.points]
        worst.append(_timed(tracer, "probe.worst_case_point_mass",
                            lambda: mz.worst_case_point_mass(s.design), 5)[0])
    metrics["measure.markov_eval_us"] = _per_call_us(tracer, "probe.markov_eval", calls * 20)
    metrics["measure.worst_case_point_mass_ms"] = statistics.median(worst) * 1e3
    m1 = scen[1].cases[1]["known"][0]
    rand = [_timed(tracer, "probe.random_measure_with_moments",
                   lambda: mz.random_measure_with_moments(m1, 4, seed + i))[0]
            for i in range(20)]
    metrics["measure.random_measure_with_moments_ms"] = statistics.median(rand) * 1e3

    # the operator sweep of `verify`: dim 8, seeds seed + i, the fig4 design
    design = scen[1].design
    ops = [oz.random_hermitian_in_spectrum(8, seed + i) for i in range(20)]
    bound = [_timed(tracer, "probe.verify_operator_bound",
                    lambda: oz.verify_operator_bound(a, design))[0] for a in ops]
    comb = [_timed(tracer, "probe.resolvent_combination",
                   lambda: oz.resolvent_combination(a, design))[0] for a in ops]
    metrics["operators.verify_operator_bound_ms"] = statistics.median(bound) * 1e3
    metrics["operators.resolvent_combination_ms"] = statistics.median(comb) * 1e3


def _cli(tracer, metrics, seed, work_dir):
    runs = [(n, c) for n in inputs.BOUNDS_FIGS for c in ("design", "verify", "simulate")]
    runs.append((inputs.REGION_FIG, "region"))
    self_times = {c: [] for _, c in runs}
    region_calls = []
    with contextlib.redirect_stdout(io.StringIO()):
        for rep in range(3):
            for name, command in runs:
                out = work_dir / f"cli-probe{rep}" / name
                argv = [command, "--scenario", str(inputs.SCENARIOS / f"{name}.json"),
                        "--out", str(out), "--seed", str(seed)]
                with tracer.span(f"cli.{command}", scenario=name) as rec:
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"cli {command} on {name} exited {code}")
                self_times[command].append(tracer.self_time(rec))
                if command == "region":
                    region_calls.append(tracer.counted_within(rec, "geometry.in_region_H")[0])
    for command, values in self_times.items():
        metrics[f"cli.{command}_ms"] = statistics.median(values) * 1e3
    metrics["geometry.in_region_H_calls"] = region_calls[0]
    metrics["cli.bytes_written"] = sum(
        f.stat().st_size for f in (work_dir / "cli-probe0").rglob("*") if f.is_file())
