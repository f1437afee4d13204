#!/usr/bin/env python3
"""Benchmark runner for markovdesign.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds_envelopes --seed 1 --seconds 15 --trace 0

The library is imported from the checkout's ``src/`` and driven in this one
single-threaded process.  Whole rounds of the workload's operations run until
``--seconds`` have passed (at least one round); then the outputs are checked
against independent references.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Spans and per-operation details go to ``perfbench/out/``.
See perfbench/README.md.
"""

import os

# pinned before numpy is imported anywhere, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bounds_envelopes", "design_certify", "cli_commands")
SETUP_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> float:
    """Cold import of markovdesign (from this checkout) and scipy.optimize;
    returns the seconds it took."""
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import scipy.optimize  # noqa: F401  (the LP solver response uses; part of set-up)
    import markovdesign
    if Path(markovdesign.__file__).resolve().parent != ROOT / "src" / "markovdesign":
        raise ImportError(f"markovdesign imported from {markovdesign.__file__}, "
                          f"not from {ROOT / 'src'}")
    return time.perf_counter() - start


def prepare(args, work_dir: Path):
    """Inputs and warm-up: everything before the first timed operation."""
    import numpy as np
    import workloads
    from scipy.optimize import linprog

    warnings.filterwarnings("ignore", message="d_min = ")
    workload = workloads.make(args.workload, args.seed, work_dir)
    ops = workload.operations()
    ops = [ops[i] for i in np.random.default_rng(args.seed).permutation(len(ops))]
    linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=(0, None), method="highs")
    return workload, ops


def setup_probe(args) -> int:
    """Child mode: cold set-up of a fresh interpreter, then report and exit."""
    import_ms = import_library() * 1e3
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        prepare(args, Path(tmp))
    print(json.dumps({"import_ms": import_ms}), flush=True)
    return 0


def measure_setup(args):
    """Set-up of SETUP_SAMPLES fresh interpreters, one at a time: seconds from
    spawn to the point where the first operation would start, and the import
    time each reports."""
    seconds, import_ms = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
            if proc.returncode != 0 or not line:
                raise RuntimeError("set-up probe failed")
        seconds.append(ready - start)
        import_ms.append(json.loads(line)["import_ms"])
    return statistics.median(seconds), statistics.median(import_ms)


def run_rounds(ops, seconds: float, digest, first_round: int = 0, max_rounds=None):
    """Whole rounds of ops: at least one, and another only while the mean
    round so far still fits before `seconds` have passed.

    Returns per-operation latencies (seconds, by label), the first round's
    outputs by label (an exception is kept as the output), a digest of every
    round's output by label, the number of rounds and the wall time.  Only
    digests are kept past the first round, so memory does not grow with the
    number of rounds.
    """
    first = {}
    digests = {op.label: [] for op in ops}
    latencies = {op.label: [] for op in ops}
    rounds = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as sink:
        while True:
            for op in ops:
                t = time.perf_counter()
                try:
                    out = op.fn(first_round + rounds)
                except Exception as exc:  # counted as a failed operation
                    out = exc
                latencies[op.label].append(time.perf_counter() - t)
                first.setdefault(op.label, out)
                digests[op.label].append(repr(out) if isinstance(out, Exception)
                                         else digest(out))
            rounds += 1
            sink.seek(0)
            sink.truncate()
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds or rounds == max_rounds:
                break
    return latencies, first, digests, rounds, time.perf_counter() - start


def check(workload, first, digests):
    """Runs the workload's checks; returns (correct, failed count, report).

    An operation that raised fails.  Any other operation must give the same
    output in every round."""
    errored = {label for label, out in first.items() if isinstance(out, Exception)}
    report = workload.check({k: v for k, v in first.items() if k not in errored})
    for label in sorted(errored):
        report.details[label] = {"error": repr(first[label])}
    failed_labels = report.failed | errored
    for label in sorted(set(first) - failed_labels):
        if len(set(digests[label])) != 1:
            report.problems.append(f"{label}: output differs between rounds")
    report.failed = failed_labels
    failed = sum(len(digests[label]) for label in failed_labels)
    return not report.problems, failed, report


def tail(latencies):
    """The highest of p90, p99 and p99.9 with at least ten samples beyond it,
    and its name.  A run with fewer than 100 samples has no such tail; it
    reports its slowest operation."""
    ordered = sorted(latencies)
    n = len(ordered)
    for share, name in ((0.001, "p99.9"), (0.01, "p99"), (0.1, "p90")):
        if n * share >= 10:
            return ordered[int(n * (1.0 - share))], name
    return ordered[-1], "max"


def untraced(args, workload, ops):
    by_label, first, digests, rounds, elapsed = run_rounds(ops, args.seconds,
                                                           workload.digest)
    latencies = [t for values in by_label.values() for t in values]
    tail_s, tail_name = tail(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, _ = measure_setup(args)
    correct, failed, report = check(workload, first, digests)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / elapsed, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "envelope_width": (report.envelope_width, "a0"),
    }
    extra = {"rounds": rounds, "elapsed_s": elapsed, "samples": len(latencies),
             "tail_percentile": tail_name,
             "median_ms": {k: statistics.median(v) * 1e3 for k, v in by_label.items()}}
    return correct, len(latencies), failed, metrics, report, extra, None


def traced(args, workload, ops, work_dir: Path):
    """Pairs of rounds, untraced then traced, while the mean pair still fits
    in `seconds` (at least one pair); then the per-layer probes.  The checks
    and counts cover the untraced rounds."""
    import layers

    tracer = layers.Tracer()
    first, digests, plain, spanned = None, {}, [], []
    start = time.perf_counter()
    while True:
        _, out, dig, _, t_plain = run_rounds(ops, 0.0, workload.digest,
                                             first_round=2 * len(plain), max_rounds=1)
        with tracer.installed():
            *_, t_spanned = run_rounds(ops, 0.0, workload.digest,
                                       first_round=2 * len(plain) + 1, max_rounds=1)
        first = first or out
        for label, values in dig.items():
            digests.setdefault(label, []).extend(values)
        plain.append(t_plain)
        spanned.append(t_spanned)
        pairs = len(plain)
        if (time.perf_counter() - start) * (pairs + 1) / pairs > args.seconds:
            break
    values, probe_tracer = layers.measure(args.seed, work_dir)
    _, import_ms = measure_setup(args)
    correct, failed, report = check(workload, first, digests)
    overhead = statistics.median(b - a for a, b in zip(plain, spanned))
    metrics = {"setup.import_ms": (import_ms, "ms"),
               "trace.overhead_ms": (overhead * 1e3, "ms"), **values}
    spans = {"workload_rounds": tracer.dump(), "layer_probes": probe_tracer.dump()}
    extra = {"pairs": len(plain), "untraced_round_s": statistics.median(plain),
             "traced_round_s": statistics.median(spanned)}
    attempted = sum(len(values) for values in digests.values())
    return correct, attempted, failed, metrics, report, extra, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "markovdesign").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} holds no markovdesign checkout (src/, scenarios/)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    import_library()
    work_dir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        workload, ops = prepare(args, work_dir)
        if args.trace:
            result = traced(args, workload, ops, work_dir)
        else:
            result = untraced(args, workload, ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct, attempted, failed, metrics, report, extra, spans = result
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, problems=report.problems,
                  failed_labels=sorted(report.failed), details=report.details, **extra)
    if spans is not None:
        record["spans"] = spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
