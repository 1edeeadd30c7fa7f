"""Benchmark of the dualflow primal/dual flow harness.

Usage, from the root of a source checkout (dualflow is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 when a result was printed; without ``src/dualflow`` the
run stops with exit code 2 and prints no result.

Every workload runs in this one process on one thread, as a closed loop:
each call into dualflow starts when the previous one returned.  The BLAS
thread count is pinned to 1 (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS are set before numpy loads); the bounds were set on a
2-core machine.  All arrays are at most 256 x 3 doubles, far inside the L2
cache, so no bandwidth or roofline figure is reported: time per call is
the layer figure that matters.

Workloads
---------
Only ``cli_verify`` uses ``--seed``; the other three have fixed inputs.

cli_both    ``cli.execute`` on F="sigma_k:2" n=2 m=48 perturbed_sphere
            [1.0,0.1,2] mode="both", default record_every, writing under
            ``perfbench/_work``.  The ``dualflow run`` product path.  The
            diagnostics layer does most of the work: 448 records, each
            running inradius_circumradius, which calls refine_extremum
            about 170 times.
square      criterion-3 commuting square for sigma_k:2: primal and dual runs
            to t=0.2 landing on t in {0.04, ..., 0.2} at m=128 and m=256, then
            gauss_dual of each primal target against the dual state.
            Stepping only, with step counts growing as m^2 (2410/9630 primal,
            2843/11365 dual); it makes no refine_extremum call, so it bypasses
            the diagnostics.
battery     sphere r0=1.0, n=2, m=32 run to extinction (record_every=50)
            under each of the 12 speeds of builtin_battery(2).  Many short
            runs on tiny arrays: per-call overhead and the per-family curvfn
            cost dominate (5 geometry_of calls per step).  The batch-axis
            target; it shares the flow layer with square at small m, so a
            change that helps large m but adds per-run cost shows here.
cli_verify  ``cli.execute`` in verify mode on 240 configs: 40 profile seeds
            (the block 40*seed .. 40*seed+39) x n in {1, 2} x m in
            {64, 128, 256}, random_fourier [1.0,0.05,4], F="power_mean:0.5".
            The only workload where dualmap (gauss_dual, verify_duality,
            dual_to_primal) and resample_monotone carry real weight, and
            the only one on CircleGrid (n=1).  Measured in a traced run,
            they and refine_extremum hold about a sixth of the self time;
            curvfn's concavity classification of F on 64 random kappa per
            config (check_strict_concavity, value) holds about 70%.
            Known defect kept visible:
            some n=1, m=256 profiles (seeds 8 and 18 of the seed-0 block)
            abort in gauss_dual with ReparametrizationError; they count
            as failed ops.

A pass is the whole workload once.  A timed run repeats passes until
``--seconds`` have gone by (at least one pass; a pass that is longer than
``--seconds`` is not cut) and reports medians over passes.  Every pass must
produce the same counts and errors, bit for bit.

End-to-end metrics (``--trace 0``)
----------------------------------
setup_s      s      process start to the timed phase: interpreter start,
                    imports, building the inputs.  Median of 9 child
                    processes that stop there, 5 started before the passes
                    and 4 after them.  Not scaled by host speed:
                    set-up moves about a third as much as the probe does
                    when the host slows, so scaling would add noise.
wall_ref_s   s      time to a verified result for one pass (run plus output
                    checks), median over passes, in reference-host seconds:
                    the pass's own time, less the probes, times
                    REF_PROBE_S / (mean probe time during the pass).  A 1 ms
                    probe kernel interrupts the pass every 50 ms, so host
                    speed is sampled across the same interval the pass ran
                    in.  The raw time is pass.wall_s in the traced run.
peak_rss_mb  MiB    peak resident set size of the process.
err_digits   decades  -log10 of the workload's verification error against
                    its reference: battery, max |u - closed form|; square,
                    the m=128 mismatch; cli_both, max duality_err in
                    diagnostics.csv; cli_verify, worst duality_err in
                    verify.json.  Higher is better.
``attempted`` and ``failed`` count ops (a run, a commuting-square
evaluation, or a config).  An op fails when it aborts, exits nonzero, or
misses its gate: the criterion-1 and criterion-3 bounds, outputs that
parse, and a CSV header equal to CSV_FIELDS.  ``correct`` is false when an
op that reported no failure misses a numeric or parsing gate, when passes
disagree, or (traced run) when traced and untraced counts differ.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run does one untraced pass and one traced pass; the counts of the
two must be identical.  The tracer (tracer.py) wraps these functions from
outside ``src/`` and keeps every span; spans go to
``perfbench/_out/<workload>-seed<seed>-spans.npz`` and the metrics to
``...-layers.json``.

    sphere_grid   d1, d2, integrate, resample_monotone, refine_extremum
    curvfn        value, gradient, check_strict_concavity
    hgeom         geometry_of, inradius_circumradius, embed_arrays
    dualmap       gauss_dual, desitter_geometry, verify_duality, dual_to_primal
    flow          step, dual_step, run_flow, run_dual_flow, make_initial,
                  estimate_Tstar
    diagnostics   compute_record
    cli           execute, write_outputs

<module>.<fn>.calls                       count  calls in the traced pass
<module>.<fn>.self_s                      s      span time less child spans
<module>.self_s                           s      sum over the module's functions
flow.steps_primal, flow.steps_dual        count  step / dual_step calls
flow.geometry_per_step_primal             ratio  geometry_of calls made inside
                                                 step, per step (5.0; 4 would do)
flow.geometry_per_step_dual               ratio  desitter_geometry calls inside
                                                 dual_step, per dual step
hgeom.inradius.refine_per_call            ratio  refine_extremum calls inside
                                                 inradius_circumradius, per call
hgeom.inradius.dense_fallbacks            count  results flagged dense_fallback
diagnostics.compute_record.p50_ms         ms     median compute_record duration
diagnostics.compute_record.tail_ms        ms     the highest of the 75th, 90th, 99th
                                                 and 99.9th percentiles with at least
                                                 ten samples beyond it (448 records:
                                                 the 90th); the median below 40 samples
cli.bytes_out                             B      bytes the CLI wrote
cli.dual_paired_frac                      ratio  records with a duality error
                                                 (447/448 on cli_both)
trace_overhead_frac                       ratio  traced / untraced reference
                                                 time, minus 1
result.conv_order                         order  square: log2(e128/e256);
                                                 cli_verify: min over (seed, n)
                                                 of 0.5 log2(e64/e256)
result.tstar_err_digits                   decades  battery: -log10 max |T* error|
pass.wall_s                               s      raw wall time of the untraced pass
pass.probe_ms                             ms     mean probe time in that pass
Ratios with no base (no calls) and results a workload does not compute
read 0.

Which end-to-end metric each layer should move, and where
---------------------------------------------------------
* refine_extremum, inradius_circumradius, compute_record: wall_ref_s on
  cli_both; no change on square and battery (0 calls there).
* flow.*, geometry_of, desitter_geometry, steps and geometry per step:
  wall_ref_s on square and battery (about 32% of cli_both); also
  err_digits and result.conv_order on square, result.tstar_err_digits on
  battery.
* curvfn.*: wall_ref_s on battery (27% self time) and square (32%).
* dualmap.*, resample_monotone: wall_ref_s on cli_verify (about 4% of
  cli_both).  check_strict_concavity: wall_ref_s on cli_verify only.
* cli.write_outputs: no measurable change anywhere (0.06 s).
* a batch axis or a Jacobian: peak_rss_mb on battery and square.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
OUT = BENCH / "_out"

SETUP_PROBES = 9
PROBE_INTERVAL_S = 0.05
PROBE_ROUNDS = 100
# probe kernel time on the reference host; wall_ref_s is in seconds of a
# host on which one probe takes exactly this long
REF_PROBE_S = 1.0e-3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------

def probe_kernel() -> float:
    """About 1 ms of small-array numpy arithmetic and interpreter work,
    the same mix as the program's; independent of dualflow."""
    x0 = np.linspace(0.1, 1.0, 64)
    x, acc = x0, 0.0
    for _ in range(PROBE_ROUNDS):
        y = np.sinh(x) * np.cosh(x) + np.sqrt(1.0 + x * x)
        x = x0 + 1e-3 * y[::-1]
        acc += float(y.max())
    return acc


class HostSpeedSampler:
    """Runs probe_kernel every PROBE_INTERVAL_S of a pass and keeps its times.

    SIGALRM interrupts the pass at bytecode boundaries of the main thread,
    so the samples cover the same interval as the pass.  With a tracer the
    handler only queues the probe, which then runs as its own span at the
    next span boundary; the layers' self times exclude it.
    """

    def __init__(self, tr=None):
        self.tracer = tr
        self.kernel = probe_kernel if tr is None else tr.wrap("bench.probe", probe_kernel)
        self.samples: list[float] = []

    def _probe(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def _handler(self, signum, frame) -> None:
        if self.tracer is None:
            self._probe()
        else:
            self.tracer.pending = self._probe

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if self.tracer is not None:
            self.tracer.pending = None
        return False


def burst(n: int = 10) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe_kernel()
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def import_workloads():
    """The workloads module, with dualflow imported from src/ of this checkout."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads

    return workloads


def setup(workload: str, seed: int):
    """Import the program, build the inputs; everything before the timed phase."""
    workloads = import_workloads()
    w = workloads.WORKLOADS[workload]
    work = WORK / str(os.getpid())
    return workloads, w, work, w.prepare(w.inputs(seed), work)


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Process start -> ready of count child processes that stop after set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return times


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def timed_pass(workloads, w, prepared, work: Path, tr=None):
    """(PassResult, raw wall s, reference-host s, mean probe s) of one pass."""
    workloads.clear_outputs(work)
    with HostSpeedSampler(tr) as sampler:
        t0 = time.perf_counter()
        res = w.run_pass(prepared, tr)
        wall = time.perf_counter() - t0
    samples = sampler.samples or burst()
    busy = wall - sum(sampler.samples)
    mean_probe = statistics.fmean(samples)
    return res, wall, busy * REF_PROBE_S / mean_probe, mean_probe


def _digits(err: float) -> float:
    return -math.log10(err) if err > 0.0 and math.isfinite(err) else 0.0


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 0.0


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    workloads, w, work, prepared = setup(workload, seed)
    # half the set-up probes before the passes and half after, so that the
    # median spans the host's state over the whole run
    setup_times = measure_setup(workload, seed, SETUP_PROBES // 2 + 1)
    results, refs = [], []
    t_start = time.perf_counter()
    while True:
        res, _, ref, _ = timed_pass(workloads, w, prepared, work)
        results.append(res)
        refs.append(ref)
        if time.perf_counter() - t_start >= seconds:
            break
    setup_times += measure_setup(workload, seed, SETUP_PROBES // 2)
    first = results[0]
    correct = (all(r == first for r in results)
               and not first.wrong and math.isfinite(first.err))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": correct,
        "attempted": sum(r.ops for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_ref_s": {"value": statistics.median(refs), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
            "err_digits": {"value": _digits(first.err), "unit": "decades"},
        },
    }


def _tail(durations) -> float:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(durations)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return float(np.percentile(durations, pct))
    return float(np.percentile(durations, 50.0)) if n else 0.0


def layer_metrics(tr, traced, wall_u, ref_u, ref_t, probe_u) -> dict:
    """Per-layer metrics from the tracer and the traced pass's result."""
    summ = tr.summary()

    def calls(label):
        return summ[label]["calls"]

    def under(label, parent):
        return summ[label]["parents"].get(parent, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer, names in tracing.TARGETS.items():
        total = 0.0
        for fn in names:
            label = f"{layer}.{fn}"
            m[f"{label}.calls"] = (calls(label), "count")
            m[f"{label}.self_s"] = (summ[label]["self_s"], "s")
            total += summ[label]["self_s"]
        m[f"{layer}.self_s"] = (total, "s")
    steps, dsteps = calls("flow.step"), calls("flow.dual_step")
    rec = summ["diagnostics.compute_record"]["durations"]
    tail = _tail(rec)
    m.update({
        "flow.steps_primal": (steps, "count"),
        "flow.steps_dual": (dsteps, "count"),
        "flow.geometry_per_step_primal": (ratio(under("hgeom.geometry_of", "flow.step"), steps), "ratio"),
        "flow.geometry_per_step_dual": (ratio(under("dualmap.desitter_geometry", "flow.dual_step"), dsteps), "ratio"),
        "hgeom.inradius.refine_per_call": (ratio(under("sphere_grid.refine_extremum", "hgeom.inradius_circumradius"),
                                                 calls("hgeom.inradius_circumradius")), "ratio"),
        "hgeom.inradius.dense_fallbacks": (tr.dense_fallbacks, "count"),
        "diagnostics.compute_record.p50_ms": (float(np.median(rec)) * 1e3 if len(rec) else 0.0, "ms"),
        "diagnostics.compute_record.tail_ms": (tail * 1e3, "ms"),
        "cli.bytes_out": (traced.bytes_out, "B"),
        "cli.dual_paired_frac": (ratio(traced.dual_paired, traced.records), "ratio"),
        "trace_overhead_frac": (ref_t / ref_u - 1.0, "ratio"),
        "result.conv_order": (_finite(traced.conv_order), "order"),
        "result.tstar_err_digits": (_digits(traced.tstar_err), "decades"),
        "pass.wall_s": (wall_u, "s"),
        "pass.probe_ms": (probe_u * 1e3, "ms"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_traced(workload: str, seed: int) -> dict:
    workloads, w, work, prepared = setup(workload, seed)
    untraced, wall_u, ref_u, probe_u = timed_pass(workloads, w, prepared, work)
    tr = tracing.Tracer().install()
    try:
        traced, _, ref_t, _ = timed_pass(workloads, w, prepared, work, tr)
    finally:
        tr.uninstall()
    metrics = layer_metrics(tr, traced, wall_u, ref_u, ref_t, probe_u)
    # the program's own step counters must agree with the traced call counts
    steps_agree = (sum(traced.steps_primal) in (0, metrics["flow.steps_primal"]["value"])
                   and sum(traced.steps_dual) in (0, metrics["flow.steps_dual"]["value"]))
    correct = (untraced == traced and steps_agree
               and not traced.wrong and math.isfinite(traced.err))
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    tr.write_spans(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}-layers.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "counts": dataclasses.asdict(traced),
         "missing": tr.missing, "metrics": metrics}, indent=1) + "\n")
    return {
        "correct": correct,
        "attempted": untraced.ops + traced.ops,
        "failed": untraced.failed + traced.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop after set-up and print 'ready' (used to time set-up)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualflow" / "__init__.py").is_file():
        print(f"perfbench: no dualflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in import_workloads().WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    work = WORK / str(os.getpid())
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.trace:
            result = run_traced(args.workload, args.seed)
        else:
            result = run_timed(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # absent, or in use by another run
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
