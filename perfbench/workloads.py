"""The four benchmark workloads: inputs from a seed, one timed pass, its checks.

Each workload is a class with

    inputs(seed)            -> plain data (strings, numbers, tuples) that
                               depends on nothing but ``seed``;
    prepare(inputs, work)   -> whatever the pass needs (parsed manifests,
                               output directories under ``work``);
    run_pass(prepared, tracer=None) -> PassResult.

A pass is one closed loop over the workload's operations: each call into
dualflow starts when the previous one has returned.  An op is one run (or
one commuting-square evaluation) or one CLI config.  An op fails when it
aborts, exits nonzero, or misses its gate.  A missed numeric gate on an op
that reported no failure is also a wrong output, so it clears ``correct``;
an abort that the program reports (``traj.failure`` or a nonzero exit with
a parseable failure.json) is a failed op, not a wrong output.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualflow import cli, curvfn, diagnostics, dualmap, flow, hgeom, sphere_grid


@dataclass
class PassResult:
    """Outcome of one pass.  Every field is deterministic, so two passes of
    the same inputs must compare equal."""

    ops: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)      # gate misses with no failure report
    failures: list = field(default_factory=list)   # reported aborts, (op label, error)
    err: float = 0.0                 # the workload's verification error
    conv_order: float = 0.0          # 0 where the workload has no refinement pair
    tstar_err: float = 0.0           # 0 where the workload estimates no T*
    steps_primal: list = field(default_factory=list)
    steps_dual: list = field(default_factory=list)
    records: int = 0                 # diagnostics rows written by the CLI
    dual_paired: int = 0             # rows with a finite duality_err
    bytes_out: int = 0               # bytes the CLI wrote


def _begin_op(tracer) -> None:
    if tracer is not None:
        tracer.next_run()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _failure_reported(out: Path) -> str | None:
    """Error class from a parseable failure.json, else None."""
    try:
        return str(json.loads((out / "failure.json").read_text())["error"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


# ----------------------------------------------------------------------
# cli_both: the `dualflow run` product path
# ----------------------------------------------------------------------

class CliBoth:
    """`cli.execute` in both mode on the sigma_k:2 perturbed sphere, m=48.

    Dominated by diagnostics: every record runs inradius_circumradius,
    whose golden-section search calls refine_extremum about 170 times.
    """

    name = "cli_both"
    CONFIG = ('F="sigma_k:2" n=2 m=48 initial="perturbed_sphere" '
              'initial.params=[1.0,0.1,2] mode="both"')

    def inputs(self, seed: int):
        return (self.CONFIG,)

    def prepare(self, inputs, work: Path):
        out = work / self.name
        return [(cli.parse_config(f'{text} out="{out}"'), out) for text in inputs]

    def run_pass(self, prepared, tracer=None) -> PassResult:
        res = PassResult()
        errs = []
        for man, out in prepared:
            _begin_op(tracer)
            res.ops += 1
            rc = cli.execute(man)
            res.bytes_out += _dir_bytes(out)
            if rc != 0:
                res.failed += 1
                kind = _failure_reported(out)
                res.failures.append(("both", rc, kind))
                if kind is None:
                    res.wrong.append(f"exit {rc} without a parseable failure.json")
                continue
            problem, rows = _check_run_outputs(out)
            if problem is None and not rows:
                problem = "diagnostics.csv has no rows"
            paired = [r[diagnostics.CSV_FIELDS.index("duality_err")] for r in rows]
            paired = [e for e in paired if math.isfinite(e)]
            if problem is None and not paired:
                problem = "no record carries a duality error"
            if problem is not None:
                res.failed += 1
                res.wrong.append(problem)
                continue
            res.records += len(rows)
            res.dual_paired += len(paired)
            errs.append(max(paired))
        res.err = max(errs) if errs else math.inf
        return res


def _check_run_outputs(out: Path):
    """(problem or None, parsed csv rows) for the files of a `run`."""
    try:
        lines = (out / "diagnostics.csv").read_text().splitlines()
        if not lines or lines[0] != ",".join(diagnostics.CSV_FIELDS):
            return "diagnostics.csv header differs from CSV_FIELDS", []
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if any(len(r) != len(diagnostics.CSV_FIELDS) for r in rows):
            return "diagnostics.csv row of the wrong width", []
        snaps = json.loads((out / "snapshots.json").read_text())
        if len(snaps["records"]) != len(rows):
            return "snapshots.json and diagnostics.csv disagree on records", []
        for line in (out / "plot.dat").read_text().splitlines()[1:]:
            if len([float(x) for x in line.split()]) != 2:
                return "plot.dat row is not a (tau, osc) pair", []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"output does not parse: {exc}", []
    return None, rows


# ----------------------------------------------------------------------
# square: criterion-3 commuting square for sigma_k:2
# ----------------------------------------------------------------------

class Square:
    """Primal and dual runs to t=0.2 at m=128 and m=256, compared at targets.

    Stepping only: no record is condensed, so refine_extremum is never
    called.  Step counts grow as m^2 under the explicit parabolic bound.
    """

    name = "square"
    F = "sigma_k:2"
    MS = (128, 256)
    TARGETS = (0.04, 0.08, 0.12, 0.16, 0.2)
    T_STOP = 0.2
    MAX_MISMATCH = 5e-4      # criterion 3
    MIN_REFINEMENT = 8.0     # criterion 3
    MAX_SECONDS = 120.0      # criterion 3, for the whole pass

    def inputs(self, seed: int):
        return tuple(
            (m, flow.FlowConfig(F=self.F, n=2, m=m, initial="perturbed_sphere",
                                initial_params=(1.0, 0.1, 2), record_every=10**9))
            for m in self.MS
        )

    def prepare(self, inputs, work: Path):
        return inputs

    def _mismatch(self, m, cfg, res: PassResult) -> float:
        grid = sphere_grid.make_grid(2, m)
        traj = flow.run_flow(cfg, t_targets=self.TARGETS, t_stop=self.T_STOP)
        d0 = dualmap.gauss_dual(hgeom.HyperbolicGraph(grid, traj.states[0].u)).dual
        dtraj = flow.run_dual_flow(cfg, d0, t_targets=self.TARGETS, t_stop=self.T_STOP)
        res.steps_primal.append(traj.steps_taken)
        res.steps_dual.append(dtraj.steps_taken)
        for side, tr in (("primal", traj), ("dual", dtraj)):
            if tr.failure is not None:
                res.failures.append((m, side, tr.failure))
                return math.inf
        prim = {round(s.t, 12): s for s in traj.states}
        dual = {round(s.t, 12): s for s in dtraj.states}
        mismatch = []
        for tt in self.TARGETS:
            key = round(tt, 12)
            if key not in prim or key not in dual:
                res.wrong.append(f"m={m}: target t={tt} not landed")
                return math.inf
            g = hgeom.HyperbolicGraph(grid, prim[key].u)
            u_star = dualmap.gauss_dual(g).dual.u_star
            mismatch.append(np.abs(u_star - dual[key].u_star).max())
        worst = float(np.max(mismatch))  # np.max keeps a NaN visible
        if not math.isfinite(worst):
            res.wrong.append(f"m={m}: mismatch is {worst}")
        return worst

    def run_pass(self, prepared, tracer=None) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        errs = []
        for m, cfg in prepared:
            _begin_op(tracer)
            res.ops += 1
            errs.append(self._mismatch(m, cfg, res))
            if not math.isfinite(errs[-1]):
                res.failed += 1
        e_coarse, e_fine = errs
        if math.isfinite(e_coarse) and e_coarse > self.MAX_MISMATCH:
            res.failed += 1
            res.wrong.append(f"m=128 mismatch {e_coarse:.3e} above {self.MAX_MISMATCH}")
        if math.isfinite(e_coarse) and math.isfinite(e_fine):
            ratio = e_coarse / e_fine if e_fine > 0.0 else math.inf
            res.conv_order = math.log2(ratio)
            if ratio < self.MIN_REFINEMENT:
                res.failed += 1
                res.wrong.append(f"refinement ratio {ratio:.2f} below {self.MIN_REFINEMENT}")
        res.err = e_coarse
        if time.perf_counter() - t0 >= self.MAX_SECONDS:
            res.failed += 1
            res.failures.append(("square", "over the criterion-3 time bound"))
        return res


# ----------------------------------------------------------------------
# battery: 12 speeds on the shrinking sphere
# ----------------------------------------------------------------------

class Battery:
    """Sphere r0=1.0, n=2, m=32, to extinction under every speed of builtin_battery(2).

    Many short runs on tiny arrays: per-call overhead and per-family curvfn
    cost dominate.  Each run is checked against the closed form.
    """

    name = "battery"
    R0 = 1.0
    MAX_ERR = 1e-6           # criterion 1
    MAX_TSTAR_ERR = 1e-5     # criterion 1
    MAX_SECONDS = 10.0       # criterion 1, per run

    def inputs(self, seed: int):
        return tuple(
            flow.FlowConfig(F=name, n=2, m=32, initial="sphere",
                            initial_params=(self.R0,), record_every=50)
            for name in curvfn.builtin_battery(2)
        )

    def prepare(self, inputs, work: Path):
        return inputs

    def run_pass(self, prepared, tracer=None) -> PassResult:
        res = PassResult()
        errs, terrs = [], []
        T_exact = flow.spherical_T_star(self.R0)
        for cfg in prepared:
            _begin_op(tracer)
            res.ops += 1
            t0 = time.perf_counter()
            traj = flow.run_flow(cfg)
            elapsed = time.perf_counter() - t0
            res.steps_primal.append(traj.steps_taken)
            if traj.failure is not None:
                res.failed += 1
                res.failures.append((cfg.F, traj.failure))
                continue
            err = max(float(np.abs(s.u - flow.spherical_theta(s.t, self.R0)).max())
                      for s in traj.states)
            if traj.T_star_estimate is None:
                res.failed += 1
                res.wrong.append(f"{cfg.F}: clean run without a T* estimate")
                continue
            terr = abs(traj.T_star_estimate - T_exact)
            errs.append(err)
            terrs.append(terr)
            if not (err <= self.MAX_ERR and terr <= self.MAX_TSTAR_ERR):
                res.failed += 1
                res.wrong.append(f"{cfg.F}: closed-form error {err:.3e}, T* error {terr:.3e}")
            elif elapsed >= self.MAX_SECONDS:
                res.failed += 1
                res.failures.append((cfg.F, "over the criterion-1 time bound"))
        res.err = max(errs) if errs else math.inf
        res.tstar_err = max(terrs) if terrs else math.inf
        return res


# ----------------------------------------------------------------------
# cli_verify: static duality checks on random convex profiles
# ----------------------------------------------------------------------

class CliVerify:
    """`cli.execute` in verify mode on 240 random_fourier configs.

    40 profile seeds, a block of consecutive integers chosen by the
    workload seed (seed s gives 40 s .. 40 s + 39), times n in {1, 2}
    times m in {64, 128, 256}.  Exercises gauss_dual, verify_duality,
    dual_to_primal and resample_monotone, and is the only workload on
    CircleGrid (n=1).  Some n=1, m=256 profiles abort in gauss_dual with
    ReparametrizationError (seeds 8 and 18 of the seed-0 block); they are
    counted as failed ops, not avoided.
    """

    name = "cli_verify"
    N_SEEDS = 40
    NS = (1, 2)
    MS = (64, 128, 256)

    def inputs(self, seed: int):
        return tuple(
            (s, n, m,
             f'F="power_mean:0.5" n={n} m={m} initial="random_fourier" '
             f'initial.params=[1.0,0.05,4] mode="verify" seed={s}')
            for s in range(self.N_SEEDS * seed, self.N_SEEDS * (seed + 1))
            for n in self.NS
            for m in self.MS
        )

    def prepare(self, inputs, work: Path):
        root = work / self.name
        return [((s, n, m), cli.parse_config(f'{text} out="{root / f"{s}_{n}_{m}"}"'),
                 root / f"{s}_{n}_{m}")
                for s, n, m, text in inputs]

    def run_pass(self, prepared, tracer=None) -> PassResult:
        res = PassResult()
        errs = {}
        for key, man, out in prepared:
            _begin_op(tracer)
            res.ops += 1
            rc = cli.execute(man)
            res.bytes_out += _dir_bytes(out)
            if rc != 0:
                res.failed += 1
                kind = _failure_reported(out)
                res.failures.append((*key, rc, kind))
                if kind is None:
                    res.wrong.append(f"{key}: exit {rc} without a parseable failure.json")
                continue
            try:
                rep = json.loads((out / "verify.json").read_text())
                err = float(rep["duality_err"])
                if not (math.isfinite(err) and isinstance(rep["concavity"], str)):
                    raise ValueError("non-finite duality_err or no concavity verdict")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                res.failed += 1
                res.wrong.append(f"{key}: verify.json does not parse: {exc}")
                continue
            errs[key] = err
        res.err = max(errs.values()) if errs else math.inf
        orders = [
            0.5 * math.log2(errs[(s, n, 64)] / errs[(s, n, 256)])
            for s, n in sorted({(s, n) for s, n, _ in errs})
            if (s, n, 64) in errs and (s, n, 256) in errs
        ]
        res.conv_order = min(orders) if orders else 0.0
        return res


WORKLOADS = {w.name: w for w in (CliBoth(), Square(), Battery(), CliVerify())}


def clear_outputs(work: Path) -> None:
    """Remove what a previous pass wrote, so each pass starts from nothing."""
    for w in WORKLOADS.values():
        shutil.rmtree(work / w.name, ignore_errors=True)
