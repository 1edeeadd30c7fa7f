"""Command line front end: config parsing, run orchestration, output files.

A run is described by a flat key=value config (strings quoted, lists
bracketed).  `run` integrates and writes diagnostics.csv,
snapshots.json and plot.dat into the configured output directory;
`verify` performs the static duality and concavity checks without time
stepping; `spherical` prints the closed-form table; `sweep` fans a
directory of configs onto a process pool.  Exit codes: 0 success, 2
invariant or configuration violation, 3 numerical abort (with a
machine-readable failure.json).
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import curvfn
from .diagnostics import CSV_FIELDS, compute_record, pinching_epsilon
from .dualmap import (
    CausalityError,
    DualityBrokenError,
    dual_to_primal,
    gauss_dual,
    verify_duality,
)
from .flow import (
    ConvexityError,
    FlowConfig,
    FlowState,
    StiffnessError,
    _ABORTS,
    _sphere_theta,
    make_initial,
    run_both,
    run_dual_flow,
    run_flow,
    spherical_T_star,
    spherical_theta,
)
from .sphere_grid import ReparametrizationError, make_grid

__all__ = ["ConfigError", "RunManifest", "parse_config", "serialize_manifest",
           "execute", "write_outputs", "main"]

MODES = ("primal", "dual", "both", "verify")

_REQUIRED_KEYS = ("F", "n", "m", "initial")
_ALL_KEYS = ("F", "n", "m", "initial", "initial.params", "u_stop",
             "mode", "record_every", "sigma", "out", "seed")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunManifest:
    config: FlowConfig
    sigma: float
    mode: str
    out: str


_TOKEN = re.compile(
    r"""([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*("[^"]*"|\[[^\]]*\]|[^\s#]+)"""
)


def _parse_value(raw: str):
    close = {'"': '"', "[": "]"}.get(raw[0])
    if close and (len(raw) < 2 or raw[-1] != close):
        raise ConfigError(f"unterminated value {raw!r}")
    if raw.startswith('"'):
        return raw[1:-1]
    try:
        if raw.startswith("["):
            body = raw[1:-1].strip()
            return tuple(float(p) for p in body.split(",")) if body else ()
        if re.fullmatch(r"[+-]?\d+", raw):
            value = int(raw)
            float(value)  # an integer no float can hold raises OverflowError
            return value
        return float(raw)
    except OverflowError:
        raise ConfigError(f"integer {raw!r} is too large for a float")
    except ValueError:
        hint = ("a list holds numbers separated by commas" if raw.startswith("[")
                else "strings must be double-quoted")
        raise ConfigError(f"cannot parse value {raw!r}; {hint}")


def parse_config(text: str) -> RunManifest:
    """Parse a flat key=value config into a validated manifest.

    Unknown keys are rejected by name; missing required keys, malformed
    curvature-function strings, and out-of-range parameters each get a
    distinct message.
    """
    seen = {}
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    pos = 0
    for match in _TOKEN.finditer(stripped):
        if stripped[pos:match.start()].strip():
            raise ConfigError(f"unparseable config fragment {stripped[pos:match.start()].strip()!r}")
        key, raw = match.group(1), match.group(2)
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"duplicate config key {key!r}")
        seen[key] = _parse_value(raw)
        pos = match.end()
    if stripped[pos:].strip():
        raise ConfigError(f"unparseable config fragment {stripped[pos:].strip()!r}")
    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise ConfigError(f"missing required config key {key!r}")

    n = seen["n"]
    m = seen["m"]
    if not isinstance(n, int) or not isinstance(m, int):
        raise ConfigError("n and m must be integers")
    F_name = seen["F"]
    if not isinstance(F_name, str):
        raise ConfigError("F must be a quoted curvature-function name")
    try:  # the grid first: it bounds n before the speed builds arrays of size n
        make_grid(n, m)
    except ValueError as exc:
        raise ConfigError(f"grid parameters out of range: {exc}")
    try:
        curvfn.make_function(F_name, n)
    except curvfn.ConstructionError as exc:
        raise ConfigError(f"malformed curvature-function string {F_name!r}: {exc}")

    for key, kinds in (("sigma", (int, float)), ("u_stop", (int, float)), ("seed", int),
                       ("record_every", int), ("initial.params", (int, float, tuple))):
        if not isinstance(seen.get(key, 0), kinds):
            kind = "an integer" if kinds is int else "numeric"
            raise ConfigError(f"{key} must be {kind}, got {seen[key]!r}")
    mode = seen.get("mode", "primal")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    sigma = float(seen.get("sigma", 0.1))
    if not 0.0 < sigma < 1.0:
        raise ConfigError(f"sigma out of range (0, 1): {sigma}")
    params = seen.get("initial.params", ())
    if not isinstance(params, tuple):
        params = (params,)
    initial = seen["initial"]
    if not isinstance(initial, str):
        raise ConfigError("initial must be a quoted name")
    try:
        config = FlowConfig(F=F_name, n=n, m=m, initial=initial, initial_params=params,
                            **{k: seen[k] for k in ("u_stop", "record_every", "seed") if k in seen})
    except ValueError as exc:
        raise ConfigError(f"parameter out of range: {exc}")
    out = seen.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("out must be a quoted path")
    return RunManifest(config=config, sigma=sigma, mode=mode, out=out)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def serialize_manifest(man: RunManifest) -> str:
    """Emit a config text that parses back to an equal manifest."""
    cfg = man.config
    parts = [
        f'F="{cfg.F}"',
        f"n={cfg.n}",
        f"m={cfg.m}",
        f'initial="{cfg.initial}"',
        "initial.params=[" + ",".join(_fmt(p) for p in cfg.initial_params) + "]",
        f"u_stop={_fmt(cfg.u_stop)}",
        f"record_every={cfg.record_every}",
        f"sigma={_fmt(man.sigma)}",
        f'mode="{man.mode}"',
        f'out="{man.out}"',
        f"seed={cfg.seed}",
    ]
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------

def _plain(x):
    """x as plain JSON data; non-finite numbers become None, i.e. null."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return [v if math.isfinite(v) else None for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _write_json(path: Path, obj) -> None:
    # json.dumps, unlike json.dump, takes the C encoder: the same bytes, faster
    with open(path, "w") as fh:
        fh.write(json.dumps(_plain(obj), allow_nan=False) + "\n")


def write_outputs(out_dir: Path, grid, records: list, snapshots: list) -> None:
    """diagnostics.csv, snapshots.json and plot.dat under out_dir.

    records are DiagnosticsRecord rows; snapshots are (t, u, u_star)
    triples with u or u_star possibly None.  CSV numbers carry 17
    significant digits and JSON numbers their shortest round-trip form,
    so binary64 values survive; JSON writes NaN and infinities as null.
    """
    csv_path = out_dir / "diagnostics.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec.as_row()) + "\n")

    _write_json(out_dir / "snapshots.json", {
        "n": grid.n,
        "m": grid.m,
        "grid": "circle" if grid.cyclic else "axisym",
        "theta": grid.theta,
        "records": [{"t": t, "u": u, "u_star": u_star} for t, u, u_star in snapshots],
    })

    with open(out_dir / "plot.dat", "w") as fh:
        fh.write("# tau  osc_u_tilde\n")
        for rec in records:
            if math.isfinite(rec.tau):
                osc = (rec.u_max - rec.u_min) * math.exp(rec.tau)
                fh.write(f"{_fmt(rec.tau)} {_fmt(osc)}\n")


def _write_failure(out_dir: Path, kind: str, message: str, t: float, steps: int) -> None:
    _write_json(out_dir / "failure.json",
                {"error": kind, "message": message, "t": t, "steps": steps})


# failure.json names each abort of a trajectory by its exception class
_FAILURE_NAMES = {name: exc.__name__ for exc, name in _ABORTS.items()}


# ----------------------------------------------------------------------
# execution modes
# ----------------------------------------------------------------------

def _theta_of(t: float, T_star) -> float:
    if T_star is None or t >= T_star:
        return math.nan
    return _sphere_theta(t, T_star)


def _initial_state(cfg: FlowConfig) -> FlowState:
    """The configured initial datum (make_initial) as the primal's state at
    t = 0, the start of every mode; parameters it rejects are a setup
    error."""
    grid = make_grid(cfg.n, cfg.m)
    try:
        u0 = make_initial(cfg.initial, cfg.initial_params, grid, cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return FlowState(0.0, u0, grid, curvfn.make_function(cfg.F, cfg.n), 1.0)


def _execute_run(man: RunManifest, out_dir: Path) -> int:
    cfg = man.config
    state0 = _initial_state(cfg)
    # gauss_dual rejects a datum that is not strictly convex by the state's
    # geometry, as the primal run does; in both mode each primal record has
    # its dual at the same t, unless the dual ended first
    if man.mode == "primal":
        trajs = [run_flow(cfg, u0=state0.u)]
    elif man.mode == "dual":
        trajs = [run_dual_flow(cfg, gauss_dual(state0).dual)]
    else:
        trajs = run_both(cfg, state0, gauss_dual(state0).dual)
    traj = trajs[0]
    duals = [None] * len(traj.states)
    for dtraj in trajs[1:]:
        for i, j in enumerate([0] + dtraj.landed):
            duals[i] = dtraj.states[j]
    eps = pinching_epsilon(traj.states[0].geometry, cfg.n)
    records = compute_record(traj.states, duals,
                             [_theta_of(s.t, traj.T_star_estimate) for s in traj.states],
                             epsilon=eps, sigma=man.sigma)
    snaps = []
    for s, d in zip(traj.states, duals):
        primal, dual = (s, d) if s.eps > 0 else (None, s)
        snaps.append((s.t, *(None if x is None else x.u for x in (primal, dual))))
    write_outputs(out_dir, state0.grid, records, snaps)
    # the primal abort comes first; a dual abort is reported on its own
    for tr in trajs:
        if tr.failure is not None:
            label = "run" if tr.states[0].eps > 0 else "dual run"
            _write_failure(out_dir, _FAILURE_NAMES[tr.failure], f"{label} aborted: {tr.failure}",
                           tr.states[-1].t, tr.steps_taken)
            return 3
    return 0


def _execute_verify(man: RunManifest, out_dir: Path) -> int:
    """Static checks on the initial surface: duality identities, the
    involution, and the concavity classification of the speed."""
    cfg = man.config
    g = _initial_state(cfg)
    F = g.F
    try:
        pair = gauss_dual(g)
        rep = verify_duality(pair)
        back = dual_to_primal(pair.dual)
    except (DualityBrokenError, CausalityError, ReparametrizationError) as exc:
        _write_failure(out_dir, type(exc).__name__, str(exc), 0.0, 0)
        return 2
    inv_err = float(np.abs(back.u - g.u).max())
    rng = np.random.default_rng(cfg.seed)
    kappa = np.exp(rng.uniform(-1.0, 1.0, size=(64, cfg.n)))
    invol_err = float(np.abs(curvfn.invert(curvfn.invert(F)).value(kappa) - F.value(kappa)).max())
    _write_json(out_dir / "verify.json", {
        "duality_err": rep.worst(),
        "kappa_product_err": rep.max_kappa_product_error,
        "h_mismatch": rep.max_h_mismatch,
        "relation_err": rep.relation_u_ustar_error,
        "graph_involution_err": inv_err,
        "inverse_involution_err": invol_err,
        "concavity": curvfn.check_strict_concavity(F, kappa),
    })
    return 0


def execute(man: RunManifest) -> int:
    """Run one manifest; returns the process exit code."""
    out_dir = Path(man.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {man.out!r}: {exc}", file=sys.stderr)
        return 2
    try:
        if man.mode == "verify":
            return _execute_verify(man, out_dir)
        return _execute_run(man, out_dir)
    except (ConvexityError, StiffnessError, CausalityError, DualityBrokenError,
            ReparametrizationError, curvfn.DomainError) as exc:
        _write_failure(out_dir, type(exc).__name__, str(exc), 0.0, 0)
        return 3
    except ConfigError as exc:
        print(f"invalid run setup: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_run(args) -> int:
    """The run and verify subcommands; verify overrides the config's mode."""
    try:
        man = parse_config(Path(args.config).read_text())
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return execute(replace(man, mode="verify") if args.command == "verify" else man)


def _cmd_spherical(args) -> int:
    r0 = args.r0
    try:
        T = spherical_T_star(r0)
    except ValueError as exc:
        print(f"invalid --r0: {exc}", file=sys.stderr)
        return 2
    print(f"# r0 = {_fmt(r0)}  T* = ln cosh r0 = {_fmt(T)}")
    print("# t  Theta  coth(Theta)")
    for k in range(21):
        t = T * k / 21.0
        th = spherical_theta(t, r0)
        print(f"{_fmt(t)} {_fmt(th)} {_fmt(1.0 / math.tanh(th))}")
    return 0


def _sweep_one(path: str) -> tuple:
    try:
        man = parse_config(Path(path).read_text())
    except (ConfigError, OSError) as exc:
        return path, 2, str(exc)
    return path, execute(man), ""


def _cmd_sweep(args) -> int:
    from concurrent.futures import ProcessPoolExecutor

    paths = sorted(str(p) for p in Path(args.dir).glob("*.cfg"))
    if not paths:
        print(f"no .cfg files under {args.dir!r}", file=sys.stderr)
        return 2
    cap = os.environ.get("DUALFLOW_THREADS") or str(os.cpu_count() or 1)
    if not (cap.isdecimal() and int(cap) >= 1):
        print(f"DUALFLOW_THREADS must be a positive integer, got {cap!r}", file=sys.stderr)
        return 2
    worst = 0
    with ProcessPoolExecutor(max_workers=min(len(paths), int(cap))) as pool:
        for path, code, msg in pool.map(_sweep_one, paths):
            suffix = f"  ({msg})" if msg else ""
            print(f"{path}: exit {code}{suffix}")
            worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="dualflow",
        description="contracting curvature flows in hyperbolic space and their de Sitter duals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate one configured flow")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)
    p_ver = sub.add_parser("verify", help="static duality checks, no time stepping")
    p_ver.add_argument("config")
    p_ver.set_defaults(func=_cmd_run)
    p_sph = sub.add_parser("spherical", help="closed-form sphere table")
    p_sph.add_argument("--r0", type=float, required=True)
    p_sph.set_defaults(func=_cmd_spherical)
    p_swp = sub.add_parser("sweep", help="run every *.cfg in a directory")
    p_swp.add_argument("dir")
    p_swp.set_defaults(func=_cmd_sweep)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
