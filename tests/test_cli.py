"""Config parsing, the four subcommands, output files, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow import cli, curvfn, hgeom
from dualflow.cli import (
    ConfigError,
    RunManifest,
    main,
    parse_config,
    serialize_manifest,
    write_outputs,
)
from dualflow.diagnostics import CSV_FIELDS
from dualflow.dualmap import DualityBrokenError
from dualflow.flow import (
    ConvexityError,
    FlowConfig,
    RadauIIA,
    StiffnessError,
    run_flow,
    spherical_theta,
)
from dualflow.hgeom import CausalityError, Graph
from dualflow.sphere_grid import ReparametrizationError, make_grid

EXAMPLE = (
    'F="sigma_k:2" n=2 m=128 initial="perturbed_sphere" '
    "initial.params=[1.0,0.1,2] "
    'mode="both"'
)


def test_parse_example_config():
    man = parse_config(EXAMPLE)
    cfg = man.config
    assert cfg.F == "sigma_k:2"
    assert (cfg.n, cfg.m) == (2, 128)
    assert cfg.initial == "perturbed_sphere"
    assert cfg.initial_params == (1.0, 0.1, 2.0)
    assert man.mode == "both"
    # defaults fill the omitted keys
    assert cfg.u_stop == 0.02
    assert cfg.record_every == 10
    assert man.sigma == 0.1
    assert cfg.seed == 0
    assert man.out == "."


def test_parse_comments_and_newlines():
    man = parse_config(
        '# contraction by the root of the scalar curvature\n'
        'F="sigma_k:2"  # speed\nn=2\nm=64\ninitial="sphere"\n'
        'initial.params=[1.0]\nu_stop=0.15\nseed=7\n'
    )
    assert man.config.u_stop == 0.15
    assert man.config.seed == 7


def test_manifest_round_trip():
    man = parse_config(EXAMPLE)
    again = parse_config(serialize_manifest(man))
    assert again == man


@st.composite
def _manifests(draw):
    n = draw(st.integers(1, 3))
    config = FlowConfig(
        F=draw(st.sampled_from(curvfn.builtin_battery(n))), n=n,
        m=draw(st.integers(16, 1024)),
        initial=draw(st.sampled_from(["sphere", "perturbed_sphere", "ellipsoid",
                                      "random_fourier"])),
        initial_params=tuple(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                           max_size=4))),
        u_stop=draw(st.floats(1e-6, 10.0)),
        record_every=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**31)),
    )
    return RunManifest(config=config, sigma=draw(st.floats(0.0, 1.0, exclude_min=True,
                                                           exclude_max=True)),
                       mode=draw(st.sampled_from(cli.MODES)),
                       out=draw(st.text("abz019_-./ ", min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(man=_manifests())
def test_generated_manifest_round_trip(man):
    assert parse_config(serialize_manifest(man)) == man


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('F="mean" n=2 m=64', "missing required"),
        ('F="mean" n=2 m=64 initial="sphere" colour=3', "unknown config key"),
        ('F="mean" n=2 n=3 m=64 initial="sphere"', "duplicate config key"),
        ('F="power_mean:1.5" n=2 m=64 initial="sphere"', "malformed curvature-function"),
        ('F="geom:nan,nan" n=2 m=64 initial="sphere"', "malformed curvature-function"),
        ('F="mean" n=2 m=64 initial="sphere" mode="sideways"', "mode must be"),
        ('F="mean" n=2 m=64 initial="sphere" sigma=1.5', "sigma out of range"),
        ('F="mean" n=2 m=7 initial="sphere"', "grid parameters"),
        ('F="mean" n=2 m=64 initial="sphere" u_stop=-1.0', "parameter out of range"),
        ('F=mean n=2 m=64 initial="sphere"', "quoted"),
        ('F="mean" n=2 m=64 initial="sphere" ~!garbage', "unparseable"),
        ('F="mean" n=2 m=64 initial="sphere" initial.params=[1,x]', "cannot parse value"),
        ('F="mean" n=2 m=64 initial="sphere" sigma="abc"', "sigma must be numeric"),
        ('F="mean" n=2 m=64 initial="sphere" sigma=[0.5]', "sigma must be numeric"),
        ('F="mean" n=2 m=64 initial="sphere" seed="abc"', "seed must be an integer"),
        ('F="mean" n=2 m=64 initial="sphere" initial.params="abc"',
         "initial.params must be numeric"),
        ('F="mean" n=2 m=64 initial="sphere" seed=1.5', "seed must be an integer"),
        ('F="mean" n=2 m=64 initial="sphere" record_every=2.5',
         "record_every must be an integer"),
        ('F="mean" n=2 m=64 initial="sphere" u_stop=nan', "parameter out of range"),
        ('F="mean" n=2 m=64 initial="sphere" u_stop=inf', "parameter out of range"),
        ('F="mean" n=2 m=64 initial="sphere" initial.params=[nan]', "parameter out of range"),
        ('F="mean" n=2 m=64 initial="sphere" initial.params=[inf]', "parameter out of range"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_parse_lets_unexpected_errors_through(monkeypatch):
    # only construction errors become ConfigError; a bug in the speed
    # registry must surface as itself
    def broken(name, n):
        raise RuntimeError("registry bug")

    monkeypatch.setattr(curvfn, "make_function", broken)
    with pytest.raises(RuntimeError, match="registry bug"):
        parse_config('F="mean" n=2 m=64 initial="sphere"')


def _write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    return [dict(zip(CSV_FIELDS, map(float, ln.split(",")))) for ln in lines[1:]]


def test_run_sphere_primal(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "s.cfg",
        f'F="mean" n=2 m=32 initial="sphere" initial.params=[1.0] '
        f'record_every=20 out="{out}"',
    )
    assert main(["run", cfg]) == 0
    rows = _read_csv(out / "diagnostics.csv")
    assert rows[0]["t"] == 0.0
    assert rows[-1]["u_min"] <= 0.02 + 1e-12
    for row in rows:
        assert abs(row["pinch_ratio"] - 1.0) < 1e-12
        assert abs(row["u_min"] - spherical_theta(row["t"], 1.0)) < 1e-6
        assert abs(row["u_max"] - row["u_min"]) < 1e-12
    snaps = json.loads((out / "snapshots.json").read_text())
    assert snaps["n"] == 2 and snaps["m"] == 32 and snaps["grid"] == "axisym"
    assert len(snaps["theta"]) == 32
    assert snaps["records"][0]["u"] == [1.0] * 32
    assert all(r["u_star"] is None for r in snaps["records"])
    plot = (out / "plot.dat").read_text().splitlines()
    assert plot[0].startswith("#")
    assert len(plot) == 1 + len(rows)  # every sphere row has a finite tau
    assert not (out / "failure.json").exists()


def test_run_both_mode_pairs_dual(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "b.cfg",
        f'F="mean" n=2 m=32 initial="sphere" initial.params=[1.0] '
        f'record_every=20 mode="both" out="{out}"',
    )
    assert main(["run", cfg]) == 0
    rows = _read_csv(out / "diagnostics.csv")
    for row in rows:
        assert abs(row["w_min"] + 1.0) < 1e-9
        assert abs(row["w_max"] + 1.0) < 1e-9
        assert row["duality_err"] < 1e-10
    snaps = json.loads((out / "snapshots.json").read_text())
    assert all(r["u_star"] is not None for r in snaps["records"])
    assert snaps["records"][0]["u_star"] == [-1.0] * 32


def test_run_both_mode_pairs_last_record(tmp_path):
    # the dual's own u_stop test would end it just before the primal's last
    # record; it has to land that record time too
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "b.cfg",
        f'F="mean" n=2 m=32 initial="perturbed_sphere" initial.params=[1.0,0.1,2] '
        f'record_every=20 mode="both" out="{out}"',
    )
    assert main(["run", cfg]) == 0
    rows = _read_csv(out / "diagnostics.csv")
    assert all(math.isfinite(row["duality_err"]) for row in rows)
    snaps = json.loads((out / "snapshots.json").read_text())
    assert len(snaps["records"]) == len(rows)
    assert all(r["u_star"] is not None for r in snaps["records"])


def test_run_dual_mode(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "d.cfg",
        f'F="mean" n=2 m=32 initial="sphere" initial.params=[1.0] '
        f'record_every=20 mode="dual" out="{out}"',
    )
    assert main(["run", cfg]) == 0
    rows = _read_csv(out / "diagnostics.csv")
    assert rows[0]["u_min"] == -1.0
    assert rows[-1]["u_max"] > -0.03
    for row in rows:
        assert math.isnan(row["horoconvex_margin"])
        assert math.isnan(row["rho_minus"])
    snaps = json.loads((out / "snapshots.json").read_text())
    assert all(r["u"] is None for r in snaps["records"])


@pytest.mark.parametrize("mode", ["primal", "dual", "both"])
def test_run_nonconvex_aborts_with_failure_json(tmp_path, mode):
    # every mode starts from the primal's initial state, whose geometry
    # rejects the datum before the dual map or the first step
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "n.cfg",
        f'F="mean" n=2 m=64 initial="perturbed_sphere" '
        f'initial.params=[0.3,0.28,6] mode="{mode}" out="{out}"',
    )
    assert main(["run", cfg]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ConvexityError"
    assert "convex" in failure["message"]
    assert set(failure) == {"error", "message", "t", "steps"}


@pytest.mark.parametrize("exc, name", [(StiffnessError, "stiffness"),
                                       (ConvexityError, "convexity"),
                                       (CausalityError, "causality")])
def test_aborted_run_keeps_its_last_accepted_state(tmp_path, monkeypatch, exc, name):
    # the 6th step raises; no record falls between t = 0 and the abort, so
    # only the last accepted state can say how far the run got
    real_advance = RadauIIA.advance
    accepted = []

    def advance(self, state, cap):
        if len(accepted) == 5:
            raise exc("injected")
        state = real_advance(self, state, cap)
        accepted.append(state.t)
        return state

    monkeypatch.setattr(RadauIIA, "advance", advance)
    text = ('F="mean" n=2 m=32 initial="perturbed_sphere" initial.params=[1.0,0.1,2] '
            'record_every=1000000000')
    traj = run_flow(parse_config(text).config)
    assert traj.failure == name and traj.steps_taken == 5
    assert traj.states[-1].t == accepted[-1] > 0.0
    accepted.clear()
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, "a.cfg", f'{text} out="{out}"')]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": exc.__name__, "message": f"run aborted: {name}",
                       "t": accepted[-1], "steps": 5}


@pytest.mark.parametrize("exc", [DualityBrokenError, CausalityError, ReparametrizationError])
def test_verify_reports_a_broken_gauss_map(tmp_path, monkeypatch, exc):
    def broken(graph):
        raise exc("no dual")

    monkeypatch.setattr(cli, "gauss_dual", broken)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "v.cfg",
                     f'F="mean" n=2 m=32 initial="sphere" initial.params=[0.7] out="{out}"')
    assert main(["verify", cfg]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": exc.__name__, "message": "no dual", "t": 0.0, "steps": 0}
    assert not (out / "verify.json").exists()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.cfg", 'F="mean" n=2 m=64 colour=3')
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_bad_initial_datum_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "p.cfg",
        f'F="mean" n=2 m=32 initial="perturbed_sphere" initial.params=[0.1,0.2,2] '
        f'out="{out}"',
    )
    assert main(["run", cfg]) == 2
    assert "perturbation exceeds the radius" in capsys.readouterr().err


@pytest.mark.parametrize("r0", ["356.0", "700.0", "800.0"])
def test_run_rejects_radius_past_sinh_overflow(tmp_path, capsys, r0):
    # sinh^2 u overflows past about 355.6: stepping such a sphere would run
    # on overflow warnings into a numerical abort, so it is a setup error
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "big.cfg",
        f'F="mean" n=2 m=32 initial="sphere" initial.params=[{r0}] out="{out}"',
    )
    assert main(["run", cfg]) == 2
    assert "sinh^2 overflows" in capsys.readouterr().err
    assert not (out / "failure.json").exists()


def test_value_error_after_setup_propagates(tmp_path, monkeypatch):
    # only a bad initial datum is a setup error; a ValueError from the
    # solver or the diagnostics is a defect and must surface as one
    def broken(*args, **kwargs):
        raise ValueError("defect in the diagnostics")

    monkeypatch.setattr(cli, "compute_record", broken)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "s.cfg",
        f'F="mean" n=2 m=16 initial="sphere" initial.params=[1.0] out="{out}"',
    )
    with pytest.raises(ValueError, match="defect in the diagnostics"):
        main(["run", cfg])


def test_run_does_not_import_scipy(tmp_path):
    # scipy is a test dependency only; importing it would add about
    # 50 MiB to a run's resident set and to its start-up time
    script = (
        "import sys\n"
        "from dualflow import cli\n"
        "man = cli.parse_config('F=\"mean\" n=2 m=16 initial=\"sphere\" "
        "initial.params=[1.0] mode=\"both\" out=\"' + sys.argv[1] + '\"')\n"
        "assert cli.execute(man) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_verify_sphere(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "v.cfg",
        f'F="sigma_k:2" n=2 m=64 initial="sphere" initial.params=[0.8] '
        f'out="{out}"',
    )
    assert main(["verify", cfg]) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["duality_err"] < 1e-10
    assert rep["graph_involution_err"] < 1e-10
    assert rep["inverse_involution_err"] < 1e-12
    assert rep["concavity"] == "strictly_concave"


def test_verify_flags_degenerate_concavity(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "v2.cfg",
        f'F="mean" n=2 m=64 initial="sphere" initial.params=[0.8] out="{out}"',
    )
    assert main(["verify", cfg]) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["concavity"] == "concave_degenerate"


def test_verify_classifies_concavity_in_one_call(tmp_path, monkeypatch):
    # the whole (64, n) kappa sample goes to the classifier at once
    shapes = []
    real = curvfn.check_strict_concavity

    def counted(F, kappa):
        shapes.append(np.shape(kappa))
        return real(F, kappa)

    monkeypatch.setattr(curvfn, "check_strict_concavity", counted)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "v4.cfg",
        f'F="norm_A" n=2 m=64 initial="sphere" initial.params=[0.8] out="{out}"',
    )
    assert main(["verify", cfg]) == 0
    assert shapes == [(64, 2)]
    assert json.loads((out / "verify.json").read_text())["concavity"] == "not_concave"


def _count_geometry_builds(monkeypatch):
    """Wrap hgeom.geometry_of under every name a dualflow module bound it to;
    the returned list gets one entry per call."""
    calls = []
    real = hgeom.geometry_of

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dualflow") and getattr(module, "geometry_of", None) is real:
            monkeypatch.setattr(module, "geometry_of", counted)
    return calls


def test_each_profile_builds_its_geometry_once(tmp_path, monkeypatch):
    # verify: the primal graph and its dual, one build each (the drawn datum
    # is tested for convexity on bare curvatures);
    # primal mode: one per record (the first also gives the pinching weight);
    # dual mode: one per dual record, plus the primal's initial state that
    # the Gauss dual is taken from;
    # both mode: one per primal record (shared by its inball, dual map and
    # duality check, paired dual states are read for u only), plus the
    # dual's initial state
    calls = _count_geometry_builds(monkeypatch)
    out = tmp_path / "v"
    cfg = _write_cfg(
        tmp_path, "v.cfg",
        f'F="sigma_k:2" n=2 m=128 initial="random_fourier" initial.params=[1.0,0.05,4] '
        f'seed=3 out="{out}"',
    )
    assert main(["verify", cfg]) == 0
    assert len(calls) == 2
    for mode, extra in (("primal", 0), ("dual", 1), ("both", 1)):
        calls.clear()
        out = tmp_path / mode
        cfg = _write_cfg(
            tmp_path, f"{mode}.cfg",
            f'F="sigma_k:2" n=2 m=48 initial="perturbed_sphere" initial.params=[1.0,0.1,2] '
            f'mode="{mode}" out="{out}"',
        )
        assert main(["run", cfg]) == 0
        records = len(_read_csv(out / "diagnostics.csv"))
        assert records == 40
        assert len(calls) == records + extra


def test_verify_nonconvex_exit_3(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "v3.cfg",
        f'F="mean" n=2 m=64 initial="perturbed_sphere" '
        f'initial.params=[0.3,0.28,6] out="{out}"',
    )
    assert main(["verify", cfg]) == 3
    assert (out / "failure.json").exists()


def _digest(path):
    return hashlib.md5(path.read_bytes()).hexdigest()


def test_runs_are_deterministic(tmp_path):
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _write_cfg(
            tmp_path, f"{tag}.cfg",
            f'F="sigma_k:2" n=2 m=32 initial="random_fourier" '
            f'initial.params=[1.0,0.05,4] seed=11 record_every=50 out="{out}"',
        )
        assert main(["run", cfg]) == 0
        digests.append((_digest(out / "diagnostics.csv"),
                        _digest(out / "snapshots.json")))
    assert digests[0] == digests[1]


def test_write_outputs_empty_records(tmp_path):
    write_outputs(tmp_path, make_grid(2, 16), [], [])
    assert (tmp_path / "diagnostics.csv").read_text() == ",".join(CSV_FIELDS) + "\n"
    snaps = json.loads((tmp_path / "snapshots.json").read_text())
    assert snaps["records"] == []
    assert (tmp_path / "plot.dat").read_text().splitlines() == ["# tau  osc_u_tilde"]


def test_snapshot_floats_survive_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "r.cfg",
        f'F="sigma_k:2" n=2 m=32 initial="perturbed_sphere" '
        f'initial.params=[1.0,0.1,2] record_every=50 out="{out}"',
    )
    assert main(["run", cfg]) == 0
    snaps = json.loads((out / "snapshots.json").read_text())
    grid = make_grid(2, 32)
    u0 = 1.0 + 0.1 * np.cos(2 * grid.theta)
    assert np.array_equal(np.asarray(snaps["records"][0]["u"]), u0)
    assert np.array_equal(np.asarray(snaps["theta"]), grid.theta)


def test_spherical_subcommand(capsys):
    assert main(["spherical", "--r0", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "0.43378083048302712" in lines[0]
    assert len(lines) == 23
    t0, th0, coth0 = map(float, lines[2].split())
    assert t0 == 0.0
    assert th0 == pytest.approx(1.0, abs=1e-14)
    assert coth0 == pytest.approx(1.0 / math.tanh(1.0), abs=1e-15)
    assert main(["spherical", "--r0", "-1.0"]) == 2
    # outside (0, inf), or with cosh r0 past the float range
    for r0 in ("nan", "inf", "1000", "1e-200"):  # 1e-200: T* underflows
        capsys.readouterr()
        assert main(["spherical", "--r0", r0]) == 2
        assert capsys.readouterr().out == ""
    # where cosh r0 rounds toward 1 the table still follows the flat limit
    for r0 in (1e-9, 2e-8, 1e-7):
        assert main(["spherical", "--r0", repr(r0)]) == 0
        rows = [tuple(map(float, ln.split())) for ln in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 21
        for t, th, coth in rows:
            assert th == pytest.approx(math.sqrt(r0 * r0 - 2.0 * t), rel=1e-12)


def test_sweep_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUALFLOW_THREADS", "2")
    good = tmp_path / "good"
    bad = tmp_path / "bad"
    _write_cfg(tmp_path, "a_good.cfg",
               f'F="mean" n=2 m=32 initial="sphere" initial.params=[1.0] '
               f'record_every=50 out="{good}"')
    _write_cfg(tmp_path, "b_bad.cfg",
               f'F="mean" n=2 m=64 initial="perturbed_sphere" '
               f'initial.params=[0.3,0.28,6] out="{bad}"')
    assert main(["sweep", str(tmp_path)]) == 3
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].endswith("exit 0")
    assert out[1].endswith("exit 3")
    assert main(["sweep", str(tmp_path / "empty")]) == 2

    def no_pool(*args, **kwargs):
        raise AssertionError("pool created")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    for cap in ("0", "-1", "abc"):
        monkeypatch.setenv("DUALFLOW_THREADS", cap)
        assert main(["sweep", str(tmp_path)]) == 2
        assert "DUALFLOW_THREADS must be a positive integer" in capsys.readouterr().err


def test_json_outputs_escape_strings_and_write_nan_as_null(tmp_path):
    message = 'bad "quote" and back\\slash'
    cli._write_failure(tmp_path, "X", message, math.nan, 3)
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure == {"error": "X", "message": message, "t": None, "steps": 3}
    grid = make_grid(2, 16)
    u = np.ones(16)
    u[3] = math.nan
    write_outputs(tmp_path, grid, [], [(0.5, u, None)])
    snaps = json.loads((tmp_path / "snapshots.json").read_text())
    assert snaps["records"] == [{"t": 0.5, "u": [1.0] * 3 + [None] + [1.0] * 12,
                                 "u_star": None}]


def test_run_both_mode_reports_dual_abort(tmp_path, monkeypatch):
    real_run_both = cli.run_both
    dual_runs = []

    def aborting(*args, **kwargs):
        traj, dtraj = real_run_both(*args, **kwargs)
        dtraj.failure = "causality"
        dual_runs.append(dtraj)
        return traj, dtraj

    monkeypatch.setattr(cli, "run_both", aborting)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "b.cfg",
        f'F="mean" n=2 m=32 initial="sphere" initial.params=[1.0] '
        f'u_stop=0.5 record_every=20 mode="both" out="{out}"',
    )
    assert main(["run", cfg]) == 3
    (dtraj,) = dual_runs
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": "CausalityError", "message": "dual run aborted: causality",
                       "t": dtraj.states[-1].t, "steps": dtraj.steps_taken}
    assert (out / "diagnostics.csv").exists()


def test_run_both_mode_dual_dying_first_exits_clean(tmp_path, monkeypatch):
    # the dual of a smaller sphere dies out about 0.04 before the primal's
    # last record; carried on in the primal's variables past its own u_stop,
    # it ends the joint run in an abort, which must leave the row unpaired,
    # not fail the run
    real_run_both = cli.run_both
    dual_runs = []

    def shrunk(cfg, state0, d0):
        traj, dtraj = real_run_both(cfg, state0, Graph(d0.grid, 0.95 * d0.u, -1.0))
        dual_runs.append(dtraj)
        return traj, dtraj

    monkeypatch.setattr(cli, "run_both", shrunk)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path, "b.cfg",
        f'F="mean" n=2 m=16 initial="sphere" initial.params=[1.0] '
        f'record_every=1000000000 mode="both" out="{out}"',
    )
    assert main(["run", cfg]) == 0
    assert not (out / "failure.json").exists()
    (dtraj,) = dual_runs
    assert dtraj.failure is None and dtraj.landed == []
    rows = _read_csv(out / "diagnostics.csv")
    assert len(rows) == 2
    assert dtraj.states[-1].t < rows[-1]["t"] - 0.03
    assert math.isfinite(rows[0]["duality_err"]) and math.isnan(rows[1]["duality_err"])
    snaps = json.loads((out / "snapshots.json").read_text())
    assert snaps["records"][1]["u_star"] is None
