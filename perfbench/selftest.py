"""Self-tests of the benchmark, kept apart from the program's test suite.

Run from the root of the checkout (one to two minutes, most of it the
square workload):

    python3 -m pytest -p no:cacheprovider perfbench/selftest.py -q

They check that the tracer does not change the program (traced and
untraced passes give identical counts), that counts repeat exactly, that
square reproduces the step counts 2410/9630 primal and 2843/11365 dual,
that inputs depend on nothing but the seed, and that BENCHMARK.json names
exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

workloads = run.import_workloads()
WORK = run.WORK / "selftest"


@pytest.fixture(scope="module", autouse=True)
def _clean_work():
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


def _traced_pass(w, prepared):
    tr = tracing.Tracer().install()
    try:
        res, _, ref, _ = run.timed_pass(workloads, w, prepared, WORK, tr)
    finally:
        tr.uninstall()
    return tr, res, ref


def _call_counts(tr) -> dict:
    return {k: v["calls"] for k, v in tr.summary().items() if k != "bench.probe"}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def test_inputs_depend_only_on_seed():
    for name, w in workloads.WORKLOADS.items():
        assert w.inputs(3) == w.inputs(3), name
        if name != "cli_verify":
            assert w.inputs(0) == w.inputs(5), name
    cv = workloads.WORKLOADS["cli_verify"]
    assert cv.inputs(0) != cv.inputs(1)
    assert sorted({s for s, *_ in cv.inputs(0)}) == list(range(40))
    assert len(cv.inputs(1)) == 240
    # another interpreter with another hash seed builds the same inputs
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "w = run.import_workloads().WORKLOADS; "
            "print(repr([w[k].inputs(2) for k in sorted(w)]))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    w = workloads.WORKLOADS
    assert out.stdout.strip() == repr([w[k].inputs(2) for k in sorted(w)])


# ----------------------------------------------------------------------
# tracer mechanics, on a toy package with a fake clock
# ----------------------------------------------------------------------

def _toy_package(now):
    pkg = types.ModuleType("toypkg")
    layer = types.ModuleType("toypkg.layer")
    user = types.ModuleType("toypkg.user")
    src = '''
def inner():
    now[0] += 3

def outer():
    now[0] += 5
    inner()
    now[0] += 7

class Base:
    def value(self):
        now[0] += 2

class Child(Base):
    def value(self):
        now[0] += 1
        return super().value()
'''
    layer.now = now
    exec(compile(src, "toypkg/layer.py", "exec"), layer.__dict__)
    user.inner = layer.inner          # as `from .layer import inner` would bind it
    return {"toypkg": pkg, "toypkg.layer": layer, "toypkg.user": user}


def test_tracer_self_time_rebinding_and_restore(monkeypatch):
    now = [0]
    mods = _toy_package(now)
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    layer, user = mods["toypkg.layer"], mods["toypkg.user"]
    originals = (layer.inner, layer.outer, layer.Base.value, layer.Child.value)
    tr = tracing.Tracer(package="toypkg", clock=lambda: now[0])
    tr.install({"layer": ("inner", "outer", "value", "gone")})
    try:
        assert user.inner is layer.inner is not originals[0]
        layer.outer()
        tr.next_run()
        user.inner()
        layer.Child().value()
    finally:
        tr.uninstall()
    assert (layer.inner, layer.outer, layer.Base.value, layer.Child.value) == originals
    assert user.inner is originals[0]
    s = tr.summary()
    assert s["layer.outer"]["calls"] == 1 and s["layer.outer"]["self_s"] == pytest.approx(12e-9)
    assert s["layer.inner"]["calls"] == 2 and s["layer.inner"]["self_s"] == pytest.approx(6e-9)
    assert s["layer.inner"]["parents"] == {"layer.outer": 1}
    assert s["layer.value"]["calls"] == 2 and s["layer.value"]["self_s"] == pytest.approx(3e-9)
    assert s["layer.gone"]["calls"] == 0 and tr.missing == ["layer.gone"]
    assert list(tr.run) == [0, 0, 1, 1, 1]


# ----------------------------------------------------------------------
# counts: traced == untraced, repeatable, and the reference step counts
# ----------------------------------------------------------------------

def test_cli_verify_counts_repeat_and_survive_tracing():
    w = workloads.WORKLOADS["cli_verify"]
    prepared = w.prepare(w.inputs(0), WORK)
    a, *_ = run.timed_pass(workloads, w, prepared, WORK)
    b, *_ = run.timed_pass(workloads, w, prepared, WORK)
    tr1, t1, _ = _traced_pass(w, prepared)
    tr2, t2, _ = _traced_pass(w, prepared)
    assert a == b == t1 == t2
    assert _call_counts(tr1) == _call_counts(tr2)
    # the known gauss_dual defect stays visible as failed ops
    assert a.ops == 240 and a.failed == 2 and not a.wrong
    assert a.failures == [(8, 1, 256, 2, "ReparametrizationError"),
                          (18, 1, 256, 2, "ReparametrizationError")]
    assert _call_counts(tr1)["cli.execute"] == 240


def test_square_reproduces_reference_step_counts():
    w = workloads.WORKLOADS["square"]
    prepared = w.prepare(w.inputs(0), WORK)
    untraced, *_ = run.timed_pass(workloads, w, prepared, WORK)
    tr, traced, _ = _traced_pass(w, prepared)
    assert untraced == traced
    assert untraced.steps_primal == [2410, 9630]
    assert untraced.steps_dual == [2843, 11365]
    assert untraced.failed == 0 and not untraced.wrong
    calls = _call_counts(tr)
    assert calls["flow.step"] == 2410 + 9630
    assert calls["flow.dual_step"] == 2843 + 11365
    assert calls["sphere_grid.refine_extremum"] == 0
    per_step = tr.summary()["hgeom.geometry_of"]["parents"]["flow.step"] / calls["flow.step"]
    assert per_step == 5.0


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json
# ----------------------------------------------------------------------

def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    timed = run.run_timed("cli_verify", 0, 0.0)
    assert timed["correct"] and timed["failed"] == 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in timed["metrics"].items()}
    w = workloads.WORKLOADS["cli_verify"]
    prepared = w.prepare(w.inputs(0), WORK)
    tr, res, ref = _traced_pass(w, prepared)
    layers = run.layer_metrics(tr, res, 1.0, ref, ref, 1e-3)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}


def test_without_sources_exits_nonzero_and_prints_nothing():
    clean = WORK / "clean"
    shutil.rmtree(clean, ignore_errors=True)
    shutil.copytree(BENCH, clean / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", clean / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=clean, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(clean, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
