"""Tests of the benchmark itself: output schema, metric names, checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace  # noqa: E402
import workload  # noqa: E402
from nimg import backbone, moe, tensor as nt  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MANIFEST = workload.MANIFEST
SPEC = workload.SPEC


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_and_workload_names_are_plain():
    names = ([w["name"] for w in MANIFEST["workloads"]]
             + [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_schema(trace, section):
    proc = run_bench("--workload", "denoise_desk", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float) and np.isfinite(m["value"]), name


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("--workload", "denoise_desk", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _fd_error():
    """The directional FD check train_desk runs, on its configured model."""
    w = SPEC["workloads"]["train_desk"]
    fd = w["fd_check"]
    rng = np.random.default_rng(0)
    batch = workload.Batch(rng, (w["batch"], *fd["latent"]))
    prompts = ["red cat under the old tree", "a quiet river"]
    return workload.fd_check_error(workload.ModelConfig(**fd["model"]), batch, prompts,
                                   workload.StageId[w["stage"]], rng)


def test_fd_check_passes_on_the_model():
    assert _fd_error() <= workload.FD_TOLERANCE


def test_fd_check_catches_planted_wrong_pullback(monkeypatch):
    _planted_attention(monkeypatch, pullback=lambda g: (1.01 * g,))
    assert _fd_error() > workload.FD_TOLERANCE


def test_tracer_restores_every_wrapped_name():
    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in layertrace._targets()}
    tracer = layertrace.Tracer()
    tracer.install()
    assert nt.record is not before[(id(nt), "record")]
    tracer.uninstall()
    after = {(id(o), a): o.__dict__[a] for o, a, _, _ in layertrace._targets()}
    assert after == before
    assert backbone.swiglu is moe.swiglu


def _small(name, **changes):
    """A workload's spec entry on the default (4-layer, d=32) model and 4x8x8 latents."""
    return dict(SPEC["workloads"][name], model={}, latent=[4, 8, 8], **changes)


def _planted_attention(monkeypatch, pullback=None, no_grad_scale=1.0):
    """Route every block's attention output through a planted identity op."""
    original = backbone.MoEDiT._attention

    def attention(self, *args):
        y = original(self, *args)
        scale = 1.0 if nt.active_tape() is not None else no_grad_scale
        return nt.record("planted", (y,), (scale * y.data,), pullback or (lambda g: (g,)))[0]

    monkeypatch.setattr(backbone.MoEDiT, "_attention", attention)


def _train_problems(tracer=None):
    wl = workload.Train(_small("train_desk"), seed=0)
    wl.setup()
    return [p for _ in range(2) for p in wl.step(tracer)[1]]


def test_train_checks_pass_on_the_model():
    assert _train_problems() == []


def test_train_checks_catch_planted_dropped_pullback(monkeypatch):
    _planted_attention(monkeypatch, pullback=lambda g: (np.zeros_like(g),))
    problems = _train_problems()
    assert any("attn.wq: .grad is all zero" in p for p in problems), problems


def test_trace_catches_pullback_outside_record(monkeypatch):
    original = backbone.MoEDiT._attention

    def attention(self, *args):
        # identity node appended to the tape without going through record
        y = original(self, *args)
        out = nt.Tensor(y.data.copy(), requires_grad=True)
        nt.active_tape().nodes.append(nt.Node("escaped", (y,), (out,), lambda g: (g,)))
        return out

    monkeypatch.setattr(backbone.MoEDiT, "_attention", attention)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        problems = _train_problems(tracer)
    finally:
        tracer.uninstall()
    assert any("pullbacks were timed" in p for p in problems), problems


def _denoise_problems():
    wl = workload.Denoise(_small("denoise_desk", trajectory_steps=2), seed=0)
    wl.setup()
    for _ in range(4):
        assert wl.step(None)[1] == []
    return wl.final_problems({})


def test_denoise_checks_pass_on_the_model():
    assert _denoise_problems() == []


def test_denoise_checks_catch_planted_wrong_no_grad_result(monkeypatch):
    _planted_attention(monkeypatch, no_grad_scale=1.0 + 1e-9)
    assert any("differs bitwise" in p for p in _denoise_problems())
