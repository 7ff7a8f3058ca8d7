"""Run one benchmark workload in this process and print its result.

run.py starts this file in a child process whose BLAS and OpenMP thread
counts are pinned and whose PYTHONPATH holds the package sources. The last
line printed is the result JSON: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from nimg import tensor as nt
from nimg.backbone import ModelConfig, MoEDiT
from nimg.router import StageId

import checks
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
F64 = np.float64
clock = time.perf_counter

WORDS = ("red", "blue", "green", "small", "large", "old", "bright", "dark",
         "cat", "dog", "tree", "river", "house", "road", "stone", "cloud",
         "field", "glass", "light", "bird", "boat", "hill", "lamp", "door",
         "under", "over", "near", "beside", "morning", "winter", "quiet", "painted")

PROMPT_WORDS = 8
INPUT_BATCHES = 2          # distinct inputs cycled through by the timed steps
SETUP_MIN_REPEATS = 5      # set-ups per untraced run, and at least
SETUP_MIN_SECONDS = 2.0    # this much time spent on them
COVERAGE_MIN_SHARE = 0.9   # top-level spans must cover this share of step time
MODULATION_SEED = 1
MODULATION_STD = 0.3
FD_TOLERANCE = 1e-6


class Batch:
    """One generated training batch: noisy latent, timesteps, target velocity."""

    def __init__(self, rng: np.random.Generator, shape: tuple[int, ...]):
        x0 = rng.standard_normal(shape)
        noise = rng.standard_normal(shape)
        self.t = rng.uniform(0.0, 1.0, shape[0])
        tt = self.t[:, None, None, None]
        self.z = nt.Tensor((1.0 - tt) * x0 + tt * noise, dtype=F64)
        self.target = nt.Tensor(noise - x0, dtype=F64)


def randomise_modulation(model: MoEDiT, rng: np.random.Generator) -> None:
    """Give the adaLN modulation weights non-zero values.

    At their zero init tanh(gate) = 0, so every block is an identity: its
    attention, router and expert weights get exactly zero gradients and its
    output ignores any error in them. Checks would then see only the patch
    and final-projection path.
    """
    for name, p in model.named_parameters().items():
        if "mod." in name:
            p.data = MODULATION_STD * rng.standard_normal(p.shape)


def mse(vel: nt.Tensor, target: nt.Tensor) -> nt.Tensor:
    diff = nt.sub(vel, target)
    return nt.mean(nt.mul(diff, diff))


class Workload:
    """Inputs drawn from the seed, plus the model the last set-up built."""

    def __init__(self, w: dict, seed: int):
        self.cfg = ModelConfig(**w["model"])
        self.stage = StageId[w["stage"]]
        self.shape = (w["batch"], *w["latent"])
        rng = np.random.default_rng(seed)
        self.prompts = [" ".join(rng.choice(WORDS, PROMPT_WORDS))
                        for _ in range(w["batch"])]
        self.rng = rng
        self.model = None
        self.done = 0

    def setup(self) -> float:
        """Build the model and run one warm-up step; returns seconds taken."""
        self.model = None
        start = clock()
        self.model = MoEDiT(self.cfg)
        randomise_modulation(self.model, np.random.default_rng(MODULATION_SEED))
        self._prepare()
        self._step(self.done)
        return clock() - start

    def step(self, tracer: Tracer | None) -> tuple[float, list[str]]:
        """One timed step; returns its wall time and any failed checks."""
        i = self.done
        self.done += 1
        return self._timed_step(i, tracer)

    def _prepare(self) -> None:
        pass


class Train(Workload):
    """Forward + MSE loss + backward, with text KV recomputed on the tape."""

    def __init__(self, w: dict, seed: int):
        super().__init__(w, seed)
        self.batches = [Batch(self.rng, self.shape)
                        for _ in range(INPUT_BATCHES)]
        self.ref_loss: dict[int, bytes] = {}

    def _prepare(self) -> None:
        self.params = self.model.named_parameters()

    def _step(self, i: int):
        b = self.batches[i % len(self.batches)]
        with nt.Tape() as tape:
            ctx = self.model.precompute_text_kv(self.prompts)
            vel, _ = self.model.forward(b.z, b.t, ctx, self.stage)
            loss = mse(vel, b.target)
        nt.backward(tape, loss)
        return tape, loss

    def _timed_step(self, i: int, tracer: Tracer | None):
        for p in self.params.values():
            p.grad = None
        start = clock()
        tape, loss = self._step(i)
        wall = clock() - start
        problems = [] if np.isfinite(loss.data).all() else ["loss is not finite"]
        if tracer is not None:
            problems += tracer.note_tape(tape)
        problems += checks.grad_problems(self.params)
        bits = loss.data.tobytes()
        ref = self.ref_loss.setdefault(i % len(self.batches), bits)
        if bits != ref:
            problems.append("loss differs bitwise from an earlier step on the same batch")
        return wall, problems

    def final_problems(self, w: dict) -> list[str]:
        fd = w["fd_check"]
        batch = Batch(self.rng, (w["batch"], *fd["latent"]))
        err = fd_check_error(ModelConfig(**fd["model"]), batch, self.prompts,
                             self.stage, self.rng)
        print(f"directional FD check: relative error {err:.3e} "
              f"(tolerance {FD_TOLERANCE:.0e})")
        if err <= FD_TOLERANCE:
            return []
        return [f"directional finite difference: relative error {err:.3e} "
                f"> {FD_TOLERANCE:.0e}"]


def fd_check_error(cfg: ModelConfig, batch: Batch, prompts: list[str],
                   stage: StageId, rng: np.random.Generator) -> float:
    """Whole-model directional FD check on a fresh model.

    Modulation is randomised first, as in every workload's set-up.
    """
    model = MoEDiT(cfg)
    randomise_modulation(model, rng)
    params = model.named_parameters()

    def loss_fn():
        ctx = model.precompute_text_kv(prompts)
        vel, _ = model.forward(batch.z, batch.t, ctx, stage)
        return mse(vel, batch.target)

    return checks.directional_fd_error(loss_fn, list(params.values()), rng)


class Denoise(Workload):
    """No-grad Euler steps over trajectories that share one TextContext."""

    def __init__(self, w: dict, seed: int):
        super().__init__(w, seed)
        self.traj = w["trajectory_steps"]
        self.starts = [nt.Tensor(self.rng.standard_normal(self.shape), dtype=F64)
                       for _ in range(INPUT_BATCHES)]
        self.samples: list[tuple[nt.Tensor, float, np.ndarray]] = []

    def _prepare(self) -> None:
        with nt.no_grad():
            self.ctx = self.model.precompute_text_kv(self.prompts)

    def _step(self, i: int):
        k = i % self.traj
        if k == 0:
            self.z = self.starts[(i // self.traj) % len(self.starts)]
        t = 1.0 - k / self.traj
        z = self.z
        with nt.no_grad():
            vel, _ = self.model.forward(z, t, self.ctx, self.stage)
        self.z = nt.Tensor(z.data - vel.data / self.traj, dtype=F64)
        return z, t, vel

    def _timed_step(self, i: int, tracer: Tracer | None):
        start = clock()
        z, t, vel = self._step(i)
        wall = clock() - start
        if i % self.traj == 0:
            self.samples.append((z, t, vel.data))
        return wall, [] if np.isfinite(vel.data).all() else ["velocity is not finite"]

    def final_problems(self, w: dict) -> list[str]:
        problems = []
        kv = self.model.text_kv_recompute_count
        if kv != 1:
            problems.append(f"text KV computed {kv} times, expected once")
        n = len(self.samples)
        for j in sorted({0, n // 2, n - 1}) if n else ():
            z, t, vel = self.samples[j]
            with nt.Tape():
                taped, _ = self.model.forward(z, t, self.ctx, self.stage)
            if taped.data.tobytes() != vel.tobytes():
                problems.append(f"no-grad velocity at t={t} differs bitwise from "
                                "a taped forward")
        return problems


def environment() -> dict:
    """What makes runs on different machines incomparable."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
            "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "machine": platform.machine()}


def run_steps(wl: Workload, seconds: float, tracer: Tracer | None, log):
    """Timed steps until the deadline; returns (times, attempted, failed).

    times holds the wall times of the steps that passed their checks.
    """
    times, attempted, failed = [], 0, 0
    deadline = clock() + seconds
    while attempted == 0 or clock() < deadline:
        attempted += 1
        try:
            wall, problems = wl.step(tracer)
        except Exception:  # a raising step counts as failed; the run goes on
            log(f"step {wl.done - 1} raised:\n{traceback.format_exc()}")
            failed += 1
            continue
        if problems:
            failed += 1
            log(f"step {wl.done - 1} failed: " + "; ".join(problems[:5]))
        else:
            times.append(wall)
    return times, attempted, failed


def measure(wl: Workload, seconds: float, log):
    """Untraced run: set up several times, then time steps."""
    setups: list[float] = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        setups.append(wl.setup())
    times, attempted, failed = run_steps(wl, seconds, None, log)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"steps {len(times)}, failed/attempted {failed}/{attempted}, "
          f"set-ups {len(setups)}")
    if not times:
        return {}, attempted, failed, []
    values = {"step_p50_s": statistics.median(times),
              "samples_per_s": wl.shape[0] * len(times) / sum(times),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": peak_rss_mb}
    for name, value in values.items():
        print(f"  {name:<16} {value:12.6f} {E2E_UNITS[name]}")
    if len(times) >= 100:  # p90 then has at least ten samples beyond it
        print(f"  {'step_p90_s':<16} {statistics.quantiles(times, n=10)[8]:12.6f} s")
    else:
        print(f"  {'step_p90_s':<16} omitted: {len(times)} steps < 100")
    return values, attempted, failed, []


def measure_traced(wl: Workload, seconds: float, log):
    """Traced run: half the time untraced, half traced, one set-up."""
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    plain, a0, f0 = run_steps(wl, seconds / 2, None, log)
    tracer.reset()
    tracer.install()
    try:
        times, a1, f1 = run_steps(wl, seconds / 2, tracer, log)
    finally:
        tracer.uninstall()
    attempted, failed = a0 + a1, f0 + f1
    print(f"traced steps {len(times)}, untraced steps {len(plain)}, "
          f"failed/attempted {failed}/{attempted}")
    if not (times and plain):
        return {}, attempted, failed, []
    problems = tracer.reconcile(sum(times), COVERAGE_MIN_SHARE)
    values = tracer.metrics(len(times))
    values["trace.step_p50_s"] = statistics.median(times)
    values["trace.overhead_s"] = values["trace.step_p50_s"] - statistics.median(plain)
    for name, value in values.items():
        print(f"  {name:<44} {value:14.6g} {LAYER_UNITS[name]}")
    return values, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in MANIFEST["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    w = SPEC["workloads"][args.workload]
    log = lambda msg: print(msg, file=sys.stderr, flush=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    wl = (Train if w["mode"] == "train" else Denoise)(w, args.seed)
    values, attempted, failed, problems = (measure_traced if args.trace else measure)(
        wl, args.seconds, log)
    try:
        problems += wl.final_problems(w)
    except Exception:  # a raising check is a failed check
        problems.append("final check raised:\n" + traceback.format_exc())
    if problems:
        failed = attempted  # run-level checks cover every step
        for p in problems:
            log(f"check failed: {p}")

    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
