"""The benchmark's tracer on clean training steps of the small model.

perfbench/tests plants a pullback that escapes the tracer and checks that a
traced step fails. This is the clean counterpart: on the model as it is,
every pullback backward visits goes through nt.record and is timed, fused
nodes included, so traced steps report no problem.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import workload  # noqa: E402


def test_traced_train_steps_time_every_pullback_backward_visits():
    # train_desk on the default (4-layer, d=32) model and 4x8x8 latents
    spec = dict(workload.SPEC["workloads"]["train_desk"], model={}, latent=[4, 8, 8])
    wl = workload.Train(spec, seed=0)
    wl.setup()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        steps = [wl.step(tracer) for _ in range(2)]
    finally:
        tracer.uninstall()
    assert [p for _, problems in steps for p in problems] == []
    assert tracer.reconcile(sum(wall for wall, _ in steps),
                            workload.COVERAGE_MIN_SHARE) == []
    assert tracer.op_bwd_s["grouped_forward"] > 0.0
