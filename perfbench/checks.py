"""Correctness checks the benchmark runs outside its timed regions."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from nimg import tensor as nt


def grad_problems(params: dict[str, nt.Tensor]) -> list[str]:
    """Parameters lacking a finite, non-zero .grad of their own shape.

    In the workload models, whose modulation is randomised, every parameter
    affects the loss, so an all-zero .grad means a pullback went missing.
    """
    out = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            out.append(f"{name}: no .grad")
        elif g.shape != p.shape:
            out.append(f"{name}: .grad shape {g.shape} != {p.shape}")
        elif not np.isfinite(g).all():
            out.append(f"{name}: non-finite .grad")
        elif not g.any():
            out.append(f"{name}: .grad is all zero")
    return out


def directional_fd_error(loss_fn: Callable[[], nt.Tensor], params: list[nt.Tensor],
                         rng: np.random.Generator, eps: float = 1e-5) -> float:
    """Relative error of <dloss/dparams, v> against a central difference.

    v is a random unit direction over all of params. loss_fn builds the
    scalar loss from the current parameter values; it is run once on a tape
    and twice without grad, at params +- eps * v. Parameter data is restored
    afterwards.
    """
    for p in params:
        p.grad = None
    with nt.Tape() as tape:
        loss = loss_fn()
    nt.backward(tape, loss)
    v = [rng.standard_normal(p.shape) for p in params]
    norm = math.sqrt(sum(float((x * x).sum()) for x in v))
    v = [x / norm for x in v]
    analytic = sum(float((p.grad * x).sum()) for p, x in zip(params, v)
                   if p.grad is not None)

    saved = [p.data for p in params]

    def loss_at(step: float) -> float:
        for p, base, x in zip(params, saved, v):
            p.data = base + step * x
        with nt.no_grad():
            return loss_fn().item()

    try:
        numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    finally:
        for p, base in zip(params, saved):
            p.data = base
    return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-300)
