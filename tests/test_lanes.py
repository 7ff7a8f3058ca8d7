"""nt.lanes: independent tasks on every CPU the process may use.

The model runs each expert of an MoE layer, and each sample of
joint_attention, as one task of nt.lanes. The lane count is the module
constant nt.LANES, which these tests set; with one lane the helper is the
plain loop, so its results are the oracle for more lanes.
"""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from nimg import tensor as nt
from nimg.backbone import ModelConfig, MoEDiT
from nimg.router import StageId
from nimg.tensor import Tape, Tensor, backward
from oracles import assert_lanes_free

PROMPTS = ["red cat under the old tree", "a quiet river"]
DESK = ModelConfig(n_layers=8, d_model=128, n_q_heads=4, n_kv_heads=1, head_dim=32,
                   n_experts=16, expert_hidden=128)


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("nimg-lane_")]


def run_with_timeout(work, timeout=30.0):
    """work() in a thread joined with a timeout, so that a scheduling fault
    fails the test instead of hanging it; returns work's value or raises
    its exception."""
    box = {}

    def target():
        try:
            box["value"] = work()
        except BaseException as e:
            box["error"] = e

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "lanes() did not finish"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("lanes", [2, 3])
def test_free_lanes_pull_the_remaining_items(monkeypatch, lanes):
    """Item 0 blocks until the last item has run. That happens only if the
    lanes not held by item 0 pull every other item, whichever lane they
    are. Results still come back in item order, and every item's arrays
    are made in the calling thread."""
    monkeypatch.setattr(nt, "LANES", lanes)
    n = 3 * lanes + 1
    last_ran = threading.Event()
    made_in = []

    def items():
        for i in range(n):
            made_in.append(threading.current_thread())
            yield i, np.empty(4)

    def task(job):
        i, buf = job
        if i == 0:
            assert last_ran.wait(timeout=20.0), "item 0 was left waiting for the last item"
        if i == n - 1:
            last_ran.set()
        buf[:] = i
        return i, buf

    def work():
        caller = threading.current_thread()
        out = list(nt.lanes(task, items()))
        return caller, out

    caller, out = run_with_timeout(work)
    assert [i for i, _ in out] == list(range(n))
    assert all((buf == i).all() for i, buf in out)
    assert len(made_in) == n and all(t is caller for t in made_in)
    assert_lanes_free()


@pytest.mark.parametrize("lanes", [2, 3])
def test_the_largest_item_starts_first(monkeypatch, lanes):
    """Every item but the last, the largest, waits until the last has
    started. In item order the first `lanes` items would hold every lane
    and wait forever; largest first, the last starts at once."""
    monkeypatch.setattr(nt, "LANES", lanes)
    sizes = [1] * 6 + [10]
    largest_started = threading.Event()

    def task(i):
        if i == len(sizes) - 1:
            largest_started.set()
        else:
            assert largest_started.wait(timeout=20.0), "the largest item did not start first"
        time.sleep(0.001 * (len(sizes) - i))   # later items finish first
        return i

    out = run_with_timeout(lambda: list(nt.lanes(task, range(len(sizes)), sizes)))
    assert out == list(range(len(sizes)))
    assert_lanes_free()


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_a_failing_run_raises_the_earliest_failing_items_error(monkeypatch, lanes):
    """Item 5, the largest, starts first and fails at once; item 1 fails
    later. The error raised is item 1's, the earliest in item order, as in
    the plain loop, and it is raised once no lane is busy."""
    monkeypatch.setattr(nt, "LANES", lanes)

    def task(i):
        if i == 5:
            raise ValueError(i)
        time.sleep(0.005)
        if i == 1:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        run_with_timeout(lambda: list(nt.lanes(task, range(6), [1, 1, 1, 1, 1, 5])))
    assert_lanes_free()
    assert list(nt.lanes(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]


def test_a_task_that_raises_reaches_the_caller_after_every_lane_is_done(monkeypatch):
    monkeypatch.setattr(nt, "LANES", 3)
    finished = []

    def task(i):
        if i == 4:
            raise KeyError(i)
        time.sleep(0.05 if i == 5 else 0.01)
        finished.append(i)
        return i

    with pytest.raises(KeyError):
        for _ in nt.lanes(task, range(9)):
            pass
    assert 5 in finished      # running when item 4's error came due, and waited for
    assert_lanes_free()
    assert list(nt.lanes(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]


def test_a_consumer_that_stops_early_leaves_no_lane_busy(monkeypatch):
    monkeypatch.setattr(nt, "LANES", 3)
    running = []

    def task(i):
        running.append(i)
        time.sleep(0.01)
        running.remove(i)
        return i

    results = nt.lanes(task, range(9))
    assert next(results) == 0
    results.close()
    assert running == []      # close() returned only once every started task had
    assert_lanes_free()


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_no_items_give_no_results(monkeypatch, lanes):
    monkeypatch.setattr(nt, "LANES", lanes)
    assert run_with_timeout(lambda: list(nt.lanes(lambda i: i, []))) == []
    assert run_with_timeout(lambda: list(nt.lanes(lambda i: i, iter(()), []))) == []
    assert_lanes_free()


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_items_that_raise_while_listed_raise_their_own_error(monkeypatch, lanes):
    """With more than one lane items is listed before any task starts, so
    no task runs; the plain loop runs item 0's before it lists item 1."""
    monkeypatch.setattr(nt, "LANES", lanes)
    ran = []

    def items():
        yield 0
        raise LookupError("listing items")

    with pytest.raises(LookupError, match="listing items") as raised:
        run_with_timeout(lambda: list(nt.lanes(ran.append, items())))
    assert raised.type is LookupError
    assert ran == ([0] if lanes == 1 else [])
    assert_lanes_free()


@pytest.mark.parametrize("error", [SystemExit, KeyboardInterrupt])
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_a_task_that_raises_a_base_exception_reaches_the_caller(monkeypatch, lanes, error):
    monkeypatch.setattr(nt, "LANES", lanes)

    def task(i):
        time.sleep(0.002)
        if i == 3:
            raise error(i)
        return i

    with pytest.raises(error) as raised:
        run_with_timeout(lambda: list(nt.lanes(task, range(7))))
    assert raised.type is error
    assert_lanes_free()


def test_a_nested_call_runs_its_tasks_in_its_own_lane(monkeypatch):
    monkeypatch.setattr(nt, "LANES", 2)

    def outer(i):
        inner = list(nt.lanes(lambda j: threading.current_thread(), range(3)))
        return all(t is threading.current_thread() for t in inner)

    assert list(nt.lanes(outer, range(4))) == [True] * 4


def desk_model():
    model = MoEDiT(DESK)
    rng = np.random.default_rng(1)
    for name, p in model.named_parameters().items():
        if "mod." in name:
            p.data = 0.3 * rng.standard_normal(p.shape)
    return model


def test_desk_model_is_bitwise_the_same_on_one_two_and_three_lanes(monkeypatch):
    """At the desk shapes (the MoE layers' experts and each sample's
    attention run as tasks): the train-step loss, every parameter gradient
    after one backward and after two, and a no-grad velocity. Three lanes
    on fewer CPUs, with a short thread switch interval, is the stress case:
    a lost or reordered update would change bits."""
    model = desk_model()
    params = list(model.named_parameters().values())
    rng = np.random.default_rng(2)
    z, target = (Tensor(rng.standard_normal((2, 4, 32, 32))) for _ in range(2))
    t = rng.uniform(0.0, 1.0, 2)
    runs = {}
    interval = sys.getswitchinterval()
    for lanes in (1, 2, 3):
        monkeypatch.setattr(nt, "LANES", lanes)
        if lanes == 3:
            sys.setswitchinterval(1e-5)
        try:
            for p in params:
                p.grad = None
            with Tape() as tape:
                ctx = model.precompute_text_kv(PROMPTS)
                diff = nt.sub(model.forward(z, t, ctx, StageId.S256)[0], target)
                loss = nt.mean(nt.mul(diff, diff))
            backward(tape, loss)
            once = [p.grad.tobytes() for p in params]
            backward(tape, loss)
            twice = [p.grad.tobytes() for p in params]
            with nt.no_grad():
                ctx = model.precompute_text_kv(PROMPTS)
                vel = model.forward(z, 0.5, ctx, StageId.S1024)[0]
        finally:
            sys.setswitchinterval(interval)
        runs[lanes] = (loss.data.tobytes(), once, twice, vel.data.tobytes())
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def tiny_forward():
    """A no-grad forward of the default model at S256 (its MoE layers run
    their experts on the lanes); returns the velocity's bytes."""
    model = MoEDiT(ModelConfig())
    z = Tensor(np.random.default_rng(3).standard_normal((2, 4, 8, 8)))
    with nt.no_grad():
        ctx = model.precompute_text_kv(PROMPTS)
        return model.forward(z, 0.5, ctx, StageId.S256)[0].data.tobytes()


def test_lane_threads_number_at_most_cpus_minus_one_and_are_reused(monkeypatch):
    """The pool has LANES - 1 threads, made on first use and reused by every
    later call; when LANES changes, the pool is replaced by one of the new
    size and the old threads exit."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert nt.LANES == cpus
    tiny_forward()
    assert_lanes_free()           # every pool thread runs a task at once
    first = lane_threads()
    assert len(first) == nt.LANES - 1 <= cpus - 1
    count = threading.active_count()
    tiny_forward()
    tiny_forward()
    assert lane_threads() == first and threading.active_count() == count
    for lanes in (nt.LANES + 2, cpus):
        monkeypatch.setattr(nt, "LANES", lanes)
        tiny_forward()
        assert_lanes_free()
        now = lane_threads()
        assert len(now) == lanes - 1
        assert not any(t.is_alive() for t in first)
        first = now


def test_a_child_forked_after_a_forward_starts_its_own_lanes(monkeypatch):
    """The parent's pool threads do not exist in a forked child; without
    the at-fork reset the child's first run would wait forever on them."""
    monkeypatch.setattr(nt, "LANES", 2)
    want = tiny_forward()
    parent_thread = lane_threads()
    assert len(parent_thread) == 1

    def child():
        same = tiny_forward() == want
        own = lane_threads()
        sys.exit(0 if same and len(own) == 1 and own[0] is not parent_thread[0] else 3)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=30)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join()
    assert not hung and proc.exitcode == 0
