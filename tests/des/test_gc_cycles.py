"""Finished runs are freed without the cyclic GC.

A process drops its bound ``_resume`` when its generator ends, and a
released request drops itself as its own value, so neither is left in a
reference cycle.  An idle link holds no timer callback, and the file
system keeps its clients' counters rather than the clients, so a finished
run's platform graph is not in a cycle either.  A scenario that stops with
events still queued is closed by ``run_scenario``, which releases the
processes waiting on them.  ``gc.DEBUG_SAVEALL`` keeps
every object the collector finds unreachable in ``gc.garbage``; none of
them may be a ``Process``, a ``Request`` or a platform object.
"""

import contextlib
import gc

import pytest

from repro.cluster.devices import BlockDevice
from repro.cluster.network import NetworkFabric
from repro.cluster.platform import Platform
from repro.des import Environment, Resource
from repro.des.process import Process
from repro.des.resources import Request
from repro.des.sharing import FairShareLink
from repro.pfs.client import PFSClient
from repro.pfs.filesystem import ParallelFileSystem
from repro.pfs.mds import MetadataServer
from repro.pfs.oss import ObjectStorageServer
from repro.scenario import get_scenario, run_scenario

#: The objects of a run's platform graph.
PLATFORM_TYPES = (
    Platform, NetworkFabric, FairShareLink, PFSClient, ParallelFileSystem,
    ObjectStorageServer, MetadataServer, BlockDevice,
)


@contextlib.contextmanager
def _saved_garbage():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _cyclic(garbage):
    return [obj for obj in garbage if isinstance(obj, (Process, Request))]


def _des_run():
    env = Environment()
    res = Resource(env, capacity=1)
    served = []

    def user(env, resource, hold):
        with resource.request() as req:
            yield req
            yield env.timeout(hold)
        served.append(hold)
        return hold

    def parent(env):
        children = [env.process(user(env, res, h)) for h in (1.0, 2.0, 3.0)]
        yield env.all_of(children)
        served.append(env.now)

    env.process(parent(env))
    env.run()
    return served


def test_des_run_leaves_no_process_or_request_in_a_cycle():
    with _saved_garbage() as garbage:
        served = _des_run()
        gc.collect()
        assert _cyclic(garbage) == []
    assert served == [1.0, 2.0, 3.0, 6.0]


def test_scenario_run_leaves_no_process_or_request_in_a_cycle():
    with _saved_garbage() as garbage:
        run = run_scenario(get_scenario("tiny"))
        assert run.results
        del run
        gc.collect()
        assert _cyclic(garbage) == []


def _garbage_of_run(name):
    """Types of the objects one run of preset ``name`` leaves in cycles."""
    run_scenario(get_scenario("tiny"))  # warm-up: first-run caches are not garbage
    with _saved_garbage() as garbage:
        run = run_scenario(get_scenario(name))
        assert run.results
        del run
        gc.collect()
        return [type(obj) for obj in garbage]


@pytest.mark.parametrize(
    "name", ["tiny", "c4-workflow", "c10-shared", "r2-ior-degraded"]
)
def test_scenario_run_leaves_no_platform_object_in_a_cycle(name):
    types = _garbage_of_run(name)
    assert [t.__name__ for t in types if issubclass(t, PLATFORM_TYPES)] == []


def test_tiny_run_leaves_no_cyclic_garbage():
    # The fault presets stop with a fault process still waiting on a
    # queued timeout; run_scenario closes the environment, so the pending
    # event no longer ties the process and the environment into a cycle.
    for name in ("tiny", "r2-ior-degraded", "r3-mds-brownout"):
        assert _garbage_of_run(name) == [], name


def test_close_keeps_the_clock_and_releases_waiting_processes():
    env = Environment()

    def sleeper(env):
        yield env.timeout(60.0)

    proc = env.process(sleeper(env))
    env.run(until=1.0)
    env.close()
    assert env.now == 1.0 and env.peek() == float("inf")
    assert proc._resume_cb is None
    env.run()  # nothing left to run
    assert env.now == 1.0
