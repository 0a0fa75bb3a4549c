"""Finished processes and released requests are freed without the cyclic GC.

A process drops its bound ``_resume`` when its generator ends, and a
released request drops itself as its own value, so neither is left in a
reference cycle.  ``gc.DEBUG_SAVEALL`` keeps every object the collector
finds unreachable in ``gc.garbage``; none of them may be a ``Process`` or
a ``Request``.
"""

import contextlib
import gc

from repro.des import Environment, Resource
from repro.des.process import Process
from repro.des.resources import Request
from repro.scenario import get_scenario, run_scenario


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
