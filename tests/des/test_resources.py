"""Unit tests for resources, containers and stores."""

import pytest

from repro.des import Container, Environment, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    order = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            order.append((env.now, name, "got"))
            yield env.timeout(hold)

    env.process(user(env, "a", 5.0))
    env.process(user(env, "b", 5.0))
    env.process(user(env, "c", 5.0))
    env.run()
    # a and b get it immediately; c waits for one of them to release.
    assert order[0][:1] == (0.0,) and order[1][:1] == (0.0,)
    assert order[2] == (5.0, "c", "got")


def test_resource_queue_is_fifo():
    env = Environment()
    res = Resource(env, capacity=1)
    served = []

    def user(env, name):
        with res.request() as req:
            yield req
            served.append(name)
            yield env.timeout(1.0)

    for name in "abcd":
        env.process(user(env, name))
    env.run()
    assert served == list("abcd")


def test_resource_in_use_and_stats():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
            assert res.in_use == 1
            yield env.timeout(2.0)

    env.process(user(env))
    env.process(user(env))
    env.run()
    assert res.in_use == 0
    assert res.total_requests == 2
    assert res.total_wait_time == 2.0  # second user waited 2s


def test_container_levels():
    env = Environment()
    c = Container(env, capacity=100.0, init=10.0)
    assert c.level == 10.0

    def producer(env):
        yield env.timeout(1.0)
        yield c.put(50.0)

    def consumer(env):
        got = yield c.get(60.0)  # must wait for producer
        return (env.now, got, c.level)

    env.process(producer(env))
    p = env.process(consumer(env))
    env.run()
    assert p.value == (1.0, 60.0, 0.0)


def test_container_put_blocks_at_capacity():
    env = Environment()
    c = Container(env, capacity=10.0, init=10.0)
    times = []

    def producer(env):
        yield c.put(5.0)
        times.append(env.now)

    def consumer(env):
        yield env.timeout(3.0)
        yield c.get(5.0)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [3.0]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=-1)
    with pytest.raises(ValueError):
        Container(env, capacity=10, init=20)
    c = Container(env, capacity=10)
    with pytest.raises(ValueError):
        c.get(0)
    with pytest.raises(ValueError):
        c.put(-5)


def test_store_fifo_order():
    env = Environment()
    s = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield s.get()
            got.append(item)

    def producer(env):
        for i in range(3):
            yield env.timeout(1.0)
            yield s.put(i)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_capacity_blocks_put():
    env = Environment()
    s = Store(env, capacity=1)
    done = []

    def producer(env):
        yield s.put("a")
        yield s.put("b")  # blocks until "a" is consumed
        done.append(env.now)

    def consumer(env):
        yield env.timeout(4.0)
        yield s.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert done == [4.0]


def test_store_filter_get():
    env = Environment()
    s = Store(env)

    def producer(env):
        yield s.put({"kind": "x", "v": 1})
        yield s.put({"kind": "y", "v": 2})

    def consumer(env):
        item = yield s.get(lambda it: it["kind"] == "y")
        return item["v"]

    env.process(producer(env))
    p = env.process(consumer(env))
    env.run()
    assert p.value == 2
    assert len(s) == 1  # the "x" item remains
