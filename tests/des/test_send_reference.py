"""The fused network send agrees exactly with the three-event reference.

``NetworkFabric.send`` admits a message's three legs from its latency
timer's callback and completes them into one countdown join;
``FairShareLink`` keeps flows as ``(finish_tag, seq, target)`` tuples and
drops stale timers by identity; ``Resource`` grants a free slot without
queueing.  This module keeps the straightforward forms as the reference:

* :class:`RefLink` -- ``_Flow`` objects compared by ``__lt__``, a
  generation counter and a lambda per armed timer, each completion
  succeeding a fresh ``Event``;
* :class:`RefFabric` -- ``send`` resumes after the latency ``Timeout``,
  then waits on an ``AllOf`` over the three leg events;
* :class:`RefResource` -- every request queues and every release re-runs
  the grant loop.

Hypothesis draws message mixes on a small fabric (zero-byte and
intra-node messages, zero and positive latency, overlapping senders, a
concurrency limit on the core, link degradation mid-flight, standalone
link transfers and free and contended resources).  Both implementations
must log the same process wake-ups in the same order at the same times,
return ``==`` durations and end with equal link and resource statistics.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import NetworkFabric
from repro.des import Environment, FairShareLink, Resource
from repro.des.events import URGENT, Event
from repro.des.resources import Request


# -- reference implementations ---------------------------------------------------


class _Flow:
    __slots__ = ("event", "finish_tag", "seq")

    def __init__(self, event, finish_tag, seq):
        self.event = event
        self.finish_tag = finish_tag
        self.seq = seq

    def __lt__(self, other):
        if self.finish_tag != other.finish_tag:
            return self.finish_tag < other.finish_tag
        return self.seq < other.seq


class RefLink:
    """Fair-share link with per-flow events and a timer generation counter."""

    def __init__(self, env, rate, concurrency_limit=None):
        self.env = env
        self.rate = float(rate)
        self._base_rate = self.rate
        self.concurrency_limit = concurrency_limit
        self._active = []
        self._pending = deque()
        self._virtual = 0.0
        self._last_update = env.now
        self._timer_generation = 0
        self._seq = 0
        self.bytes_transferred = 0.0
        self.busy_time = 0.0

    def set_degradation(self, factor):
        self._advance()
        self.rate = self._base_rate / float(factor)
        self._reschedule()

    def transfer(self, nbytes):
        ev = Event(self.env)
        if nbytes == 0:
            ev.succeed(0.0)
            return ev
        self.bytes_transferred += nbytes
        self._advance()
        seq = self._seq
        self._seq += 1
        if (
            self.concurrency_limit is not None
            and len(self._active) >= self.concurrency_limit
        ):
            self._pending.append((ev, float(nbytes), seq))
        else:
            heappush(self._active, _Flow(ev, self._virtual + nbytes, seq))
        self._reschedule()
        return ev

    def _advance(self):
        now = self.env.now
        dt = now - self._last_update
        if dt > 0 and self._active:
            self._virtual += dt * (self.rate / len(self._active))
            self.busy_time += dt
        self._last_update = now

    def _reschedule(self):
        self._timer_generation += 1
        active = self._active
        if not active:
            self._virtual = 0.0
            return
        gen = self._timer_generation
        remaining = active[0].finish_tag - self._virtual
        delay = remaining * len(active) / self.rate
        if delay < 0.0:
            delay = 0.0
        timer = Event(self.env)
        timer._ok = True
        timer._value = None
        timer.callbacks = lambda _ev, g=gen: self._on_timer(g)
        self.env.schedule(timer, delay=delay, priority=URGENT)

    def _on_timer(self, generation):
        if generation != self._timer_generation:
            return
        self._advance()
        active = self._active
        now = self.env.now
        threshold = self._virtual + 1e-3 + 1e-12 * self._virtual
        finished = []
        while active and active[0].finish_tag <= threshold:
            finished.append(heappop(active))
        if not finished and active:
            top = active[0]
            delay = (top.finish_tag - self._virtual) * len(active) / self.rate
            if now + delay <= now:
                finished.append(heappop(active))
        for flow in finished:
            flow.event.succeed(now)
        while self._pending and (
            self.concurrency_limit is None
            or len(active) < self.concurrency_limit
        ):
            ev, nbytes, seq = self._pending.popleft()
            heappush(active, _Flow(ev, self._virtual + nbytes, seq))
        self._reschedule()


class _RefEndpoint:
    def __init__(self, env, name, nic_bandwidth):
        self.name = name
        self.ingress = RefLink(env, nic_bandwidth)
        self.egress = RefLink(env, nic_bandwidth)


class RefFabric(NetworkFabric):
    """The fabric with reference links and the three-event send."""

    def __init__(self, env, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self.core = RefLink(env, self.core.rate)

    def attach(self, endpoint, nic_bandwidth=None):
        if endpoint not in self._endpoints:
            self._endpoints[endpoint] = _RefEndpoint(
                self.env, endpoint, nic_bandwidth or self.nic_bandwidth
            )

    def send(self, src, dst, nbytes):
        if src not in self._endpoints or dst not in self._endpoints:
            raise KeyError((src, dst))
        start = self.env.now
        self.stats.messages += 1
        if src == dst:
            return 0.0
        self.stats.bytes += nbytes
        lat = self.latency(src, dst)
        if lat > 0:
            yield self.env.timeout(lat)
        if nbytes > 0:
            legs = [
                self._endpoints[src].egress.transfer(nbytes),
                self.core.transfer(nbytes),
                self._endpoints[dst].ingress.transfer(nbytes),
            ]
            yield self.env.all_of(legs)
        return self.env.now - start


class RefResource(Resource):
    """Every request queues; every release re-runs the grant loop."""

    def request(self):
        req = Request(self)
        req._enqueued_at = self.env.now
        self.total_requests += 1
        self.queue.append(req)
        self._trigger_pending()
        return req

    def release(self, request):
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
        self._trigger_pending()


IMPLEMENTATIONS = {
    "fused": (NetworkFabric, FairShareLink, Resource),
    "reference": (RefFabric, RefLink, RefResource),
}


# -- the drawn scenario ---------------------------------------------------------------

NODES = ("a", "b", "c")
# Mostly powers of two (with rates and latencies to match), so that
# completions, wake-ups and timers often fall on exactly the same instant
# and their order decides the outcome; a few odd values mix in rounding.
_TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
_SIZES = st.sampled_from([0, 0, 1, 7.5, 32, 64, 128, 100, 256])

messages = st.lists(
    st.tuples(_TIMES, st.sampled_from(NODES), st.sampled_from(NODES), _SIZES),
    min_size=1,
    max_size=4,
)
scenarios = st.fixed_dictionaries({
    "base_latency": st.sampled_from([0.0, 0.0, 0.25, 0.5]),
    "hop_latency": st.sampled_from([0.0, 0.125]),
    "nic": st.sampled_from([64.0, 128.0, 96.0]),
    "core": st.sampled_from([64.0, 256.0, 1024.0]),
    "core_limit": st.sampled_from([None, None, 1, 2]),
    # One list of messages per sender; a sender's messages go back to back.
    "senders": st.lists(messages, min_size=1, max_size=5),
    # (at, "core" or an endpoint, factor)
    "degrade": st.lists(
        st.tuples(
            _TIMES,
            st.sampled_from(("core",) + NODES),
            st.sampled_from([1.0, 2.0, 4.0]),
        ),
        max_size=3,
    ),
    # Standalone link under a concurrency limit: (at, nbytes).
    "link_limit": st.sampled_from([1, 2, 3]),
    "link_users": st.lists(st.tuples(_TIMES, _SIZES), max_size=5),
    "capacity": st.sampled_from([1, 2]),
    # (at, hold): a zero hold releases at once.
    "resource_users": st.lists(
        st.tuples(_TIMES, st.sampled_from([0.0, 0.5, 1.0])),
        max_size=6,
    ),
})


def simulate(kind: str, sc: dict) -> dict:
    fabric_cls, link_cls, resource_cls = IMPLEMENTATIONS[kind]
    env = Environment()
    fabric = fabric_cls(
        env, "f", nic_bandwidth=sc["nic"], core_bandwidth=sc["core"],
        base_latency=sc["base_latency"], hop_latency=sc["hop_latency"],
        default_hops=2,
    )
    for node in NODES:
        fabric.attach(node)
    fabric.core.concurrency_limit = sc["core_limit"]
    link = link_cls(env, 128.0, concurrency_limit=sc["link_limit"])
    fifo = resource_cls(env, capacity=sc["capacity"])
    log = []

    def sender(i, msgs):
        for j, (at, src, dst, nbytes) in enumerate(msgs):
            yield env.timeout(at)
            took = yield from fabric.send(src, dst, nbytes)
            log.append(("send", i, j, env.now, took))

    def degrader(at, where, factor):
        yield env.timeout(at)
        if where == "core":
            fabric.degrade_core(factor)
        else:
            fabric.degrade_endpoint(where, factor)
        log.append(("degrade", where, env.now))

    def link_user(i, at, nbytes):
        yield env.timeout(at)
        value = yield link.transfer(nbytes)
        log.append(("link", i, env.now, value))

    def resource_user(i, at, hold):
        yield env.timeout(at)
        with fifo.request() as req:
            yield req
            log.append(("fifo", i, "granted", env.now))
            if hold:
                yield env.timeout(hold)
        log.append(("fifo", i, "released", env.now))

    def watcher():
        # Started first, so at a tie it wakes before any NORMAL event
        # scheduled later: it sees which flows URGENT timers completed.
        for _ in range(12):
            yield env.timeout(0.25)
            log.append(("flows", env.now, [len(ln._active) for ln in links]))

    links = [fabric.core, link]
    for node in NODES:
        ep = fabric._endpoints[node]
        links += [ep.egress, ep.ingress]
    env.process(watcher())
    for i, msgs in enumerate(sc["senders"]):
        env.process(sender(i, msgs))
    for at, where, factor in sc["degrade"]:
        env.process(degrader(at, where, factor))
    for i, (at, nbytes) in enumerate(sc["link_users"]):
        env.process(link_user(i, at, nbytes))
    for i, (at, hold) in enumerate(sc["resource_users"]):
        env.process(resource_user(i, at, hold))
    env.run()
    return {
        "log": log,
        "now": env.now,
        "links": [(ln.bytes_transferred, ln.busy_time) for ln in links],
        "resource": (fifo.total_requests, fifo.total_wait_time,
                     len(fifo.users), len(fifo.queue)),
        "fabric": (fabric.stats.messages, fabric.stats.bytes),
    }


@settings(max_examples=300, deadline=None)
@given(sc=scenarios)
def test_fused_send_matches_reference(sc):
    assert simulate("fused", sc) == simulate("reference", sc)

