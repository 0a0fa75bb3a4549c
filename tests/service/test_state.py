"""Model test of the run service's state machine, with no sockets.

Hypothesis drives :class:`ServiceState` through random sequences of
admissions (fresh, coalescing, warm, a sweep repeating a point, an
idempotent resubmit), starts (a second start is a retry after a worker
death), completions, cancels, landings, compactions and crashes.  The
records a step would journal go to an in-memory log, exactly as the
service writes them.  After every step:

* the live state must match :class:`Reference`, a separate and much
  smaller statement of the service's rules;
* replaying the log (snapshot plus tail) into a fresh state and booting
  it must give that reference as a restarted service would see it --
  live jobs only, started work back in line, keys of finished jobs
  forgotten;
* each tenant's outstanding count must be the sum over its live jobs.
"""

import json
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service.state import ServiceState

DIGESTS = [c * 64 for c in "abcd"]
TENANTS = ["t0", "t1", "t2"]
KEYS = ["k0", "k1", "k2"]


class Reference:
    """The service's rules, stated directly.

    A slot is ``("on", digest)`` while it waits on the digest's live
    computation and ``("is", state)`` once settled.
    """

    def __init__(self):
        self.comps = {}  # digest -> "queued" | "running"
        self.jobs = {}   # job id -> {"tenant", "slots"}
        self.keys = {}   # idempotency key -> job id
        self.next_id = 1

    def admit(self, tenant, digests, hits, key):
        job_id = f"job-{self.next_id:05d}"
        self.next_id += 1
        slots = []
        for digest in digests:
            if digest in hits:
                slots.append(("is", "done"))
            else:
                self.comps.setdefault(digest, "queued")
                slots.append(("on", digest))
        self.jobs[job_id] = {"tenant": tenant, "slots": slots}
        if key is not None:
            self.keys[key] = job_id

    def start(self, digest):
        self.comps[digest] = "running"

    def complete(self, digest, state):
        del self.comps[digest]
        for job in self.jobs.values():
            job["slots"] = [
                ("is", state) if slot == ("on", digest) else slot
                for slot in job["slots"]
            ]

    def cancel(self, job_id):
        """Queued slots are abandoned; running ones keep running.  Work
        nobody waits on any more is dropped."""
        job = self.jobs[job_id]
        job["slots"] = [
            ("is", "cancelled") if k == "on" and self.comps[v] == "queued"
            else (k, v)
            for k, v in job["slots"]
        ]
        wanted = {v for j in self.jobs.values() for k, v in j["slots"]
                  if k == "on"}
        for digest in [d for d in self.comps if d not in wanted]:
            self.complete(digest, "cancelled")

    def live(self):
        return {
            job_id: job for job_id, job in self.jobs.items()
            if any(k == "on" for k, _ in job["slots"])
        }

    def boot(self, next_id):
        self.jobs = self.live()
        self.keys = {k: j for k, j in self.keys.items() if j in self.jobs}
        self.comps = dict.fromkeys(self.comps, "queued")
        self.next_id = next_id

    def view(self):
        live = self.live()
        return {
            "jobs": {
                job_id: [self.comps[v] if k == "on" else v
                         for k, v in job["slots"]]
                for job_id, job in live.items()
            },
            "inflight": dict(self.comps),
            "outstanding": dict(Counter(
                job["tenant"] for job in live.values()
                for k, _ in job["slots"] if k == "on"
            )),
            "idem": {k: j for k, j in self.keys.items() if j in live},
            "next_id": self.next_id,
        }


def view(core, live_only=True):
    """The state replay must restore (``live_only=False``: everything
    the core holds, which after boot must be live already)."""
    jobs = {
        job.job_id: job for job in core.jobs.values()
        if job.finished is None or not live_only
    }
    return {
        "jobs": {
            job_id: [job._slot_state(c) for c in job.computations]
            for job_id, job in jobs.items()
        },
        "inflight": {d: c.state for d, c in core.inflight.items()},
        "outstanding": dict(core.outstanding),
        "idem": {k: j for k, j in core.idem.items()
                 if j in jobs or not live_only},
        "next_id": core.next_id,
    }


def booted(expected):
    """What a restart makes of a view: started work is queued again."""
    requeue = {"running": "queued"}
    return dict(
        expected,
        jobs={j: [requeue.get(s, s) for s in slots]
              for j, slots in expected["jobs"].items()},
        inflight=dict.fromkeys(expected["inflight"], "queued"),
    )


def _disk(record):
    """A record as replay reads it back: through JSON."""
    return json.loads(json.dumps(record))


def _replay(log):
    state = ServiceState()
    for record in log:
        state.apply(_disk(record))
    return state


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.live = ServiceState()
        self.ref = Reference()
        self.log = []
        #: Job ids the log admits: replay's counter resumes after them.
        self.written = set()

    def _apply(self, record, journal=True):
        if journal:
            self.log.append(_disk(record))
        return self.live.apply(record)

    def _next_id_on_disk(self):
        return 1 + max((int(j[4:]) for j in self.written), default=0)

    # -- steps ---------------------------------------------------------------

    @rule(
        tenant=st.sampled_from(TENANTS),
        digests=st.lists(st.sampled_from(DIGESTS), min_size=1, max_size=3),
        warm=st.sets(st.sampled_from(DIGESTS)),
        key=st.none() | st.sampled_from(KEYS),
    )
    def admit(self, tenant, digests, warm, key):
        if key is not None:
            existing = self.live.deduplicate(key)
            assert (existing is not None) == (key in self.ref.keys)
            if existing is not None:
                assert existing.job_id == self.ref.keys[key]
                return
        hits = {
            d: "f" * 64 for d in dict.fromkeys(digests)
            if d in warm and d not in self.live.inflight
        }
        points = [(f"p{i}", d, json.dumps({"d": d}))
                  for i, d in enumerate(digests)]
        kind = "sweep" if len(points) > 1 else "scenario"
        fields = self.live.admit_record(tenant, kind, points, hits, key)
        # Warm-only jobs are never journaled.
        journaled = any("state" not in slot for slot in fields["tasks"])
        self._apply({"t": "admit", **fields}, journal=journaled)
        if journaled:
            self.written.add(fields["job"])
        self.ref.admit(tenant, digests, hits, key)

    @precondition(lambda self: self.live.inflight)
    @rule(data=st.data())
    def start(self, data):
        digest = data.draw(st.sampled_from(sorted(self.live.inflight)))
        self._apply({"t": "start", "digest": digest})
        self.ref.start(digest)

    @precondition(lambda self: self.live.inflight)
    @rule(data=st.data(), state=st.sampled_from(["done", "failed", "cancelled"]))
    def complete(self, data, state):
        digest = data.draw(st.sampled_from(sorted(self.live.inflight)))
        done = state == "done"
        self._apply({
            "t": "complete", "digest": digest, "state": state,
            "artifact": "9" * 64 if done else None,
            "error": None if done else "boom", "seconds": 0.5,
            "cached": False,
        })
        self.ref.complete(digest, state)

    @precondition(lambda self: self.live.live_jobs())
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(st.sampled_from(
            [job.job_id for job in self.live.live_jobs()]
        ))
        self._apply({"t": "cancel", "job": job_id})
        # The service then drops queued work nobody waits on.
        for digest, comp in list(self.live.inflight.items()):
            if comp.state == "queued" and not comp.jobs:
                self._apply({
                    "t": "complete", "digest": digest, "state": "cancelled",
                    "artifact": None, "error": "cancelled by client",
                    "seconds": 0.0, "cached": False,
                })
        self.ref.cancel(job_id)

    @precondition(lambda self: any(
        job.finished is not None for job in self.live.jobs.values()
    ))
    @rule(data=st.data())
    def land(self, data):
        job_id = data.draw(st.sampled_from(sorted(
            job.job_id for job in self.live.jobs.values()
            if job.finished is not None
        )))
        self._apply({"t": "land", "job": job_id, "run_id": f"run-{job_id}"})
        assert self.live.jobs[job_id].run_id == f"run-{job_id}"

    @rule()
    def compact(self):
        snapshot = self.live.snapshot()
        self.log = [_disk(record) for record in snapshot]
        self.written = {r["job"] for r in snapshot if r["t"] == "admit"}
        # The newest job rides along: the counter survives compaction.
        assert self._next_id_on_disk() == self.live.next_id

    @rule()
    def crash_and_restart(self):
        """kill -9, replay, boot, compact -- what ``RunService.start``
        does, with every pending computation re-queued."""
        self.live = _replay(self.log)
        pending = self.live.boot()
        assert [c.digest for c in pending] == list(self.live.inflight)
        self.ref.boot(self._next_id_on_disk())
        self.compact()

    # -- checks --------------------------------------------------------------

    @invariant()
    def live_state_follows_the_rules(self):
        assert view(self.live) == self.ref.view()

    @invariant()
    def outstanding_is_the_sum_over_live_jobs(self):
        expected = Counter()
        for job in self.live.live_jobs():
            expected[job.tenant] += job.outstanding
        assert self.live.outstanding == +expected

    @invariant()
    def replay_agrees_with_the_live_state(self):
        replayed = _replay(self.log)
        replayed.boot()
        expected = booted(self.ref.view())
        # Warm-only admissions journal nothing, so the ids of any after
        # the last record on disk are not recoverable.
        expected["next_id"] = self._next_id_on_disk()
        assert view(replayed, live_only=False) == expected


ServiceMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None,
)
test_service_state_machine = ServiceMachine.TestCase
