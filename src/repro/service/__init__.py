"""``repro.service`` -- the asyncio multi-tenant run service.

Scenario-as-a-service: a long-lived job server that accepts scenario and
sweep submissions from many concurrent clients over a JSON-lines socket
protocol, executes them on the same process-pool/job-execution machinery
the one-shot CLI uses (:mod:`repro.jobs`), and lands every result in the
content-addressed run store -- so a submission and a ``repro-io scenario
sweep`` of the same spec produce the *same* artifact at the same address.

Layering (top to bottom)::

    repro-io serve / submit / jobs / loadgen      (CLI front-ends)
    repro.service.server  -- admission, quotas, fair share, pool, protocol
    repro.service.journal -- write-ahead journal; replay -> ServiceState
    repro.service.state   -- the state machine (one transition per record)
    repro.service.jobs    -- job/computation model + job ledger
    repro.service.scheduler -- start-time fair queueing across tenants
    repro.jobs            -- shared execution core (pools, cache, ledgers)
    repro.store           -- content-addressed artifacts and refs

See DESIGN.md ("Run service") for the architecture discussion.
"""

from repro.service.client import (
    ServiceClient,
    StaleDiscoveryError,
    backoff_delay,
    load_discovery,
    pid_alive,
)
from repro.service.jobs import (
    JOB_STATES,
    SERVICE_JOB_SCHEMA,
    SERVICE_LEDGER_NAME,
    SERVICE_LEDGER_SCHEMA,
)
from repro.service.journal import JobJournal
from repro.service.scheduler import FairShareQueue
from repro.service.server import RunService, ServiceConfig
from repro.service.state import ServiceState

__all__ = [
    "RunService",
    "ServiceConfig",
    "ServiceClient",
    "StaleDiscoveryError",
    "FairShareQueue",
    "JobJournal",
    "ServiceState",
    "backoff_delay",
    "load_discovery",
    "pid_alive",
    "JOB_STATES",
    "SERVICE_JOB_SCHEMA",
    "SERVICE_LEDGER_NAME",
    "SERVICE_LEDGER_SCHEMA",
]
