"""Asyncio client for the run service's JSON-lines protocol.

One :class:`ServiceClient` owns one socket and multiplexes any number of
concurrent requests over it: every request carries a client-assigned
``id``, a background reader task resolves the matching future when the
response line arrives, so ``await client.submit(...)`` from a hundred
tasks shares one connection without head-of-line blocking on the
server's side (the server pipelines too -- each request is served by its
own task).  This is what lets the load generator simulate thousands of
tenants over a handful of sockets.

Reconnection: the client remembers its address, so a dropped socket
(server crash, restart) is survivable.  :meth:`ServiceClient.reconnect`
re-dials with exponential backoff and jitter, and
:meth:`ServiceClient.submit_reliable` composes that with an idempotency
key -- the resubmission after a reconnect lands on the *same* job
server-side (deduped against the journal-backed key map), so a crash
between ack and result never double-computes and never loses the
submission.

Discovery: the server writes ``service.json`` next to its job ledger;
:func:`load_discovery` reads it so CLI clients can find a locally
running server without flags.  Because a kill -9 leaves that file
behind, discovery carries the server's pid and a per-life ``nonce``:
``require_live=True`` probes the pid and raises
:class:`StaleDiscoveryError` instead of letting callers dial a dead
address and surface a raw ``ConnectionRefusedError``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import random
from pathlib import Path
from sys import intern
from typing import Any, Dict, List, Optional, Tuple, Union

log = logging.getLogger(__name__)

__all__ = [
    "ServiceClient",
    "StaleDiscoveryError",
    "backoff_delay",
    "load_discovery",
    "pid_alive",
]

_STREAM_LIMIT = 16 * 1024 * 1024


def _shared(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """One object of a response, its keys and string values interned.

    Responses repeat the same keys and mostly the same values (states,
    names, the schema, scenario and artifact digests), and json.loads
    builds fresh strings for each; interned, a caller that keeps many
    responses holds each of them once.  A kept warm ``submit`` result
    takes about 1.2 KB instead of 2.6 KB, for about 6 us more per parse.
    """
    return {intern(k): intern(v) if type(v) is str else v for k, v in pairs}


class StaleDiscoveryError(ConnectionError):
    """The discovery file names a server that is no longer alive."""


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    jitter: float = 0.5,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay before retry ``attempt`` (0-based): capped exponential
    backoff with jitter.

    The undithered delay is ``min(cap, base * 2**attempt)``; jitter
    spreads the result uniformly over ``[delay * (1 - jitter), delay]``
    so a thundering herd of reconnecting clients decorrelates.  Pass a
    seeded ``rng`` for a deterministic sequence (tests, reproducible
    load runs); the module-level generator is used otherwise.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    delay = min(cap, base * (2.0 ** min(attempt, 32)))
    if jitter <= 0.0:
        return delay
    r = (rng or random).random()
    return delay * (1.0 - jitter * r)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0, no signal delivered)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, other user
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


def load_discovery(
    where: Union[Path, str], *, require_live: bool = False
) -> Dict[str, Any]:
    """Read a service discovery document.

    ``where`` may be the discovery file itself or the directory the
    server wrote it into (the store's parent by default).  With
    ``require_live=True`` the advertised pid is probed and a
    :class:`StaleDiscoveryError` raised when the server is gone -- the
    difference between "the server is not running (stale discovery
    file)" and a connection refused nobody can interpret.
    """
    from repro.service.server import DISCOVERY_NAME, DISCOVERY_SCHEMA

    path = Path(where)
    if path.is_dir():
        path = path / DISCOVERY_NAME
    if not path.exists():
        raise FileNotFoundError(
            f"no service discovery file at {path} -- is `repro-io serve` "
            f"running with this state directory?"
        )
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != DISCOVERY_SCHEMA:
        raise ValueError(f"{path} is not a service discovery document")
    if require_live and not pid_alive(int(doc.get("pid") or 0)):
        raise StaleDiscoveryError(
            f"server not running (stale discovery file): {path} names "
            f"pid {doc.get('pid')}, which is dead -- the server likely "
            f"crashed; restart `repro-io serve` (it will recover journaled "
            f"jobs) or delete the file"
        )
    return doc


class ServiceClient:
    """One connection to a :class:`repro.service.RunService`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ):
        self._host = host
        self._port = port
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._reconnect_lock = asyncio.Lock()
        #: Bumped on every successful reconnect (see :meth:`reconnect`).
        self._generation = 0
        #: Successful reconnects over this client's lifetime.
        self.reconnects = 0
        self._attach(reader, writer)

    def _attach(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="service-client-reader"
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> "ServiceClient":
        """Dial the service, retrying refused connections with backoff."""
        reader, writer = await cls._dial(
            host, port, retries=retries, backoff_base=backoff_base,
            backoff_cap=backoff_cap, jitter=jitter, rng=rng,
        )
        return cls(reader, writer, host=host, port=port)

    @staticmethod
    async def _dial(
        host: str,
        port: int,
        *,
        retries: int,
        backoff_base: float,
        backoff_cap: float,
        jitter: float,
        rng: Optional[random.Random],
    ):
        attempt = 0
        while True:
            try:
                return await asyncio.open_connection(
                    host, port, limit=_STREAM_LIMIT
                )
            except (ConnectionRefusedError, OSError):
                if attempt >= retries:
                    raise
                await asyncio.sleep(backoff_delay(
                    attempt, base=backoff_base, cap=backoff_cap,
                    jitter=jitter, rng=rng,
                ))
                attempt += 1

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        await self._teardown()
        self._fail_pending(ConnectionError("client closed"))

    async def _teardown(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def reconnect(
        self,
        seen_generation: Optional[int] = None,
        *,
        retries: int = 8,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Replace a dead socket with a fresh one (same address).

        Like the server's pool rebuild, reconnection happens once per
        generation: every waiter that saw generation N call this, the
        first re-dials (with backoff), the rest observe the bumped
        generation and return immediately.  In-flight requests on the
        old socket fail with ``ConnectionError`` -- resubmit with an
        idempotency key (:meth:`submit_reliable` does exactly that).
        """
        if self._host is None or self._port is None:
            raise ConnectionError(
                "client has no remembered address to reconnect to"
            )
        async with self._reconnect_lock:
            if (seen_generation is not None
                    and self._generation != seen_generation):
                return
            await self._teardown()
            self._fail_pending(ConnectionError("reconnecting"))
            reader, writer = await self._dial(
                self._host, self._port, retries=retries,
                backoff_base=backoff_base, backoff_cap=backoff_cap,
                jitter=jitter, rng=rng,
            )
            self._attach(reader, writer)
            self._generation += 1
            self.reconnects += 1

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    doc = json.loads(line, object_pairs_hook=_shared)
                except json.JSONDecodeError:
                    log.warning("unparseable service response: %r", line[:200])
                    continue
                future = self._pending.pop(doc.pop("id", None), None)
                if future is None:
                    log.debug("unmatched service response: %r", doc)
                elif not future.done():
                    future.set_result(doc)
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, OSError) as exc:
            self._fail_pending(ConnectionError(str(exc)))
        else:
            self._fail_pending(ConnectionError("server closed the connection"))

    async def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one request and await its matched response document."""
        rid = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        payload = {"op": op, "id": rid, **params}
        data = json.dumps(payload).encode("utf-8") + b"\n"
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._pending.pop(rid, None)
            if not future.done():
                future.cancel()
            raise ConnectionError(str(exc)) from exc
        return await future

    # -- convenience ops -----------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def submit(
        self,
        scenario: Union[str, Dict[str, Any]],
        *,
        tenant: str = "anonymous",
        grid: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        wait: bool = True,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {
            "scenario": scenario, "tenant": tenant, "wait": wait,
        }
        if grid:
            params["grid"] = grid
        if seed is not None:
            params["seed"] = seed
        if idempotency_key is not None:
            params["idempotency_key"] = idempotency_key
        return await self.request("submit", **params)

    async def submit_reliable(
        self,
        scenario: Union[str, Dict[str, Any]],
        *,
        tenant: str = "anonymous",
        grid: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        wait: bool = True,
        idempotency_key: Optional[str] = None,
        max_reconnects: int = 5,
        retries_per_reconnect: int = 8,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> Dict[str, Any]:
        """Submit, surviving disconnects by reconnect + resubmission.

        Safe only with an ``idempotency_key``: the resubmission after a
        reconnect dedups onto the original job server-side, so the work
        runs once no matter how many times the socket (or the server)
        died in between.  Without a key each resubmission would be a
        fresh job -- still coalesced by digest, but double-counted.
        """
        for attempt in range(max_reconnects + 1):
            generation = self._generation
            try:
                return await self.submit(
                    scenario, tenant=tenant, grid=grid, seed=seed,
                    wait=wait, idempotency_key=idempotency_key,
                )
            except ConnectionError:
                if attempt >= max_reconnects:
                    raise
                await self.reconnect(
                    generation, retries=retries_per_reconnect,
                    backoff_base=backoff_base, backoff_cap=backoff_cap,
                    jitter=jitter, rng=rng,
                )
        raise ConnectionError("unreachable")  # pragma: no cover

    async def wait(self, job_id: str) -> Dict[str, Any]:
        return await self.request("wait", job_id=job_id)

    async def status(self, job_id: str) -> Dict[str, Any]:
        return await self.request("status", job_id=job_id)

    async def jobs(self, tenant: Optional[str] = None) -> Dict[str, Any]:
        params = {"tenant": tenant} if tenant is not None else {}
        return await self.request("jobs", **params)

    async def stats(self) -> Dict[str, Any]:
        return await self.request("stats")

    async def cancel(
        self,
        job_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {}
        if job_id is not None:
            params["job_id"] = job_id
        if tenant is not None:
            params["tenant"] = tenant
        return await self.request("cancel", **params)

    async def chaos_kill(self) -> Dict[str, Any]:
        return await self.request("chaos-kill")

    async def shutdown(self, *, drain: bool = False) -> Dict[str, Any]:
        if drain:
            return await self.request("shutdown", drain=True)
        return await self.request("shutdown")
