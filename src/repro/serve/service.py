"""The multi-tenant detection service (docs/SERVING.md).

One asyncio endpoint multiplexes many tenants into sharded
:class:`~repro.pipeline.session.DetectionSession` pools. The design
rule is *degrade, never die*: every overload and client-misbehavior
path has a bounded, observable response, and nothing a client does can
raise out of the event loop.

Data path
---------

Each connection's reader coroutine validates frames and appends
observations to the tenant's **bounded pending deque**; a per-shard
worker coroutine drains pending deques in bounded batches and folds
observations into the tenant's session (CPU work is chunked with
``await asyncio.sleep(0)`` so verdict evaluation never starves other
tenants). Server→client traffic (credits, verdicts, errors, goodbye)
goes through a **coalescing outbox** — credits sum, only the latest
verdict frame is kept — so a client that stops reading can never grow
server memory.

Backpressure & shedding ladder
------------------------------

1. **Credits**: the client may have at most ``initial_credits``
   unacknowledged observations in flight; the server re-grants credits
   as it consumes (folds *or* sheds) them. An honest client therefore
   can't overrun its queue by more than the credit window.
2. **Sampling shed**: past ``overload_queue_fraction`` of queue
   capacity the server keeps only one in ``shed_sample_every``
   arrivals.
3. **Hard shed**: at capacity every arrival is dropped.

Every shed quantum (and every transport-lost quantum, inferred from
sequence gaps) is stamped as a ``shed:*`` / ``lost:*`` fault tag on the
next observation that *is* folded, so the analyzers' health machine
turns overload into a DEGRADED verdict — an overloaded tenant is never
silently OK.

Memory & lifecycle
------------------

Admission control caps tenants; resident sessions are capped with LRU
eviction of disconnected tenants (their final report is sealed at
eviction); idle disconnected tenants expire. :meth:`DetectionService.stop`
drains every pending queue (bounded by ``drain_timeout``), closes every
session exactly once, and pushes each connected tenant its ``goodbye``
with final verdicts before the socket closes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import zlib
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.report import DetectionReport
from repro.errors import FrameDecodeError, ServeError, WireError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_default
from repro.obs.slo import SloTracker
from repro.obs.telemetry import (
    TelemetryServer,
    json_response,
    text_response,
)
from repro.obs.tracing import get_profiler, get_recorder, trace_span
from repro.pipeline.health import Health, worst
from repro.pipeline.session import DetectionSession, build_session_from_specs
from repro.pipeline.source import ChannelSpec, QuantumObservation
from repro.serve.wire import (
    Bye,
    Credit,
    ErrorFrame,
    Goodbye,
    Hello,
    ObsFrame,
    VerdictFrame,
    Welcome,
    read_frame,
    send_frame,
)

_log = get_logger("serve.service")


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Service knobs; defaults favor small-footprint determinism."""

    host: str = "127.0.0.1"
    #: 0 = bind an ephemeral port (read it back from ``service.port``).
    port: int = 0
    #: Shard workers folding observations; tenants hash across them.
    shards: int = 2
    #: Per-tenant pending-observation cap (hard-shed point).
    queue_capacity: int = 64
    #: Credit window a tenant starts with (max obs in flight).
    initial_credits: int = 32
    #: Re-grant credits after this many consumed observations.
    credit_batch: int = 8
    #: Send a verdict frame every N folded observations.
    verdict_every: int = 8
    #: Admission cap on simultaneously known tenants.
    max_tenants: int = 64
    #: Resident DetectionSession cap (LRU-evicts disconnected tenants).
    max_resident_sessions: int = 48
    #: Disconnected tenants are expired after this long idle.
    idle_expiry: float = 30.0
    #: Queue fill fraction beyond which sampling shed kicks in.
    overload_queue_fraction: float = 0.75
    #: Under sampling shed, keep 1 of every N arrivals.
    shed_sample_every: int = 2
    #: Max observations a shard folds per tenant turn (fairness).
    fold_batch: int = 16
    #: Seconds a client may take to send its hello frame.
    hello_timeout: float = 5.0
    #: Seconds stop() waits for pending queues to drain.
    drain_timeout: float = 5.0
    #: With a port set (0 = ephemeral), serve the live telemetry plane
    #: (``/metrics``, ``/healthz``, ``/readyz``, ``/tenants``,
    #: ``/profile``) on it; ``None`` disables the admin endpoint.
    admin_port: Optional[int] = None
    #: Append-only JSONL file receiving fired SLO alerts.
    alerts_out: Optional[str] = None

    def __post_init__(self):
        if self.shards < 1:
            raise ServeError("shards must be >= 1")
        if self.queue_capacity < 2:
            raise ServeError("queue_capacity must be >= 2")
        if not 0 < self.initial_credits <= self.queue_capacity:
            raise ServeError(
                "initial_credits must be in [1, queue_capacity] "
                f"(got {self.initial_credits} vs {self.queue_capacity})"
            )
        if self.credit_batch < 1 or self.verdict_every < 1:
            raise ServeError("credit_batch/verdict_every must be >= 1")
        if self.max_tenants < 1 or self.max_resident_sessions < 1:
            raise ServeError(
                "max_tenants/max_resident_sessions must be >= 1"
            )
        if not 0.0 < self.overload_queue_fraction <= 1.0:
            raise ServeError("overload_queue_fraction must be in (0, 1]")
        if self.shed_sample_every < 1 or self.fold_batch < 1:
            raise ServeError("shed_sample_every/fold_batch must be >= 1")


@dataclasses.dataclass(frozen=True)
class TenantStats:
    """One tenant's delivery accounting, as of now."""

    tenant: str
    connected: bool
    resident: bool
    received: int
    shed: int
    lost: int
    health: str
    any_detected: bool
    #: Verdict frames silently superseded in the coalescing outbox.
    coalesced: int = 0


class _Outbox:
    """Coalescing server→client mailbox: bounded regardless of client.

    Credits accumulate as one integer; only the newest verdict frame is
    retained; errors keep the last few. The writer coroutine drains
    whatever is pending whenever the event fires.
    """

    __slots__ = ("event", "credits", "verdict", "errors", "goodbye")

    def __init__(self):
        self.event = asyncio.Event()
        self.credits = 0
        self.verdict: Optional[VerdictFrame] = None
        self.errors: Deque[ErrorFrame] = deque(maxlen=8)
        self.goodbye: Optional[Goodbye] = None

    def put_credits(self, n: int) -> None:
        self.credits += n
        self.event.set()

    def put_verdict(self, frame: VerdictFrame) -> bool:
        """Queue a verdict; True when it superseded an unsent one."""
        coalesced = self.verdict is not None
        self.verdict = frame
        self.event.set()
        return coalesced

    def put_error(self, frame: ErrorFrame) -> None:
        self.errors.append(frame)
        self.event.set()

    def put_goodbye(self, frame: Goodbye) -> None:
        if self.goodbye is None:
            self.goodbye = frame
        self.event.set()


class _Tenant:
    """Everything the service knows about one tenant."""

    __slots__ = (
        "name", "specs", "session", "final_report", "pending",
        "pending_tags", "outbox", "connected", "bye_requested",
        "queued", "shard", "next_seq", "client_credits", "uncredited",
        "received", "shed", "lost", "overload_tick", "last_active",
        "evictions", "arrivals", "trace_id", "coalesced", "last_verdict",
        "last_report",
    )

    def __init__(self, name: str, specs: Tuple[ChannelSpec, ...], shard: int):
        self.name = name
        self.specs = specs
        self.shard = shard
        self.session: Optional[DetectionSession] = None
        self.final_report = None
        #: Bounded ingest queue (reader appends, shard worker pops).
        self.pending: Deque[QuantumObservation] = deque()
        #: shed:*/lost:* tags to stamp on the next folded observation.
        self.pending_tags: List[str] = []
        self.outbox: Optional[_Outbox] = None
        self.connected = False
        self.bye_requested = False
        #: True while the tenant sits in its shard's ready queue.
        self.queued = False
        self.next_seq = 0
        self.client_credits = 0
        #: Consumed observations not yet returned as credits.
        self.uncredited = 0
        self.received = 0
        self.shed = 0
        self.lost = 0
        self.overload_tick = 0
        self.last_active = 0.0
        self.evictions = 0
        #: ``perf_counter`` ingest stamps, in lockstep with ``pending``
        #: (same appends/pops), feeding queue-wait spans and SLO latency.
        self.arrivals: Deque[float] = deque()
        #: Client-provided trace id (hello frame); server spans for
        #: this tenant carry it so merge_remote_trace can join flows.
        self.trace_id: Optional[str] = None
        #: Verdict frames superseded before the writer sent them.
        self.coalesced = 0
        #: Small summary of the newest queued verdict (telemetry only).
        self.last_verdict: Optional[Dict[str, object]] = None
        #: Report behind the newest verdict frame; stats and the admin
        #: routes answer from it instead of re-evaluating the session.
        self.last_report: Optional[DetectionReport] = None


class DetectionService:
    """Asyncio server hosting many tenants' detection sessions."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        slo: Optional[SloTracker] = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else get_default()
        self.clock = clock
        #: Per-tenant SLO windows + burn-rate alerting, fed from the
        #: data path (verdict latency, shed fate, verdict health).
        self.slo = slo if slo is not None else SloTracker(
            metrics=self.metrics, alerts_path=self.config.alerts_out
        )
        self._tenants: Dict[str, _Tenant] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._admin: Optional[TelemetryServer] = None
        self._ready: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        self._reaper: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._draining = False
        self._stopped = False
        m = self.metrics
        self._m_connections = m.counter(
            "cchunter_serve_connections_total",
            "client connections accepted",
        )
        self._m_obs = m.counter(
            "cchunter_serve_obs_total",
            "observation frames accepted into tenant queues",
        )
        self._m_folded = m.counter(
            "cchunter_serve_folded_total",
            "observations folded into tenant sessions",
        )
        self._m_shed = m.counter(
            "cchunter_serve_shed_total",
            "observations shed by admission/overload control",
        )
        self._m_lost = m.counter(
            "cchunter_serve_lost_total",
            "observations lost in transit (sequence gaps)",
        )
        self._m_decode_errors = m.counter(
            "cchunter_serve_decode_errors_total",
            "recoverable frame decode failures answered with error frames",
        )
        self._m_rejected = m.counter(
            "cchunter_serve_rejected_total",
            "connections refused by admission control",
        )
        self._m_evictions = m.counter(
            "cchunter_serve_evictions_total",
            "resident sessions LRU-evicted or idle-expired",
        )
        self._m_tenants = m.gauge(
            "cchunter_serve_tenants",
            "tenants currently known to the service",
        )
        self._m_resident = m.gauge(
            "cchunter_serve_resident_sessions",
            "detection sessions currently resident in memory",
        )
        self._m_fold = m.histogram(
            "cchunter_serve_fold_seconds",
            "wall time of one shard fold batch (one tenant turn)",
        )

    # ------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ServeError("service is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def admin_port(self) -> int:
        if self._admin is None:
            raise ServeError("admin endpoint is not enabled")
        return self._admin.port

    async def start(self) -> Tuple[str, int]:
        """Bind and start shard workers; returns ``(host, port)``."""
        if self._server is not None:
            raise ServeError("service already started")
        self._ready = [asyncio.Queue() for _ in range(self.config.shards)]
        self._workers = [
            asyncio.create_task(
                self._supervised(self._shard_worker(i), f"shard-{i}")
            )
            for i in range(self.config.shards)
        ]
        self._reaper = asyncio.create_task(
            self._supervised(self._reap_idle(), "reaper")
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.admin_port is not None:
            self._admin = TelemetryServer(
                self.config.host, self.config.admin_port
            )
            self._bind_admin_routes(self._admin)
            await self._admin.start()
            _log.info(
                "telemetry plane on %s:%d", self.host, self._admin.port
            )
        _log.info(
            "serving on %s:%d (%d shards)",
            self.host, self.port, self.config.shards,
        )
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> Dict[str, TenantStats]:
        """Graceful shutdown; returns final per-tenant stats.

        Stops accepting, drains pending queues (bounded by
        ``drain_timeout``), seals every session's final report, pushes
        ``goodbye`` to still-connected tenants, then tears down workers
        and connections. Idempotent.
        """
        if self._stopped:
            return self.stats()
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self.clock() + self.config.drain_timeout
        while (
            any(t.pending for t in self._tenants.values())
            and self.clock() < deadline
        ):
            await asyncio.sleep(0.005)
        leftover = sum(len(t.pending) for t in self._tenants.values())
        if leftover:
            _log.warning(
                "drain timeout: shedding %d undrained observation(s)",
                leftover,
            )
        for tenant in list(self._tenants.values()):
            if tenant.pending:
                self._shed_remaining(tenant)
            self._finalize(tenant)
        # Let writer coroutines flush goodbyes before we cancel tasks.
        for _ in range(40):
            if all(
                t.outbox is None or t.outbox.goodbye is None
                for t in self._tenants.values()
                if t.connected
            ):
                break
            await asyncio.sleep(0.01)
        self._stopped = True
        stats = self.stats()
        for task in [*self._workers, self._reaper]:
            if task is not None:
                task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(
            *self._workers,
            *(t for t in [self._reaper] if t is not None),
            *self._conn_tasks,
            return_exceptions=True,
        )
        self._workers = []
        self._reaper = None
        # The telemetry plane answers scrapes for the whole drain; it
        # goes down last so "/readyz 503, /healthz 200" is observable.
        if self._admin is not None:
            await self._admin.stop()
        return stats

    # ------------------------------------------------------------ accounting

    def stats(self) -> Dict[str, TenantStats]:
        return {name: self.tenant_stats(name) for name in self._tenants}

    def tenant_stats(self, name: str) -> TenantStats:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ServeError(f"unknown tenant {name!r}")
        report = tenant.final_report or tenant.last_report
        return TenantStats(
            tenant=name,
            connected=tenant.connected,
            resident=tenant.session is not None
            and not tenant.session.closed,
            received=tenant.received,
            shed=tenant.shed,
            lost=tenant.lost,
            health=report.health if report is not None else "ok",
            any_detected=(
                report.any_detected if report is not None else False
            ),
            coalesced=tenant.coalesced,
        )

    def tenant_telemetry(self, name: str) -> Dict[str, object]:
        """JSON-ready live view of one tenant (``/tenants/<id>``)."""
        stats = self.tenant_stats(name)
        tenant = self._tenants[name]
        return {
            "tenant": name,
            "connected": stats.connected,
            "resident": stats.resident,
            "shard": tenant.shard,
            "received": stats.received,
            "shed": stats.shed,
            "lost": stats.lost,
            "coalesced": stats.coalesced,
            "health": stats.health,
            "any_detected": stats.any_detected,
            "credit": {
                "client_credits": tenant.client_credits,
                "uncredited": tenant.uncredited,
                "pending": len(tenant.pending),
            },
            "last_verdict": tenant.last_verdict,
            "slo": self.slo.tenant_snapshot(name),
        }

    def _gauge_sync(self) -> None:
        self._m_tenants.set(len(self._tenants))
        self._m_resident.set(
            sum(
                1
                for t in self._tenants.values()
                if t.session is not None and not t.session.closed
            )
        )

    # ------------------------------------------------------- telemetry plane

    def _bind_admin_routes(self, admin: TelemetryServer) -> None:
        admin.route("/metrics", self._admin_metrics)
        admin.route("/healthz", self._admin_healthz)
        admin.route("/readyz", self._admin_readyz)
        admin.route("/tenants", self._admin_tenants)
        admin.route_prefix("/tenants/", self._admin_tenant)
        admin.route("/profile", self._admin_profile)

    def _worst_health(self) -> str:
        return worst(
            [Health.OK]
            + [Health(self.tenant_stats(n).health) for n in self._tenants]
        ).value

    def _admin_metrics(self):
        if not self.metrics.enabled:
            return text_response("# metrics registry disabled\n")
        return text_response(self.metrics.render_prometheus())

    def _admin_healthz(self):
        """Liveness + the session health ladder; 503 once stopped."""
        health = self._worst_health()
        doc = {
            "status": "stopped" if self._stopped else "alive",
            "health": health,
            "tenants": len(self._tenants),
        }
        return json_response(doc, status=503 if self._stopped else 200)

    def _admin_readyz(self):
        """Readiness: 503 while draining/stopped, so LBs stop routing."""
        ready = (
            self._server is not None
            and not self._draining
            and not self._stopped
        )
        return json_response(
            {"ready": ready, "draining": self._draining},
            status=200 if ready else 503,
        )

    def _admin_tenants(self):
        return json_response(
            {
                "format": "repro.serve.tenants/v1",
                "draining": self._draining,
                "tenants": [
                    self.tenant_telemetry(name)
                    for name in sorted(self._tenants)
                ],
            }
        )

    def _admin_tenant(self, name: str):
        if name not in self._tenants:
            return json_response(
                {"error": f"unknown tenant {name!r}"}, status=404
            )
        return json_response(self.tenant_telemetry(name))

    def _admin_profile(self):
        profiler = get_profiler()
        if profiler is None:
            return json_response(
                {"error": "profiling is not enabled"}, status=404
            )
        return json_response(profiler.to_dict())

    # ------------------------------------------------------------ admission

    def _admit(self, hello: Hello) -> _Tenant:
        """Find or create the tenant; raises ServeError to refuse."""
        if self._draining:
            raise ServeError("service is draining; try another endpoint")
        tenant = self._tenants.get(hello.tenant)
        if tenant is not None:
            if tenant.connected:
                raise ServeError(
                    f"tenant {hello.tenant!r} already has a live connection"
                )
            if tenant.specs != hello.channels:
                raise ServeError(
                    f"tenant {hello.tenant!r} reconnected with different "
                    "channels; finish the old stream first"
                )
            return tenant
        if len(self._tenants) >= self.config.max_tenants:
            raise ServeError(
                f"tenant limit reached ({self.config.max_tenants}); "
                "shed this client"
            )
        shard = zlib.crc32(hello.tenant.encode("utf-8")) % self.config.shards
        tenant = _Tenant(hello.tenant, hello.channels, shard)
        tenant.last_active = self.clock()
        self._tenants[hello.tenant] = tenant
        self._gauge_sync()
        return tenant

    def _ensure_resident(self, tenant: _Tenant) -> DetectionSession:
        """The tenant's live session, rebuilding after eviction."""
        if tenant.session is None or tenant.session.closed:
            self._evict_for_headroom()
            tenant.session = build_session_from_specs(
                tenant.specs, metrics=self.metrics
            )
            tenant.final_report = None
            tenant.last_report = None
            if tenant.evictions:
                # A rebuilt session lost its history; make that visible.
                tenant.pending_tags.append("evicted:*")
            self._gauge_sync()
        return tenant.session

    def _evict_for_headroom(self) -> None:
        """LRU-evict disconnected sessions to stay under the cap."""
        while (
            sum(
                1
                for t in self._tenants.values()
                if t.session is not None and not t.session.closed
            )
            >= self.config.max_resident_sessions
        ):
            victims = [
                t
                for t in self._tenants.values()
                if t.session is not None
                and not t.session.closed
                and not t.connected
                and not t.pending
            ]
            if not victims:
                raise ServeError(
                    "session capacity exhausted and every resident "
                    "session is active; shed this client"
                )
            victim = min(victims, key=lambda t: t.last_active)
            _log.info(
                "LRU-evicting idle session of tenant %r",
                victim.name,
                extra={"tenant": victim.name, "shard": victim.shard},
            )
            victim.final_report = victim.session.close()
            victim.evictions += 1
            self._m_evictions.inc()
            self._gauge_sync()

    # ------------------------------------------------------------ data path

    def _enqueue(self, tenant: _Tenant, frame: ObsFrame) -> None:
        """Reader-side ingest: seq gaps, credits, shedding. Never blocks."""
        cfg = self.config
        tenant.last_active = self.clock()
        if frame.seq > tenant.next_seq:
            gap = frame.seq - tenant.next_seq
            tenant.lost += gap
            self._m_lost.inc(gap)
            tenant.pending_tags.extend(["lost:*"] * min(gap, 64))
            for _ in range(min(gap, 64)):
                self.slo.observe_shed(tenant.name, True)
            # Lost frames spent client credits that will never be
            # consumed by a fold; return them so the client can't starve.
            self._earn_credits(tenant, gap)
        tenant.next_seq = max(tenant.next_seq, frame.seq + 1)
        depth = len(tenant.pending)
        shed = False
        if depth >= cfg.queue_capacity:
            shed = True
        elif depth >= cfg.overload_queue_fraction * cfg.queue_capacity:
            tenant.overload_tick += 1
            shed = tenant.overload_tick % cfg.shed_sample_every != 0
        if shed:
            tenant.shed += 1
            self._m_shed.inc()
            tenant.pending_tags.append("shed:*")
            self.slo.observe_shed(tenant.name, True)
            self._earn_credits(tenant, 1)
            return
        tenant.pending.append(frame.observation)
        tenant.arrivals.append(time.perf_counter())
        self._m_obs.inc()
        self._kick(tenant)

    def _kick(self, tenant: _Tenant) -> None:
        if not tenant.queued:
            tenant.queued = True
            self._ready[tenant.shard].put_nowait(tenant.name)

    def _earn_credits(self, tenant: _Tenant, n: int) -> None:
        tenant.uncredited += n
        if (
            tenant.uncredited >= self.config.credit_batch
            and tenant.outbox is not None
        ):
            tenant.client_credits += tenant.uncredited
            tenant.outbox.put_credits(tenant.uncredited)
            tenant.uncredited = 0

    def _shed_remaining(self, tenant: _Tenant) -> None:
        n = len(tenant.pending)
        tenant.pending.clear()
        tenant.arrivals.clear()
        tenant.shed += n
        self._m_shed.inc(n)
        tenant.pending_tags.extend(["shed:*"] * min(n, 64))
        for _ in range(min(n, 64)):
            self.slo.observe_shed(tenant.name, True)

    def _fold_one(
        self,
        tenant: _Tenant,
        obs: QuantumObservation,
        arrival: Optional[float] = None,
    ) -> None:
        if self._draining and tenant.final_report is not None:
            # Shutdown already sealed this tenant's report; late
            # arrivals are shed, never folded into a rebuilt session.
            tenant.shed += 1
            self._m_shed.inc()
            self.slo.observe_shed(tenant.name, True)
            return
        session = self._ensure_resident(tenant)
        if tenant.pending_tags:
            obs = dataclasses.replace(
                obs, faults=obs.faults + tuple(tenant.pending_tags)
            )
            tenant.pending_tags.clear()
        with trace_span(
            "serve.fold",
            tenant=tenant.name,
            shard=tenant.shard,
            quantum=obs.quantum,
            trace_id=tenant.trace_id,
        ):
            session.push_quantum(obs)
        tenant.received += 1
        self._m_folded.inc()
        self.slo.observe_shed(tenant.name, False)
        self._earn_credits(tenant, 1)
        if (
            tenant.received % self.config.verdict_every == 0
            and tenant.outbox is not None
        ):
            with trace_span(
                "serve.analyze",
                tenant=tenant.name,
                shard=tenant.shard,
                quantum=obs.quantum,
                trace_id=tenant.trace_id,
            ):
                report = session.current_verdicts()
            tenant.last_report = report
            if tenant.outbox.put_verdict(
                VerdictFrame(
                    quantum=obs.quantum,
                    verdicts=report.verdicts,
                    health=report.health,
                )
            ):
                tenant.coalesced += 1
                if self.metrics.enabled:
                    self.metrics.counter(
                        "cchunter_serve_verdicts_coalesced_total",
                        "verdict frames superseded in the outbox before "
                        "the client read them",
                        labels={"tenant": tenant.name},
                    ).inc()
            latency = (
                time.perf_counter() - arrival if arrival is not None else None
            )
            tenant.last_verdict = {
                "quantum": obs.quantum,
                "health": report.health,
                "any_detected": report.any_detected,
                "latency_s": latency,
            }
            if latency is not None:
                self.slo.observe_latency(tenant.name, latency)
            self.slo.observe_health(tenant.name, report.health)
            self.slo.evaluate(tenant.name)

    def _finalize(self, tenant: _Tenant) -> None:
        """Seal the tenant's final report and queue its goodbye."""
        if tenant.session is not None and not tenant.session.closed:
            tenant.final_report = tenant.session.close()
        if tenant.final_report is None and tenant.session is not None:
            tenant.final_report = tenant.session.close()
        if tenant.final_report is not None and tenant.outbox is not None:
            tenant.outbox.put_goodbye(
                Goodbye(
                    report=tenant.final_report,
                    received=tenant.received,
                    shed=tenant.shed,
                )
            )
        self._gauge_sync()

    async def _shard_worker(self, shard: int) -> None:
        queue = self._ready[shard]
        while True:
            name = await queue.get()
            tenant = self._tenants.get(name)
            if tenant is None:
                continue
            tenant.queued = False
            timed = self.metrics.enabled
            t0 = time.perf_counter() if timed else 0.0
            budget = self.config.fold_batch
            recorder = get_recorder()
            try:
                while tenant.pending and budget > 0:
                    obs = tenant.pending.popleft()
                    arrival = (
                        tenant.arrivals.popleft()
                        if tenant.arrivals
                        else None
                    )
                    if (
                        recorder is not None
                        and tenant.trace_id is not None
                        and arrival is not None
                    ):
                        # Retroactive span: ingest → this pop is the
                        # time the observation sat in the pending queue.
                        recorder.record(
                            "serve.queue_wait",
                            arrival,
                            time.perf_counter() - arrival,
                            {
                                "tenant": tenant.name,
                                "shard": shard,
                                "quantum": obs.quantum,
                                "trace_id": tenant.trace_id,
                            },
                        )
                    self._fold_one(tenant, obs, arrival=arrival)
                    budget -= 1
            except ServeError as exc:
                # Capacity exhaustion mid-fold: shed what's left.
                _log.error(
                    "fold failed for %r: %s",
                    name,
                    exc,
                    extra={"tenant": name, "shard": shard},
                )
                self._shed_remaining(tenant)
            if timed:
                self._m_fold.observe(time.perf_counter() - t0)
            if tenant.pending:
                self._kick(tenant)
            elif tenant.bye_requested:
                self._finalize(tenant)
            # Yield so one hot tenant can't monopolize the loop.
            await asyncio.sleep(0)

    async def _reap_idle(self) -> None:
        interval = max(0.05, self.config.idle_expiry / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = self.clock()
            for name, tenant in list(self._tenants.items()):
                if tenant.connected or tenant.pending:
                    continue
                if now - tenant.last_active < self.config.idle_expiry:
                    continue
                _log.info(
                    "expiring idle tenant %r",
                    name,
                    extra={"tenant": name, "shard": tenant.shard},
                )
                if tenant.session is not None and not tenant.session.closed:
                    tenant.final_report = tenant.session.close()
                    self._m_evictions.inc()
                del self._tenants[name]
            self._gauge_sync()

    # ----------------------------------------------------------- connection

    async def _supervised(self, coro, label: str) -> None:
        """Run a service coroutine; log-and-restart instead of dying."""
        while True:
            try:
                await coro
                return
            except asyncio.CancelledError:
                raise
            except Exception:
                _log.exception("%s crashed; restarting", label)
                if label.startswith("shard-"):
                    coro = self._shard_worker(int(label.split("-")[1]))
                elif label == "reaper":
                    coro = self._reap_idle()
                else:
                    return
                await asyncio.sleep(0.05)

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._m_connections.inc()
        tenant: Optional[_Tenant] = None
        writer_task: Optional[asyncio.Task] = None
        try:
            tenant, writer_task = await self._open_session(reader, writer)
            if tenant is None:
                return
            graceful = await self._reader_loop(reader, tenant)
            if graceful:
                # Bye path: the goodbye may still be waiting on a shard
                # worker draining the queue; give it the full drain
                # budget before tearing the writer down.
                try:
                    await asyncio.wait_for(
                        asyncio.shield(writer_task),
                        timeout=self.config.drain_timeout,
                    )
                except asyncio.TimeoutError:
                    _log.warning(
                        "goodbye flush for %r timed out",
                        tenant.name,
                        extra={
                            "tenant": tenant.name,
                            "shard": tenant.shard,
                        },
                    )
        except asyncio.CancelledError:
            pass
        except Exception:
            # Containment backstop: a connection bug degrades one
            # client, never the loop.
            _log.exception("connection handler crashed")
        finally:
            if tenant is not None:
                tenant.connected = False
                tenant.last_active = self.clock()
            if writer_task is not None and not writer_task.done():
                # Give the writer a beat to flush queued error frames.
                try:
                    await asyncio.wait_for(
                        asyncio.shield(writer_task), timeout=0.25
                    )
                except asyncio.CancelledError:
                    writer_task.cancel()
                except (asyncio.TimeoutError, Exception):
                    writer_task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            if tenant is not None:
                tenant.outbox = None
            self._conn_tasks.discard(task)

    async def _open_session(self, reader, writer):
        """Handshake: hello → admission → welcome. None on refusal."""
        try:
            frame = await asyncio.wait_for(
                read_frame(reader), timeout=self.config.hello_timeout
            )
        except asyncio.TimeoutError:
            await self._refuse(writer, "timeout", "no hello frame")
            return None, None
        except WireError as exc:
            await self._refuse(writer, "protocol", str(exc))
            return None, None
        if not isinstance(frame, Hello):
            await self._refuse(
                writer, "protocol",
                f"expected hello, got {getattr(frame, 'type', 'EOF')!r}",
            )
            return None, None
        try:
            tenant = self._admit(frame)
            self._ensure_resident(tenant)
        except ServeError as exc:
            self._m_rejected.inc()
            await self._refuse(writer, "admission", str(exc))
            return None, None
        tenant.connected = True
        tenant.bye_requested = False
        tenant.last_active = self.clock()
        if frame.trace is not None:
            tenant.trace_id = frame.trace.trace_id
        tenant.outbox = _Outbox()
        tenant.client_credits = self.config.initial_credits
        tenant.uncredited = 0
        await send_frame(
            writer,
            Welcome(
                credits=self.config.initial_credits,
                verdict_every=self.config.verdict_every,
            ),
        )
        writer_task = asyncio.create_task(
            self._writer_loop(writer, tenant.outbox)
        )
        return tenant, writer_task

    async def _refuse(self, writer, code: str, message: str) -> None:
        try:
            await send_frame(
                writer, ErrorFrame(code=code, message=message, fatal=True)
            )
        except Exception:
            pass

    async def _reader_loop(self, reader, tenant: _Tenant) -> bool:
        """Consume client frames; True when the client said ``bye``."""
        while True:
            try:
                frame = await read_frame(reader)
            except FrameDecodeError as exc:
                # Stream still aligned: answer and keep going. The bad
                # frame may have been an obs the client paid a credit
                # for, so refund one.
                self._m_decode_errors.inc()
                tenant.outbox.put_error(
                    ErrorFrame(code="decode", message=str(exc), fatal=False)
                )
                self._earn_credits(tenant, 1)
                continue
            except WireError as exc:
                tenant.outbox.put_error(
                    ErrorFrame(code="stream", message=str(exc), fatal=True)
                )
                return False
            if frame is None:
                # Client vanished without bye; session stays resident
                # until idle expiry or reconnect.
                return False
            if isinstance(frame, ObsFrame):
                if tenant.client_credits <= 0:
                    tenant.outbox.put_error(
                        ErrorFrame(
                            code="credit",
                            message="observation sent with no credit",
                            fatal=True,
                        )
                    )
                    return False
                tenant.client_credits -= 1
                self._enqueue(tenant, frame)
            elif isinstance(frame, Bye):
                tenant.bye_requested = True
                if tenant.pending:
                    self._kick(tenant)
                else:
                    self._finalize(tenant)
                return True
            else:
                tenant.outbox.put_error(
                    ErrorFrame(
                        code="protocol",
                        message=f"unexpected {frame.type!r} frame "
                        "from client",
                        fatal=True,
                    )
                )
                return False

    async def _writer_loop(self, writer, outbox: _Outbox) -> None:
        """Drain the coalescing outbox until the goodbye is flushed."""
        try:
            while True:
                await outbox.event.wait()
                outbox.event.clear()
                if outbox.credits:
                    n, outbox.credits = outbox.credits, 0
                    await send_frame(writer, Credit(credits=n))
                while outbox.errors:
                    await send_frame(writer, outbox.errors.popleft())
                if outbox.verdict is not None:
                    frame, outbox.verdict = outbox.verdict, None
                    await send_frame(writer, frame)
                if outbox.goodbye is not None:
                    await send_frame(writer, outbox.goodbye)
                    outbox.goodbye = None
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception:
            _log.exception("writer loop crashed")
