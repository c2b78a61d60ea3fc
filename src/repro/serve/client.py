"""Serve client: stream observations, honor credits, collect verdicts.

:class:`ServeClient` is the protocol-complete asyncio client the CLI
(``repro stream``), the examples, and the load benchmark all use. It
enforces the credit window on its own side (``send`` suspends when the
client is out of credits), runs a background reader that dispatches
credits / verdicts / errors / goodbye, and optionally routes every
observation frame through a :class:`~repro.faults.wire.FlakyFrameLink`
to emulate a lossy client — dropped frames still consume a sequence
number, which is exactly how the server learns to tag ``lost:*``.

:func:`stream_tenant` is the one-call convenience: connect, stream an
iterable of observations, say bye, return the :class:`TenantResult`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional

from repro.core.report import DetectionReport
from repro.errors import ServeError, ServeUnavailableError
from repro.faults.wire import GARBAGE_BODY, FlakyFrameLink
from repro.obs.tracing import (
    SpanRecorder,
    TraceContext,
    get_recorder,
    new_span_id,
)
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
    _HEADER,
    read_frame,
    send_frame,
)


@dataclass
class TenantResult:
    """Everything one streamed tenant got back from the service."""

    tenant: str
    goodbye: Goodbye
    verdicts: List[VerdictFrame] = field(default_factory=list)
    errors: List[ErrorFrame] = field(default_factory=list)
    #: Observation frames the client attempted (sent + dropped + garbled).
    attempted: int = 0

    @property
    def report(self) -> DetectionReport:
        return self.goodbye.report


class ServeClient:
    """One tenant's connection to a :class:`DetectionService`."""

    def __init__(
        self,
        host: str,
        port: int,
        link: Optional[FlakyFrameLink] = None,
        on_verdict=None,
        trace_id: Optional[str] = None,
        recorder: Optional[SpanRecorder] = None,
    ):
        self.host = host
        self.port = port
        self.link = link
        #: Optional callback fired (from the reader task) on every
        #: verdict frame — the load bench uses it to timestamp arrivals.
        self.on_verdict = on_verdict
        #: With a trace id set, hello/obs frames carry a
        #: :class:`TraceContext` and the client records ``client.emit``
        #: / ``client.wire`` spans (into ``recorder`` or the global
        #: one), joinable with the server's via ``merge_remote_trace``.
        self.trace_id = trace_id
        self._recorder = recorder
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._credits: Optional[asyncio.Semaphore] = None
        self._goodbye: Optional[asyncio.Future] = None
        self._fatal: Optional[ErrorFrame] = None
        self.welcome: Optional[Welcome] = None
        self.verdicts: List[VerdictFrame] = []
        self.errors: List[ErrorFrame] = []
        self._seq = 0

    # ------------------------------------------------------------ lifecycle

    async def connect(self, tenant: str, channels: Iterable[ChannelSpec]):
        """Dial, handshake, and start the background reader."""
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ServeUnavailableError(
                f"cannot reach detection service at "
                f"{self.host}:{self.port}: {exc}"
            ) from None
        self.tenant = tenant
        trace = None
        if self.trace_id is not None:
            trace = TraceContext(
                trace_id=self.trace_id, parent_span=new_span_id()
            )
        await send_frame(
            self._writer,
            Hello(tenant=tenant, channels=tuple(channels), trace=trace),
        )
        frame = await read_frame(self._reader)
        if isinstance(frame, ErrorFrame):
            await self.aclose()
            raise ServeUnavailableError(
                f"service refused tenant {tenant!r}: "
                f"[{frame.code}] {frame.message}"
            )
        if not isinstance(frame, Welcome):
            await self.aclose()
            raise ServeError(
                f"expected welcome, got {getattr(frame, 'type', 'EOF')!r}"
            )
        self.welcome = frame
        self._credits = asyncio.Semaphore(frame.credits)
        self._goodbye = asyncio.get_running_loop().create_future()
        self._reader_task = asyncio.create_task(self._read_loop())
        return frame

    async def aclose(self) -> None:
        if (
            self._goodbye is not None
            and self._goodbye.done()
            and not self._goodbye.cancelled()
        ):
            # Mark any pending failure as retrieved; callers that care
            # already re-raised it via _raise_if_fatal/finish.
            self._goodbye.exception()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:
                pass
            self._writer = None

    # ------------------------------------------------------------ streaming

    def _trace_recorder(self) -> Optional[SpanRecorder]:
        """The span sink for client-side spans; None disables them."""
        if self.trace_id is None:
            return None
        return self._recorder if self._recorder is not None else get_recorder()

    async def send(self, obs: QuantumObservation) -> None:
        """Stream one observation, honoring the credit window.

        With a flaky link attached the frame may be dropped or replaced
        with garbage — either way it consumes a sequence number and a
        credit, exactly like a lossy network would.

        With tracing active (``trace_id`` + a recorder) two spans are
        recorded per observation: ``client.emit`` covers the whole call
        including the credit wait, ``client.wire`` just the transport
        write — their difference is client-side backpressure.
        """
        if self._writer is None or self._credits is None:
            raise ServeError("client is not connected")
        self._raise_if_fatal()
        rec = self._trace_recorder()
        t_emit = perf_counter() if rec is not None else 0.0
        await self._credits.acquire()
        self._raise_if_fatal()
        trace = None
        if self.trace_id is not None:
            trace = TraceContext(
                trace_id=self.trace_id, parent_span=new_span_id()
            )
        frame = ObsFrame(seq=self._seq, observation=obs, trace=trace)
        self._seq += 1
        t_wire = perf_counter() if rec is not None else 0.0
        await self._write_obs(frame)
        if rec is not None:
            t_done = perf_counter()
            attrs = {
                "tenant": self.tenant,
                "seq": frame.seq,
                "quantum": obs.quantum,
                "trace_id": self.trace_id,
            }
            rec.record("client.wire", t_wire, t_done - t_wire, attrs)
            rec.record("client.emit", t_emit, t_done - t_emit, attrs)

    async def _write_obs(self, frame: ObsFrame) -> None:
        if self.link is None:
            await send_frame(self._writer, frame)
            return
        action = self.link.action()
        if action.stall:
            await asyncio.sleep(action.stall)
        if action.drop:
            return
        if action.garbage:
            self._writer.write(
                _HEADER.pack(len(GARBAGE_BODY)) + GARBAGE_BODY
            )
            await self._writer.drain()
            return
        await send_frame(self._writer, frame)

    async def finish(self, timeout: float = 30.0) -> Goodbye:
        """Say bye, await the final report, and close."""
        if self._writer is None or self._goodbye is None:
            raise ServeError("client is not connected")
        await send_frame(self._writer, Bye())
        try:
            goodbye = await asyncio.wait_for(
                asyncio.shield(self._goodbye), timeout=timeout
            )
        except asyncio.TimeoutError:
            raise ServeError(
                f"no goodbye from service within {timeout}s"
            ) from None
        finally:
            await self.aclose()
        return goodbye

    def _raise_if_fatal(self) -> None:
        if self._fatal is not None:
            raise ServeError(
                f"service hung up: [{self._fatal.code}] "
                f"{self._fatal.message}"
            )
        if self._goodbye is not None and self._goodbye.done():
            exc = self._goodbye.exception()
            if exc is not None:
                raise exc

    # --------------------------------------------------------------- reader

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    self._fail(ServeError("service closed the connection"))
                    return
                if isinstance(frame, Credit):
                    for _ in range(frame.credits):
                        self._credits.release()
                elif isinstance(frame, VerdictFrame):
                    self.verdicts.append(frame)
                    if self.on_verdict is not None:
                        self.on_verdict(frame)
                elif isinstance(frame, ErrorFrame):
                    self.errors.append(frame)
                    if frame.fatal:
                        self._fatal = frame
                        self._fail(
                            ServeError(
                                f"[{frame.code}] {frame.message}"
                            )
                        )
                        return
                elif isinstance(frame, Goodbye):
                    if not self._goodbye.done():
                        self._goodbye.set_result(frame)
                    return
                else:
                    self._fail(
                        ServeError(
                            f"unexpected {frame.type!r} frame from server"
                        )
                    )
                    return
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(ServeError(f"client reader failed: {exc}"))

    def _fail(self, exc: Exception) -> None:
        if self._goodbye is not None and not self._goodbye.done():
            self._goodbye.set_exception(exc)
        # Unblock any send() stuck waiting on credits.
        if self._credits is not None:
            self._credits.release()


async def stream_tenant(
    host: str,
    port: int,
    tenant: str,
    channels: Iterable[ChannelSpec],
    observations: Iterable[QuantumObservation],
    link: Optional[FlakyFrameLink] = None,
    finish_timeout: float = 30.0,
    trace_id: Optional[str] = None,
    recorder: Optional[SpanRecorder] = None,
) -> TenantResult:
    """Stream a whole observation sequence and return the final result."""
    client = ServeClient(
        host, port, link=link, trace_id=trace_id, recorder=recorder
    )
    await client.connect(tenant, channels)
    attempted = 0
    try:
        for obs in observations:
            await client.send(obs)
            attempted += 1
        goodbye = await client.finish(timeout=finish_timeout)
    finally:
        await client.aclose()
    return TenantResult(
        tenant=tenant,
        goodbye=goodbye,
        verdicts=list(client.verdicts),
        errors=list(client.errors),
        attempted=attempted,
    )
