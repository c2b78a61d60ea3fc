"""The live telemetry plane on DetectionService, end to end.

Covers the admin endpoint routes against a running service, the
coalescing tally, span attribution under interleaved shard workers,
and the PR's acceptance drill: a covert tenant behind a lossy link
drives a burn-rate alert out of every emission path at once (JSONL,
counter, ``/tenants``, ``repro top``), client and server spans merge
into one trace, and scraping never perturbs verdicts.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.errors import ServeError
from repro.faults.wire import FlakyFrameLink
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    disable_profiling,
    enable_profiling,
)
from repro.obs.slo import BurnRateRule, SloTracker
from repro.obs.telemetry import fetch
from repro.obs.tracing import (
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    get_recorder,
    merge_remote_trace,
    new_trace_id,
)
from repro.pipeline import DetectionSession, build_session_from_specs
from repro.report.top import render_fleet
from repro.serve import (
    DetectionService,
    ServeClient,
    ServeConfig,
    stream_tenant,
)
from repro.serve.traffic import (
    CHANNELS,
    benign_observations,
    covert_observations,
)


@pytest.fixture(autouse=True)
def _globals_off():
    """Tracing and profiling start and end disabled in every test."""
    disable_tracing()
    disable_profiling()
    yield
    disable_tracing()
    disable_profiling()


def run(coro):
    failures = []

    async def wrapper():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, ctx: failures.append(ctx.get("message", str(ctx)))
        )
        return await coro

    result = asyncio.run(wrapper())
    assert not failures, f"unhandled event-loop errors: {failures}"
    return result


def reference_report(observations):
    session = build_session_from_specs(CHANNELS)
    for obs in observations:
        session.push_quantum(obs)
    return session.close()


def admin_config(**kwargs):
    kwargs.setdefault("admin_port", 0)
    kwargs.setdefault("verdict_every", 4)
    return ServeConfig(**kwargs)


class TestAdminEndpoints:
    def test_all_routes_live(self):
        async def scenario():
            service = DetectionService(
                admin_config(), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            admin = service.admin_port
            try:
                await stream_tenant(
                    host, port, "cov", CHANNELS,
                    covert_observations(24, seed=1),
                )
                results = {}
                for path in (
                    "/metrics", "/healthz", "/readyz", "/tenants",
                    "/tenants/cov", "/tenants/nobody", "/profile",
                ):
                    results[path] = await fetch(host, admin, path)
            finally:
                await service.stop()
            return results

        results = run(scenario())
        status, body = results["/metrics"]
        assert status == 200
        assert "cchunter_serve_folded_total" in body

        status, body = results["/healthz"]
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "alive" and doc["tenants"] == 1

        status, body = results["/readyz"]
        assert status == 200 and json.loads(body)["ready"] is True

        status, body = results["/tenants"]
        assert status == 200
        doc = json.loads(body)
        assert doc["format"] == "repro.serve.tenants/v1"
        assert [t["tenant"] for t in doc["tenants"]] == ["cov"]

        status, body = results["/tenants/cov"]
        assert status == 200
        doc = json.loads(body)
        assert doc["received"] == 24 and doc["any_detected"] is True
        assert doc["last_verdict"]["health"] == "ok"
        assert doc["last_verdict"]["latency_s"] is not None
        assert "coalesced" in doc and "credit" in doc
        assert set(doc["slo"]["objectives"]) == {
            "verdict_latency", "shed", "health",
        }

        assert results["/tenants/nobody"][0] == 404
        # Profiling is off, so the profile route reports absence.
        assert results["/profile"][0] == 404

    def test_profile_route_with_profiling_enabled(self):
        async def scenario():
            enable_profiling()
            service = DetectionService(
                admin_config(), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            try:
                await stream_tenant(
                    host, port, "t", CHANNELS,
                    benign_observations(8, seed=2),
                )
                return await fetch(host, service.admin_port, "/profile")
            finally:
                await service.stop()

        status, body = run(scenario())
        assert status == 200
        doc = json.loads(body)
        assert doc["format"] == "repro.obs.profile/v1"
        assert any(
            stage["name"] == "serve.fold" for stage in doc["stages"]
        )

    def test_admin_disabled_by_default(self):
        async def scenario():
            service = DetectionService(
                ServeConfig(), metrics=MetricsRegistry()
            )
            await service.start()
            try:
                with pytest.raises(ServeError):
                    _ = service.admin_port
            finally:
                await service.stop()

        run(scenario())

    def test_readyz_flips_on_drain_and_healthz_on_stop(self):
        async def scenario():
            service = DetectionService(
                admin_config(), metrics=MetricsRegistry()
            )
            await service.start()
            try:
                status, _ctype, body = service._admin_readyz()
                assert status == 200 and json.loads(body)["ready"] is True
                service._draining = True
                status, _ctype, body = service._admin_readyz()
                assert status == 503
                assert json.loads(body)["draining"] is True
            finally:
                service._draining = False
                await service.stop()
            status, _ctype, body = service._admin_healthz()
            assert status == 503 and json.loads(body)["status"] == "stopped"

        run(scenario())


class TestCoalescing:
    def test_outbox_reports_supersession(self):
        from repro.serve.service import _Outbox
        from repro.serve.wire import VerdictFrame

        outbox = _Outbox()
        first = VerdictFrame(quantum=1, verdicts=(), health="ok")
        second = VerdictFrame(quantum=2, verdicts=(), health="ok")
        assert outbox.put_verdict(first) is False
        assert outbox.put_verdict(second) is True
        assert outbox.verdict is second

    def test_coalesced_tally_exposed(self):
        """A verdict-per-quantum burst outruns the writer: the latest-
        wins outbox supersedes frames and the tally surfaces in the
        tenant doc and the labeled counter."""

        async def scenario():
            registry = MetricsRegistry()
            service = DetectionService(
                admin_config(verdict_every=1), metrics=registry
            )
            host, port = await service.start()
            try:
                client = ServeClient(host, port)
                await client.connect("burst", CHANNELS)
                try:
                    for obs in covert_observations(12, seed=3):
                        await client.send(obs)
                    await client.finish()
                finally:
                    await client.aclose()
                status, body = await fetch(
                    host, service.admin_port, "/tenants/burst"
                )
            finally:
                await service.stop()
            return status, json.loads(body), registry.render_prometheus()

        status, doc, exposition = run(scenario())
        assert status == 200
        assert doc["coalesced"] >= 1
        assert (
            'cchunter_serve_verdicts_coalesced_total{tenant="burst"}'
            in exposition
        )


class TestScrapeAnswersFromLastVerdict:
    def test_routes_never_reevaluate_sessions(self, monkeypatch):
        """With two tenants mid-stream, ``/healthz``, ``/tenants`` and
        ``/tenants/<id>`` answer from each tenant's last verdict frame:
        scraping them runs no verdict evaluation on the event loop."""
        calls = []
        evaluate = DetectionSession.current_verdicts

        def counting(session, *args, **kwargs):
            calls.append(session)
            return evaluate(session, *args, **kwargs)

        benign = list(benign_observations(24, seed=5))
        benign[0] = dataclasses.replace(benign[0], faults=("drop:membus",))
        streams = {
            "cov": list(covert_observations(24, seed=1)),
            "ben": benign,
        }

        def signal_last_frame(event):
            def on_verdict(frame):
                if frame.quantum == 23:
                    event.set()

            return on_verdict

        async def scenario():
            service = DetectionService(
                admin_config(), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            clients = {}
            arrived = {name: asyncio.Event() for name in streams}
            try:
                for name, observations in streams.items():
                    clients[name] = ServeClient(
                        host, port,
                        on_verdict=signal_last_frame(arrived[name]),
                    )
                    await clients[name].connect(name, CHANNELS)
                    for obs in observations:
                        await clients[name].send(obs)
                await asyncio.wait_for(
                    asyncio.gather(*(e.wait() for e in arrived.values())),
                    timeout=30,
                )
                frames = {n: c.verdicts[-1] for n, c in clients.items()}
                with monkeypatch.context() as patch:
                    patch.setattr(
                        DetectionSession, "current_verdicts", counting
                    )
                    scraped = {
                        path: await fetch(host, service.admin_port, path)
                        for path in (
                            "/healthz", "/tenants", "/tenants/cov",
                            "/tenants/ben",
                        )
                    }
                for client in clients.values():
                    await client.finish()
            finally:
                for client in clients.values():
                    await client.aclose()
                await service.stop()
            return frames, scraped

        frames, scraped = run(scenario())
        assert calls == []
        expected = {
            name: (frame.health, any(v.detected for v in frame.verdicts))
            for name, frame in frames.items()
        }
        assert expected == {"cov": ("ok", True), "ben": ("degraded", False)}
        docs = [json.loads(scraped[f"/tenants/{n}"][1]) for n in frames]
        docs += json.loads(scraped["/tenants"][1])["tenants"]
        assert len(docs) == 4
        for doc in docs:
            got = (doc["health"], doc["any_detected"])
            assert got == expected[doc["tenant"]]
        assert json.loads(scraped["/healthz"][1])["health"] == "degraded"


@pytest.mark.resilience
class TestAdminUnderFaults:
    def test_scrape_stays_healthy_during_flaky_stream(self):
        """Frame faults on the data plane never take the admin plane
        down: every poll during a lossy covert stream answers 200."""

        async def scenario():
            service = DetectionService(
                admin_config(), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            admin = service.admin_port
            polls = []
            stop = asyncio.Event()

            async def poller():
                while not stop.is_set():
                    for path in ("/healthz", "/tenants"):
                        status, _body = await fetch(host, admin, path)
                        polls.append(status)
                    await asyncio.sleep(0.01)

            task = asyncio.create_task(poller())
            try:
                result = await stream_tenant(
                    host, port, "flaky", CHANNELS,
                    covert_observations(40, seed=4),
                    link=FlakyFrameLink("drop:0.2,garbage:0.1", seed=9),
                )
            finally:
                stop.set()
                await task
                await service.stop()
            return result, polls

        result, polls = run(scenario())
        assert polls and all(status == 200 for status in polls)
        assert result.goodbye.received >= 1


class TestSpanAttribution:
    def test_interleaved_shards_do_not_cross_contaminate(self):
        """Two tenants folding concurrently on separate shards: every
        server span's tenant attr must agree with its trace id."""

        async def scenario():
            enable_tracing(capacity=4096)
            trace_ids = {
                "alpha": new_trace_id(), "beta": new_trace_id(),
            }
            service = DetectionService(
                admin_config(shards=2), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            try:
                await asyncio.gather(
                    stream_tenant(
                        host, port, "alpha", CHANNELS,
                        covert_observations(20, seed=5),
                        trace_id=trace_ids["alpha"],
                    ),
                    stream_tenant(
                        host, port, "beta", CHANNELS,
                        benign_observations(20, seed=6),
                        trace_id=trace_ids["beta"],
                    ),
                )
            finally:
                await service.stop()
            return trace_ids, get_recorder().to_dicts()

        trace_ids, spans = run(scenario())
        by_trace = {tid: tenant for tenant, tid in trace_ids.items()}
        checked = 0
        for span in spans:
            attrs = span["attrs"]
            if not span["name"].startswith("serve."):
                continue
            if attrs.get("trace_id") is None:
                continue
            assert attrs["tenant"] == by_trace[attrs["trace_id"]], span
            checked += 1
        assert checked >= 20
        names = {s["name"] for s in spans}
        assert {"serve.queue_wait", "serve.fold", "serve.analyze"} <= names

    def test_profiler_survives_interleaved_workers(self):
        """StageProfiler folding two concurrent tenants stays coherent:
        stages nest cleanly and the fold stage is attributed."""

        async def scenario():
            profiler = enable_profiling()
            service = DetectionService(
                admin_config(shards=2), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            try:
                await asyncio.gather(
                    stream_tenant(
                        host, port, "a", CHANNELS,
                        benign_observations(16, seed=7),
                    ),
                    stream_tenant(
                        host, port, "b", CHANNELS,
                        benign_observations(16, seed=8),
                    ),
                )
            finally:
                await service.stop()
            return profiler.to_dict()

        doc = run(scenario())
        fold_stages = [
            stage for stage in doc["stages"]
            if stage["name"] == "serve.fold"
        ]
        assert fold_stages
        total_fold_calls = sum(stage["calls"] for stage in fold_stages)
        assert total_fold_calls == 32


@pytest.mark.resilience
class TestEndToEndTelemetry:
    """The acceptance drill for the telemetry plane as one story."""

    RULES = (
        BurnRateRule(
            "fast_burn", short_window_s=30.0, long_window_s=120.0,
            threshold=2.0, min_samples=4,
        ),
    )

    def test_covert_tenant_fires_alert_and_traces_correlate(
        self, tmp_path
    ):
        alerts_path = tmp_path / "alerts.jsonl"

        async def scenario():
            enable_tracing(capacity=8192)
            registry = MetricsRegistry()
            slo = SloTracker(
                rules=self.RULES, metrics=registry,
                alerts_path=str(alerts_path),
            )
            service = DetectionService(
                admin_config(), metrics=registry, slo=slo
            )
            host, port = await service.start()
            trace_id = new_trace_id()
            client_rec = SpanRecorder(capacity=4096)
            try:
                result = await stream_tenant(
                    host, port, "covert", CHANNELS,
                    covert_observations(40, seed=10),
                    link=FlakyFrameLink("drop:0.25", seed=21),
                    trace_id=trace_id,
                    recorder=client_rec,
                )
                status, tenants_body = await fetch(
                    host, service.admin_port, "/tenants"
                )
                assert status == 200
            finally:
                await service.stop()
            merged = merge_remote_trace(
                client_rec, get_recorder(),
                trace_id=trace_id, names=("client", "server"),
            )
            return (
                result, json.loads(tenants_body),
                registry.render_prometheus(), merged,
            )

        result, tenants_doc, exposition, merged = run(scenario())

        # The covert channel is still detected through the loss.
        assert result.report.any_detected

        # 1. The alert fired into the JSONL archive...
        lines = alerts_path.read_text().splitlines()
        assert lines
        alert = json.loads(lines[0])
        assert alert["format"] == "repro.obs.alert/v1"
        assert alert["tenant"] == "covert"
        assert alert["objective"] == "shed"
        assert alert["burn_short"] >= alert["threshold"]

        # 2. ...and the labeled counter...
        assert (
            'cchunter_alerts_total{rule="fast_burn",tenant="covert"}'
            in exposition
        )

        # 3. ...and the tenant is flagged in /tenants and repro top.
        [tenant_doc] = tenants_doc["tenants"]
        assert tenant_doc["slo"]["alerts_total"] >= 1
        assert {"rule": "fast_burn", "objective": "shed"} in (
            tenant_doc["slo"]["firing"]
        )
        rendered = "\n".join(render_fleet(tenants_doc))
        assert "covert" in rendered
        assert "fast_burn:shed" in rendered
        assert "DETECTED" in rendered

        # 4. Client and server spans share one trace.
        spans = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        names = {s["name"] for s in spans}
        assert {
            "client.emit", "client.wire",
            "serve.queue_wait", "serve.fold", "serve.analyze",
        } <= names
        trace_ids = {s["args"]["trace_id"] for s in spans}
        assert len(trace_ids) == 1
        client_pids = {s["pid"] for s in spans if s["name"].startswith("client.")}
        server_pids = {s["pid"] for s in spans if s["name"].startswith("serve.")}
        assert client_pids == {0} and server_pids == {1}

    def test_scraping_never_perturbs_verdicts(self):
        """Verdicts with a hot scraper attached are bit-identical to
        verdicts without one, and to an in-process session."""
        observations = list(covert_observations(24, seed=12))

        async def scraped():
            service = DetectionService(
                admin_config(), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            admin = service.admin_port
            stop = asyncio.Event()

            async def scraper():
                while not stop.is_set():
                    for path in ("/metrics", "/tenants", "/healthz"):
                        await fetch(host, admin, path)
                    await asyncio.sleep(0.005)

            task = asyncio.create_task(scraper())
            try:
                result = await stream_tenant(
                    host, port, "t", CHANNELS, observations
                )
            finally:
                stop.set()
                await task
                await service.stop()
            return result

        async def unscraped():
            service = DetectionService(
                ServeConfig(verdict_every=4), metrics=MetricsRegistry()
            )
            host, port = await service.start()
            try:
                return await stream_tenant(
                    host, port, "t", CHANNELS, observations
                )
            finally:
                await service.stop()

        hot = run(scraped())
        cold = run(unscraped())
        reference = reference_report(observations)
        assert hot.report.to_dict() == cold.report.to_dict()
        assert hot.report.to_dict() == reference.to_dict()
