"""Tests for the evaluation service: coalescing, caching, backpressure, drain.

The harness boots the real asyncio daemon on an ephemeral port in a
background thread and talks to it over real HTTP (``http.client``), so
these tests cover the full stack: request parsing, routing, the admission
queue, the executor, and the content-addressed store underneath.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.bench.runner import SuiteRunResult, execute_unit
from repro.bench.store import ResultStore
from repro.serve.daemon import ReproServer, ServeConfig
from repro.serve.service import (
    EvaluationService,
    SubmissionError,
    resolve_submission,
)

import http.client


SCENARIO = {
    "scenario": {
        "workload": "uniform",
        "jobs": 40,
        "machine_size": 32,
        "load": 0.6,
        "seed": 7,
    }
}


def scenario_body(seed: int = 7) -> str:
    payload = {"scenario": dict(SCENARIO["scenario"], seed=seed)}
    return json.dumps(payload)


class ServerHarness:
    """The daemon in a background thread, reachable over real sockets."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._started = threading.Event()
        self._failure = None
        self.loop = None
        self.server = None
        self.host = None
        self.port = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface boot failures to the test
            self._failure = exc
            self._started.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ReproServer(self.config)
        self.host, self.port = await self.server.start()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def start(self) -> "ServerHarness":
        self._thread.start()
        assert self._started.wait(15), "server did not boot"
        if self._failure is not None:
            raise self._failure
        return self

    def stop(self) -> None:
        if self._thread.is_alive() and self.loop is not None and self._stop is not None:
            try:
                self.loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed by a concurrent stop()
        self._thread.join(60)
        assert not self._thread.is_alive(), "server did not drain"

    def request(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def json(self, method, path, body=None, headers=None):
        status, resp_headers, data = self.request(method, path, body, headers)
        return status, resp_headers, json.loads(data)

    def wait_for_state(self, job_id: str, states=("done", "failed"), timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _status, _headers, info = self.json("GET", f"/v1/runs/{job_id}")
            if info["state"] in states:
                return info
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never reached {states}")


@pytest.fixture
def harness(tmp_path):
    servers = []

    def _make(**overrides) -> ServerHarness:
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            store=str(tmp_path / "store"),
            **overrides,
        )
        server = ServerHarness(config).start()
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.stop()


def fake_suite_result() -> SuiteRunResult:
    return SuiteRunResult(
        suite="smoke",
        metrics=("mean_wait",),
        confidence=0.95,
        replications=[],
        cache_hits=0,
        cache_misses=6,
        elapsed_seconds=0.01,
    )


class TestSubmissionResolution:
    def test_suite_and_scenario_digests_are_stable(self):
        a = resolve_submission({"suite": "smoke"})
        b = resolve_submission({"suite": "smoke"})
        assert a.digest == b.digest and a.kind == "suite" and a.total == 6

        c = resolve_submission(SCENARIO)
        d = resolve_submission({"scenario": dict(SCENARIO["scenario"])})
        assert c.digest == d.digest and c.kind == "scenario" and c.total == 1

    def test_different_submissions_get_different_digests(self):
        base = resolve_submission(SCENARIO)
        other = resolve_submission(
            {"scenario": dict(SCENARIO["scenario"], seed=8)}
        )
        assert base.digest != other.digest
        assert resolve_submission({"suite": "smoke"}).digest != base.digest

    def test_invalid_submissions_rejected(self):
        for bad in (
            None,
            [],
            {},
            {"suite": 7},
            {"suite": "no-such-suite"},
            {"scenario": "not-an-object"},
            {"scenario": {"workload": "uniform", "policy": "no-such-policy"}},
        ):
            with pytest.raises(SubmissionError):
                resolve_submission(bad)

    def test_service_validates_bounds(self):
        with pytest.raises(ValueError):
            EvaluationService(workers=0)
        with pytest.raises(ValueError):
            EvaluationService(queue_limit=0)


class TestScenarioExecution:
    @pytest.mark.parametrize(
        "workload", ["uniform", "trace:uniform,jobs=40,machine_size=32"]
    )
    def test_scenario_job_stores_the_execute_unit_entry(
        self, tmp_path, monkeypatch, workload
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
        service = EvaluationService(store=ResultStore(tmp_path / "serve"))
        evaluation = resolve_submission(
            {"scenario": dict(SCENARIO["scenario"], workload=workload)}
        )
        calls = []
        service._execute_scenario(evaluation, lambda *args: calls.append(args))
        assert calls == [(1, 1, False)]

        scenario = evaluation.scenario
        direct = execute_unit(
            scenario, evaluation.digest, evaluation.extra, "serve",
            scenario.label, ResultStore(tmp_path / "direct"),
        )
        served = service.store.get(evaluation.digest)
        assert served.key == direct.key == evaluation.digest
        assert served.scenario == direct.scenario
        assert served.report.to_json() == direct.report.to_json()
        assert served.extra == direct.extra == evaluation.extra
        assert bool(evaluation.extra) == workload.startswith("trace:")
        assert served.suite == direct.suite == "serve"


class TestEndToEnd:
    def test_submit_poll_result_report(self, harness):
        server = harness(workers=1)
        status, _headers, info = server.json(
            "POST", "/v1/runs", body=scenario_body()
        )
        assert status == 202
        assert info["coalesced"] is False and info["kind"] == "scenario"
        job_id = info["id"]

        final = server.wait_for_state(job_id)
        assert final["state"] == "done"
        assert final["progress"] == {
            "done": 1, "total": 1, "cache_hits": 0, "cache_misses": 1,
        }
        assert final["links"]["result"] == f"/v1/results/{job_id}"

        status, headers, payload = server.json("GET", f"/v1/results/{job_id}")
        assert status == 200
        assert payload["digest"] == job_id
        assert payload["metrics"]["jobs"] == 40
        assert headers["ETag"] == f'"{job_id}"'

        status, headers, page = server.request("GET", f"/v1/reports/{job_id}")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        text = page.decode("utf-8")
        assert "<!DOCTYPE html>" in text and job_id in text and "uniform" in text

    def test_resubmission_after_completion_reuses_the_job(self, harness):
        server = harness(workers=1)
        _s, _h, first = server.json("POST", "/v1/runs", body=scenario_body())
        server.wait_for_state(first["id"])
        status, _h, second = server.json("POST", "/v1/runs", body=scenario_body())
        assert status == 200
        assert second["id"] == first["id"] and second["coalesced"] is True
        assert server.server.service.stats["executed"] == 1

    def test_restarted_daemon_replays_journal_without_rerunning(self, harness):
        # Two daemons sharing one store + journal: the second replays the
        # journal at boot, so the finished digest is already known — no
        # re-simulation, not even a store lookup until the result is asked.
        first = harness(workers=1)
        _s, _h, info = first.json("POST", "/v1/runs", body=scenario_body())
        final = first.wait_for_state(info["id"])
        assert final["progress"]["cache_misses"] == 1
        first.stop()

        second = harness(workers=1)
        status, _h, replayed = second.json("GET", f"/v1/runs/{info['id']}")
        assert status == 200
        assert replayed["state"] == "done" and replayed.get("replayed") is True

        status, _h, info2 = second.json("POST", "/v1/runs", body=scenario_body())
        assert status == 200
        assert info2["id"] == info["id"] and info2["coalesced"] is True
        assert second.server.service.stats["executed"] == 0

        # The payload rebuilds lazily from the warm store on first request.
        status, _h, payload = second.json("GET", f"/v1/results/{info['id']}")
        assert status == 200 and payload["digest"] == info["id"]

    def test_fresh_daemon_without_journal_serves_store_hits(self, harness):
        # With the journal off, a restart forgets the job but the shared
        # store still answers: the re-run is pure cache hits.
        first = harness(workers=1, use_journal=False)
        _s, _h, info = first.json("POST", "/v1/runs", body=scenario_body())
        final = first.wait_for_state(info["id"])
        assert final["progress"]["cache_misses"] == 1
        first.stop()

        second = harness(workers=1, use_journal=False)
        _s, _h, info2 = second.json("POST", "/v1/runs", body=scenario_body())
        assert info2["id"] == info["id"]
        final2 = second.wait_for_state(info2["id"])
        assert final2["progress"] == {
            "done": 1, "total": 1, "cache_hits": 1, "cache_misses": 0,
        }

    def test_etag_304_round_trip(self, harness):
        server = harness(workers=1)
        _s, _h, info = server.json("POST", "/v1/runs", body=scenario_body())
        server.wait_for_state(info["id"])
        job_id = info["id"]

        status, headers, body = server.request("GET", f"/v1/results/{job_id}")
        etag = headers["ETag"]
        assert status == 200 and etag == f'"{job_id}"' and body

        for conditional in (etag, f'"zzz", {etag}', "*"):
            status, headers, body = server.request(
                "GET", f"/v1/results/{job_id}",
                headers={"If-None-Match": conditional},
            )
            assert status == 304 and body == b""
            assert headers["ETag"] == etag

        status, _headers, body = server.request(
            "GET", f"/v1/results/{job_id}", headers={"If-None-Match": '"other"'}
        )
        assert status == 200 and body

        # The HTML report is equally digest-keyed.
        status, _headers, _body = server.request(
            "GET", f"/v1/reports/{job_id}", headers={"If-None-Match": etag}
        )
        assert status == 304


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_run(
        self, harness, monkeypatch
    ):
        gate = threading.Event()
        calls = []

        def slow_run_suite(suite, workers=None, store=None, use_cache=True,
                           progress=None, **_kwargs):
            calls.append(suite.name)
            assert gate.wait(30)
            return fake_suite_result()

        monkeypatch.setattr("repro.serve.service.run_suite", slow_run_suite)
        server = harness(workers=2)
        body = json.dumps({"suite": "smoke"})

        status1, _h, first = server.json("POST", "/v1/runs", body=body)
        server.wait_for_state(first["id"], states=("running",))
        status2, _h, second = server.json("POST", "/v1/runs", body=body)

        assert status1 == 202 and status2 == 200
        assert first["id"] == second["id"]
        assert second["coalesced"] is True and second["state"] == "running"

        gate.set()
        final = server.wait_for_state(first["id"])
        assert final["state"] == "done"
        # Exactly one underlying evaluation ran for the two submissions.
        assert calls == ["smoke"]
        assert server.server.service.stats["coalesced"] == 1

        status, _headers, payload = server.json(
            "GET", f"/v1/results/{first['id']}"
        )
        assert status == 200 and payload["suite"] == "smoke"


class TestBackpressure:
    def test_queue_limit_returns_429_with_retry_after(self, harness, monkeypatch):
        gate = threading.Event()

        def slow_run_suite(suite, **_kwargs):
            assert gate.wait(30)
            return fake_suite_result()

        monkeypatch.setattr("repro.serve.service.run_suite", slow_run_suite)
        server = harness(workers=1, queue_limit=1)

        # Occupy the single worker, then the single queue slot.
        _s, _h, blocker = server.json(
            "POST", "/v1/runs", body=json.dumps({"suite": "smoke"})
        )
        server.wait_for_state(blocker["id"], states=("running",))
        status_queued, _h, queued = server.json(
            "POST", "/v1/runs", body=scenario_body(seed=1)
        )
        assert status_queued == 202 and queued["state"] == "queued"

        status, headers, rejected = server.json(
            "POST", "/v1/runs", body=scenario_body(seed=2)
        )
        assert status == 429
        assert "Retry-After" in headers and int(headers["Retry-After"]) >= 1
        assert "queue is full" in rejected["error"]
        assert server.server.service.stats["rejected"] == 1

        # Identical resubmissions coalesce even under backpressure.
        status, _headers, again = server.json(
            "POST", "/v1/runs", body=scenario_body(seed=1)
        )
        assert status == 200 and again["id"] == queued["id"]

        gate.set()
        assert server.wait_for_state(blocker["id"])["state"] == "done"
        assert server.wait_for_state(queued["id"])["state"] == "done"

    def test_draining_service_rejects_with_503(self, harness):
        server = harness(workers=1)
        server.server.service.draining = True
        status, _headers, info = server.json(
            "POST", "/v1/runs", body=scenario_body()
        )
        assert status == 503 and "draining" in info["error"]


class TestGracefulShutdown:
    def test_drain_finishes_in_flight_work(self, harness, monkeypatch):
        gate = threading.Event()

        def slow_run_suite(suite, **_kwargs):
            assert gate.wait(30)
            return fake_suite_result()

        monkeypatch.setattr("repro.serve.service.run_suite", slow_run_suite)
        server = harness(workers=1)
        _s, _h, info = server.json(
            "POST", "/v1/runs", body=json.dumps({"suite": "smoke"})
        )
        server.wait_for_state(info["id"], states=("running",))

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.2)
        assert stopper.is_alive(), "stop() must wait for the in-flight run"
        gate.set()
        stopper.join(60)
        assert not stopper.is_alive()

        # The drained daemon completed the job and kept its payload.
        service = server.server.service
        job = service.jobs[info["id"]]
        assert job.state == "done"
        assert info["id"] in service.results


class TestErrorsAndIntrospection:
    def test_malformed_and_unknown_requests(self, harness):
        server = harness(workers=1)
        assert server.request("POST", "/v1/runs", body="{nope")[0] == 400
        assert server.request("POST", "/v1/runs", body="")[0] == 400
        status, _h, info = server.json(
            "POST", "/v1/runs", body=json.dumps({"suite": "smokey"})
        )
        assert status == 400 and "smoke" in info["error"]  # did-you-mean
        assert server.request("GET", "/v1/runs/" + "0" * 64)[0] == 404
        assert server.request("GET", "/v1/results/" + "0" * 64)[0] == 404
        assert server.request("GET", "/v1/nope")[0] == 404
        assert server.request("DELETE", "/v1/runs")[0] == 404

    def test_result_of_unfinished_job_is_404_with_state(
        self, harness, monkeypatch
    ):
        gate = threading.Event()

        def slow_run_suite(suite, **_kwargs):
            assert gate.wait(30)
            return fake_suite_result()

        monkeypatch.setattr("repro.serve.service.run_suite", slow_run_suite)
        server = harness(workers=1)
        _s, _h, info = server.json(
            "POST", "/v1/runs", body=json.dumps({"suite": "smoke"})
        )
        status, _headers, body = server.json("GET", f"/v1/results/{info['id']}")
        assert status == 404 and body["state"] in ("queued", "running")
        gate.set()
        server.wait_for_state(info["id"])

    def test_failed_job_reports_its_error(self, harness, monkeypatch):
        def broken_run_suite(suite, **_kwargs):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr("repro.serve.service.run_suite", broken_run_suite)
        server = harness(workers=1)
        _s, _h, info = server.json(
            "POST", "/v1/runs", body=json.dumps({"suite": "smoke"})
        )
        final = server.wait_for_state(info["id"])
        assert final["state"] == "failed"
        assert "simulator exploded" in final["error"]
        assert server.request("GET", f"/v1/results/{info['id']}")[0] == 404

    def test_healthz_and_run_listing(self, harness):
        server = harness(workers=1)
        status, _headers, health = server.json("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["queue_limit"] == 8 and health["workers"] == 1

        _s, _h, info = server.json("POST", "/v1/runs", body=scenario_body())
        server.wait_for_state(info["id"])
        status, _headers, listing = server.json("GET", "/v1/runs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [info["id"]]


class TestJournalAndEvents:
    def test_crash_mid_job_is_forgotten_and_rerun(self, harness, tmp_path):
        # Simulate a crash before the terminal event hit the journal: strip
        # the "done" line.  The restarted daemon must NOT claim the digest
        # finished — the job is forgotten and a resubmission re-runs it
        # (served from the still-warm store).
        first = harness(workers=1)
        _s, _h, info = first.json("POST", "/v1/runs", body=scenario_body())
        first.wait_for_state(info["id"])
        first.stop()

        journal = tmp_path / "store" / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        events = [json.loads(line)["event"] for line in lines]
        assert events[-1] == "done"
        journal.write_text(
            "".join(l for l in lines if json.loads(l)["event"] != "done")
        )

        second = harness(workers=1)
        stats = second.server.service.replay_stats
        assert stats["jobs_restored"] == 0 and stats["events"] == len(events) - 1
        assert second.request("GET", f"/v1/runs/{info['id']}")[0] == 404

        status, _h, info2 = second.json("POST", "/v1/runs", body=scenario_body())
        assert status == 202 and info2["coalesced"] is False
        final = second.wait_for_state(info2["id"])
        assert final["progress"]["cache_hits"] == 1
        assert second.server.service.stats["executed"] == 1

    def test_events_stream_until_terminal_state(self, harness, monkeypatch):
        gate = threading.Event()

        def slow_run_suite(suite, **_kwargs):
            assert gate.wait(30)
            return fake_suite_result()

        monkeypatch.setattr("repro.serve.service.run_suite", slow_run_suite)
        server = harness(workers=1)
        _s, _h, info = server.json(
            "POST", "/v1/runs", body=json.dumps({"suite": "smoke"})
        )
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            conn.request("GET", f"/v1/runs/{info['id']}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            # The stream starts with history (queued) and follows the job
            # live; it only closes once the terminal event has been sent.
            first = json.loads(response.readline())
            assert first["event"] == "queued" and first["digest"] == info["id"]
            assert first["kind"] == "suite" and "ts" in first
            gate.set()
            rest = [json.loads(line) for line in response if line.strip()]
            assert [e["event"] for e in rest][-1] == "done"
            assert rest[0]["event"] == "running"
        finally:
            conn.close()

    def test_replayed_job_stream_closes_after_history(self, harness):
        first = harness(workers=1)
        _s, _h, info = first.json("POST", "/v1/runs", body=scenario_body())
        first.wait_for_state(info["id"])
        first.stop()

        second = harness(workers=1)
        status, headers, body = second.request(
            "GET", f"/v1/runs/{info['id']}/events"
        )
        assert status == 200
        events = [json.loads(line) for line in body.splitlines() if line]
        assert [e["event"] for e in events][0] == "queued"
        assert [e["event"] for e in events][-1] == "done"

    def test_events_for_unknown_digest_404(self, harness):
        server = harness(workers=1)
        assert server.request("GET", "/v1/runs/" + "0" * 64 + "/events")[0] == 404

    def test_healthz_and_metrics_expose_journal_stats(self, harness, tmp_path):
        server = harness(workers=1)
        _s, _h, info = server.json("POST", "/v1/runs", body=scenario_body())
        server.wait_for_state(info["id"])

        _s, _h, health = server.json("GET", "/v1/healthz")
        journal = health["journal"]
        assert journal["path"] == str(tmp_path / "store" / "journal.jsonl")
        assert journal["size_bytes"] > 0
        assert journal["events_appended"] >= 3  # queued, running, done
        assert journal["replay"]["events"] == 0  # fresh journal: nothing replayed

        text = server.request("GET", "/v1/metrics")[2].decode("utf-8")
        assert "repro_journal_size_bytes" in text
        assert "repro_journal_events_appended" in text
        assert 'repro_journal_replay{stat="jobs_restored"} 0' in text

    def test_healthz_journal_null_when_disabled(self, harness):
        server = harness(workers=1, use_journal=False)
        _s, _h, health = server.json("GET", "/v1/healthz")
        assert health["journal"] is None


class TestObservability:
    def test_healthz_reports_uptime_and_worker_utilization(self, harness):
        server = harness(workers=2)
        status, _headers, health = server.json("GET", "/v1/healthz")
        assert status == 200
        assert health["uptime_seconds"] >= 0
        assert health["workers_busy"] == 0
        assert health["worker_utilization"] == 0.0
        assert health["queue_depth"] == 0

    def test_metrics_exposition_counts_requests_and_jobs(self, harness):
        server = harness(workers=1)
        _s, _h, info = server.json("POST", "/v1/runs", body=scenario_body())
        server.wait_for_state(info["id"])
        server.json("GET", f"/v1/runs/{info['id']}")

        status, headers, body = server.request("GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode("utf-8")

        # request counters by method + route template (polling runs through
        # wait_for_state, so the exact /v1/runs/{id} count is unknown but > 0)
        assert 'repro_http_requests_total{method="POST",route="/v1/runs",status="202"} 1' in text
        assert 'repro_http_requests_total{method="GET",route="/v1/runs/{id}"' in text
        # job lifecycle metrics
        assert 'repro_jobs_total{kind="scenario",state="done"} 1' in text
        assert 'repro_job_seconds_bucket{kind="scenario",le="+Inf"} 1' in text
        assert 'repro_job_seconds_count{kind="scenario"} 1' in text
        # live gauges set at scrape time
        assert "repro_uptime_seconds" in text
        assert "repro_queue_depth 0" in text
        assert 'repro_submissions{outcome="executed"} 1' in text

    def test_metrics_scrape_does_not_count_itself(self, harness):
        server = harness(workers=1)
        first = server.request("GET", "/v1/metrics")[2].decode("utf-8")
        assert 'route="/v1/metrics"' not in first
        second = server.request("GET", "/v1/metrics")[2].decode("utf-8")
        # the second scrape sees exactly the first one recorded
        assert 'repro_http_requests_total{method="GET",route="/v1/metrics",status="200"} 1' in second

    def test_metrics_output_is_well_formed_exposition(self, harness):
        server = harness(workers=1)
        server.json("GET", "/v1/healthz")
        text = server.request("GET", "/v1/metrics")[2].decode("utf-8")
        assert text.endswith("\n")
        seen_types = {}
        for line in text.splitlines():
            assert line, "no blank lines in exposition output"
            if line.startswith("# TYPE"):
                _hash, _type, name, kind = line.split()
                assert kind in ("counter", "gauge", "histogram")
                assert name not in seen_types, "one TYPE line per family"
                seen_types[name] = kind
        # every sample belongs to a declared family
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in seen_types:
                    base = name[: -len(suffix)]
            assert base in seen_types

    def test_coalesced_submissions_counted(self, harness, monkeypatch):
        release = threading.Event()

        def slow_run_suite(*args, **kwargs):
            release.wait(30)
            return fake_suite_result()

        monkeypatch.setattr("repro.serve.service.run_suite", slow_run_suite)
        server = harness(workers=1)
        try:
            first = server.json("POST", "/v1/runs", body='{"suite": "smoke"}')[2]
            second = server.json("POST", "/v1/runs", body='{"suite": "smoke"}')[2]
            assert second["id"] == first["id"] and second["coalesced"] is True
            text = server.request("GET", "/v1/metrics")[2].decode("utf-8")
            # one admission, one coalesce — "submitted" counts admissions only
            assert 'repro_submissions{outcome="coalesced"} 1' in text
            assert 'repro_submissions{outcome="submitted"} 1' in text
        finally:
            release.set()
