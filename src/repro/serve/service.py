"""The evaluation service: submissions, coalescing, the admission queue.

This is the scheduler-evaluation economics the paper's shared-benchmark
argument implies, made operational: every submission is reduced to a
**content digest** before any work happens — a suite digests to the sorted
set of its replications' result keys, a single scenario to its
:func:`~repro.bench.store.result_key` — and that digest is the job id.  Two
users asking the same question therefore *cannot* cause two computations:

* a submission whose digest matches an in-flight or finished job joins it
  (**request coalescing** — the second HTTP response carries the same id);
* cases a previous run already answered are served straight from the
  content-addressed :class:`~repro.bench.store.ResultStore`, and only the
  misses fan out through ``run_many`` (exactly :func:`repro.bench.runner.
  run_suite`, whose per-unit ``progress`` callback feeds live job status);
* completed payloads are immutable — the digest names the bytes — which is
  what makes the HTTP layer's ``ETag``/304 handling trivially correct.

Admission is explicit: at most ``queue_limit`` jobs may wait, beyond which
submissions are rejected with HTTP 429 (the daemon adds ``Retry-After``);
``workers`` bounds concurrent evaluations (a thread pool — the simulators
release work to ``run_many`` worker *processes*, so threads only wait).
Draining stops admission (503) and lets everything already admitted finish.

The class is transport-agnostic: :meth:`EvaluationService.handle_request`
maps (method, path, headers, body) to a :class:`Response`, and the asyncio
daemon in :mod:`repro.serve.daemon` is one thin adapter over it.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.api.registry import RegistryError, parse_spec, scheduler_registry
from repro.api.scenario import Scenario
from repro.bench.runner import _expand, _trace_extra, execute_unit, run_suite
from repro.bench.store import ResultStore, code_version, result_key
from repro.obs.journal import JobJournal, replay as replay_journal
from repro.bench.suite import BenchmarkSuite, get_suite
from repro.obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render as _render_prometheus
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer, chrome_trace
from repro.serve.html import render_report
from repro.util import canonical_hash

__all__ = [
    "EvaluationService",
    "Evaluation",
    "Job",
    "Response",
    "SubmissionError",
    "QueueFull",
    "ServiceDraining",
    "resolve_submission",
    "json_response",
]

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class SubmissionError(ValueError):
    """The submission body does not describe a runnable evaluation (HTTP 400)."""


class QueueFull(RuntimeError):
    """The admission queue is at ``queue_limit`` (HTTP 429)."""


class ServiceDraining(RuntimeError):
    """The service is shutting down and admits nothing new (HTTP 503)."""


# ----------------------------------------------------------------------
# HTTP-shaped response (transport-agnostic)
# ----------------------------------------------------------------------
@dataclass
class Response:
    """One HTTP response: status, body, and any extra headers.

    A response may instead carry ``stream`` — an async iterator of body
    chunks (the events endpoint).  The daemon then writes chunked transfer
    encoding and ``body`` is ignored.
    """

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[AsyncIterator[bytes]] = None


def json_response(status: int, payload: Any, **headers: str) -> Response:
    body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return Response(status=status, body=body, headers=dict(headers))


def html_response(status: int, text: str, **headers: str) -> Response:
    return Response(
        status=status,
        body=text.encode("utf-8"),
        content_type="text/html; charset=utf-8",
        headers=dict(headers),
    )


# ----------------------------------------------------------------------
# submissions → evaluations
# ----------------------------------------------------------------------
@dataclass
class Evaluation:
    """A resolved submission: what to run, and the digest that names it."""

    kind: str  # "suite" | "scenario"
    label: str
    digest: str
    #: distinct work units (unique result keys) the run resolves
    total: int
    suite: Optional[BenchmarkSuite] = None
    scenario: Optional[Scenario] = None
    #: non-scenario key material (trace digests) for the scenario kind
    extra: Dict[str, Any] = field(default_factory=dict)
    #: the normalized submission body — journaled so a restarted daemon can
    #: re-resolve (and re-validate) the job without trusting stale state
    submission: Dict[str, Any] = field(default_factory=dict)


def resolve_submission(payload: Any) -> Evaluation:
    """Validate a submission body and reduce it to its content digest.

    ``{"suite": "smoke"}`` names a registered suite; ``{"scenario": {...}}``
    carries one Scenario JSON object.  Validation is eager — unknown suites,
    unknown policies, and malformed trace specs are rejected here, at
    submission time, not minutes later inside a worker.
    """
    if not isinstance(payload, dict):
        raise SubmissionError("submission body must be a JSON object")
    if "suite" in payload:
        name = payload["suite"]
        if not isinstance(name, str):
            raise SubmissionError("'suite' must be a suite name string")
        try:
            suite = get_suite(name)
            keys = sorted({entry[4] for entry in _expand(suite)})
        except (RegistryError, KeyError, ValueError) as exc:
            raise SubmissionError(str(exc)) from exc
        digest = canonical_hash(
            {"kind": "suite", "suite": suite.name, "keys": keys}
        )
        return Evaluation(
            kind="suite",
            label=f"suite:{suite.name}",
            digest=digest,
            total=len(keys),
            suite=suite,
            submission={"suite": suite.name},
        )
    if "scenario" in payload:
        if not isinstance(payload["scenario"], dict):
            raise SubmissionError("'scenario' must be a Scenario JSON object")
        try:
            scenario = Scenario.from_dict(payload["scenario"])
            # Resolve the policy spec now: a typo'd policy must 400, not
            # fail the job later.
            scheduler_registry.get(parse_spec(scenario.policy)[0])
            extra = _trace_extra(scenario)
        except (RegistryError, KeyError, TypeError, ValueError) as exc:
            raise SubmissionError(str(exc)) from exc
        digest = result_key(scenario, extra)
        return Evaluation(
            kind="scenario",
            label=scenario.label,
            digest=digest,
            total=1,
            scenario=scenario,
            extra=extra,
            submission={"scenario": scenario.to_dict()},
        )
    raise SubmissionError("submission must contain 'suite' or 'scenario'")


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One admitted evaluation, identified by its content digest."""

    evaluation: Evaluation
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done_units: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    error: Optional[str] = None
    #: lifecycle/progress events in arrival order (what /events streams);
    #: appended from the event loop and executor threads, read by streamers
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: True when the job was reconstructed from the journal at boot
    replayed: bool = False

    @property
    def digest(self) -> str:
        return self.evaluation.digest

    def to_dict(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "id": self.digest,
            "kind": self.evaluation.kind,
            "label": self.evaluation.label,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {
                "done": self.done_units,
                "total": self.evaluation.total,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            },
            "links": {
                "self": f"/v1/runs/{self.digest}",
                "events": f"/v1/runs/{self.digest}/events",
            },
        }
        if self.replayed:
            info["replayed"] = True
        if self.error is not None:
            info["error"] = self.error
        if self.state == DONE:
            info["links"]["result"] = f"/v1/results/{self.digest}"
            info["links"]["report"] = f"/v1/reports/{self.digest}"
        return info


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class EvaluationService:
    """Digest-keyed evaluation jobs over the content-addressed bench store."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        queue_limit: int = 8,
        run_workers: Optional[int] = None,
        use_cache: bool = True,
        retry_after_seconds: int = 5,
        journal: Optional[JobJournal] = None,
        max_trace_spans: int = 4096,
        dist_queue: Optional[Any] = None,
        dist_poll_interval: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.store = store if store is not None else ResultStore()
        self.workers = workers
        self.queue_limit = queue_limit
        self.run_workers = run_workers
        self.use_cache = use_cache
        #: when set (a :class:`repro.dist.WorkQueue`), suite jobs are
        #: *delegated*: enqueued onto the distributed work queue and watched
        #: until external workers drain them into the shared store, instead
        #: of simulating in-process.  Scenario jobs always run locally.
        self.dist_queue = dist_queue
        self.dist_poll_interval = dist_poll_interval
        self.retry_after_seconds = retry_after_seconds
        self.draining = False
        self.started_at = time.time()
        #: every admitted job, by digest (the coalescing map)
        self.jobs: Dict[str, Job] = {}
        #: finished report payloads, by digest (immutable once present)
        self.results: Dict[str, Dict[str, Any]] = {}
        self.stats = {"submitted": 0, "coalesced": 0, "rejected": 0, "executed": 0}
        #: service-lifetime metrics registry behind ``GET /v1/metrics``.
        #: Only ever touched from the event-loop thread (request routing and
        #: post-await job accounting), so no locking is needed.
        self.telemetry = Telemetry()
        #: bounded service-lifetime timeline behind ``GET /v1/trace`` —
        #: retroactive spans for requests and job lifecycles
        self.tracer = Tracer(max_spans=max_trace_spans)
        #: append-only lifecycle journal (None = don't persist)
        self.journal = journal
        #: what replaying the journal at boot found (always present so
        #: healthz/metrics report zeros rather than omitting the fields)
        self.replay_stats: Dict[str, int] = {
            "events": 0,
            "malformed": 0,
            "bytes_read": 0,
            "jobs_restored": 0,
            "jobs_skipped": 0,
        }
        self._queue: Optional[asyncio.Queue] = None
        self._worker_tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: rotated on every new event; streamers await the current one
        self._event_waiter: Optional[asyncio.Event] = None
        if self.journal is not None:
            self._replay_journal()

    # ------------------------------------------------------------------
    # the job journal: recording and boot-time replay
    # ------------------------------------------------------------------
    def _record_event(self, job: Job, event: str, durable: bool = False, **fields: Any) -> None:
        """Append one lifecycle event: journal (if any), job, stream waiters.

        Called from the event loop *and* from executor threads (progress);
        the journal locks internally, list appends are atomic, and waiter
        wake-ups are marshalled onto the loop.
        """
        record: Dict[str, Any] = {"event": event, "digest": job.digest, **fields}
        if self.journal is not None:
            record = self.journal.append(record, durable=durable)
        else:
            record.setdefault("ts", round(time.time(), 6))
        job.events.append(record)
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._notify_event)
            except RuntimeError:  # loop already closed (late progress)
                pass

    def _notify_event(self) -> None:
        """Wake every event streamer: rotate the shared waiter."""
        if self._event_waiter is not None:
            waiter, self._event_waiter = self._event_waiter, asyncio.Event()
            waiter.set()

    def _replay_journal(self) -> None:
        """Rebuild finished jobs from the journal (crash/restart recovery).

        Only digests whose *last* lifecycle state is ``done`` come back: a
        job interrupted mid-run was never answered, so a resubmission must
        run it again rather than coalesce onto a ghost.  Each candidate is
        re-resolved from its journaled submission and kept only when the
        digest still matches — entries minted by an older code version are
        stale and skipped.  Result payloads are rebuilt lazily from the
        content-addressed store on first request (zero simulation while the
        store is intact).
        """
        replayed = replay_journal(self.journal.path)
        self.replay_stats.update(
            events=len(replayed.events),
            malformed=replayed.malformed,
            bytes_read=replayed.bytes_read,
        )
        for digest, events in replayed.by_digest().items():
            lifecycle = [e for e in events if e.get("event") in (QUEUED, RUNNING, DONE, FAILED)]
            if not lifecycle or lifecycle[-1].get("event") != DONE:
                continue
            submission = next(
                (e.get("submission") for e in reversed(events)
                 if e.get("event") == QUEUED and isinstance(e.get("submission"), dict)),
                None,
            )
            if submission is None:
                self.replay_stats["jobs_skipped"] += 1
                continue
            try:
                evaluation = resolve_submission(submission)
            except SubmissionError:
                self.replay_stats["jobs_skipped"] += 1
                continue
            if evaluation.digest != digest:
                # same submission, different digest: the code moved on
                self.replay_stats["jobs_skipped"] += 1
                continue
            done = lifecycle[-1]
            job = Job(evaluation=evaluation, state=DONE, replayed=True)
            job.submitted_at = float(lifecycle[0].get("ts") or job.submitted_at)
            started = next(
                (e.get("ts") for e in lifecycle if e.get("event") == RUNNING), None
            )
            job.started_at = float(started) if started is not None else None
            job.finished_at = float(done.get("ts") or job.submitted_at)
            job.done_units = evaluation.total
            job.cache_hits = int(done.get("cache_hits") or 0)
            job.cache_misses = int(done.get("cache_misses") or 0)
            job.events = list(events)
            self.jobs[digest] = job
            self.replay_stats["jobs_restored"] += 1

    def _rebuild_payload(self, job: Job) -> Dict[str, Any]:
        """Re-derive a replayed job's payload from the warm store.

        With the store intact this is pure cache lookups; if entries were
        evicted in between, the affected cases re-run — correctness over
        speed, and the journal never lies about what finished.
        """
        payload = self._execute(job, record_progress=False)
        self.results[job.digest] = payload
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the admission queue and the worker tasks (idempotent)."""
        if self._queue is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._event_waiter = asyncio.Event()
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def drain(self) -> None:
        """Stop admission, run everything already admitted, stop workers.

        Graceful by construction: ``queue.join()`` returns only after every
        admitted job reached a terminal state, so a SIGTERM never discards
        an accepted submission.
        """
        self.draining = True
        if self._queue is None:
            if self.journal is not None:
                self.journal.close()
            return
        await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        # One last wake-up so event streamers observe the terminal states.
        self._notify_event()
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def queued_count(self) -> int:
        return sum(1 for job in self.jobs.values() if job.state == QUEUED)

    def submit(self, payload: Any) -> Tuple[Job, bool]:
        """Admit a submission; returns ``(job, created)``.

        Coalescing comes first: a digest already known — queued, running,
        or finished — returns the existing job without consuming queue
        capacity, so identical submissions are immune to backpressure.
        """
        evaluation = resolve_submission(payload)
        existing = self.jobs.get(evaluation.digest)
        if existing is not None:
            self.stats["coalesced"] += 1
            return existing, False
        if self.draining or self._queue is None:
            raise ServiceDraining("service is draining; not accepting new runs")
        if self.queued_count() >= self.queue_limit:
            self.stats["rejected"] += 1
            raise QueueFull(
                f"admission queue is full ({self.queue_limit} waiting)"
            )
        job = Job(evaluation=evaluation)
        self.jobs[evaluation.digest] = job
        self.stats["submitted"] += 1
        self._record_event(
            job,
            QUEUED,
            kind=evaluation.kind,
            label=evaluation.label,
            total=evaluation.total,
            submission=evaluation.submission,
        )
        self._queue.put_nowait(job)
        return job, True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            try:
                job.state = RUNNING
                job.started_at = time.time()
                self.stats["executed"] += 1
                self._record_event(job, RUNNING)
                payload = await loop.run_in_executor(
                    self._executor, self._execute, job
                )
                self.results[job.digest] = payload
                job.state = DONE
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a failed job must not kill the worker
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = FAILED
            finally:
                job.finished_at = time.time()
                self._finish_job(job)
                self._queue.task_done()

    def _finish_job(self, job: Job) -> None:
        """Terminal accounting: durable journal event, metrics, timeline."""
        finished = job.finished_at or time.time()
        terminal: Dict[str, Any] = {
            "cache_hits": job.cache_hits,
            "cache_misses": job.cache_misses,
            "seconds": round(finished - (job.started_at or finished), 6),
        }
        if job.error is not None:
            terminal["error"] = job.error
        # Terminal states fsync immediately: a crash right after must not
        # forget that the job finished.
        self._record_event(job, job.state, durable=True, **terminal)
        self.telemetry.counter(
            "repro_jobs_total", "Jobs finished, by kind and final state."
        ).inc(kind=job.evaluation.kind, state=job.state)
        self.telemetry.histogram(
            "repro_job_seconds",
            help_text="Wall-clock job execution latency (queue wait excluded).",
        ).observe(
            finished - (job.started_at or finished),
            kind=job.evaluation.kind,
        )
        # The job's lifecycle, retroactively, onto the service timeline:
        # one parent span submitted→finished with queued/run phases inside.
        parent = self.tracer.add_span(
            "serve.job",
            job.submitted_at,
            finished,
            digest=job.digest,
            kind=job.evaluation.kind,
            label=job.evaluation.label,
            state=job.state,
        )
        started = job.started_at or finished
        self.tracer.add_span(
            "serve.job.queued", job.submitted_at, started, parent_id=parent
        )
        self.tracer.add_span("serve.job.run", started, finished, parent_id=parent)

    def _execute(self, job: Job, record_progress: bool = True) -> Dict[str, Any]:
        """Run one job in the executor thread; returns the result payload.

        ``record_progress=False`` is the payload-rebuild path for replayed
        jobs: their counters and events are already final, so the re-derive
        must not touch them.
        """
        evaluation = job.evaluation

        def progress(done: int, total: int, cached: bool) -> None:
            if not record_progress:
                return
            # Plain attribute writes: read by the event-loop thread for
            # status responses, which tolerates slight staleness.
            job.done_units = done
            if cached:
                job.cache_hits += 1
            else:
                job.cache_misses += 1
            self._record_event(
                job,
                "progress",
                done=done,
                total=total,
                cached=cached,
                cache_hits=job.cache_hits,
                cache_misses=job.cache_misses,
            )

        if evaluation.kind == "suite":
            from repro.bench.report import suite_json

            if self.dist_queue is not None and record_progress:
                payload = self._execute_delegated_suite(evaluation, progress)
            else:
                result = run_suite(
                    evaluation.suite,
                    workers=self.run_workers,
                    store=self.store,
                    use_cache=self.use_cache,
                    progress=progress,
                )
                payload = suite_json(result)
        else:
            payload = self._execute_scenario(evaluation, progress)
        payload.update(
            {
                "kind": evaluation.kind,
                "digest": evaluation.digest,
                "label": evaluation.label,
                "code": code_version(),
            }
        )
        return payload

    def _execute_delegated_suite(self, evaluation: Evaluation, progress) -> Dict[str, Any]:
        """Delegate a suite job to the distributed work queue and watch it.

        The suite is enqueued (idempotently — units already stored or already
        queued are recognized, never duplicated), then the executor thread
        polls the shared store until every unit key decodes; external
        ``repro dist worker`` processes do the simulating.  Progress events
        fire as keys appear — ``cached=True`` for units the store already
        held at enqueue time, ``cached=False`` for units the fleet produced
        during this job.  Aggregation at the end is an ordinary warm
        ``run_suite`` (all cache hits), so the payload is bit-identical to an
        in-process run's.
        """
        from repro.bench.report import suite_json

        keys = sorted({entry[4] for entry in _expand(evaluation.suite)})
        # Snapshot before enqueueing: a fleet worker may store a unit as soon
        # as its file lands, and that unit is this job's work, not a hit.
        stored_before = {key for key in keys if key in self.store}
        enqueued = self.dist_queue.enqueue_suite(evaluation.suite, store=self.store)
        total = len(keys)
        done: set = set()
        while True:
            for key in keys:
                if key not in done and key in self.store:
                    done.add(key)
                    progress(len(done), total, key in stored_before)
            if len(done) >= total:
                break
            time.sleep(self.dist_poll_interval)
        result = run_suite(
            evaluation.suite, store=self.store, use_cache=True
        )
        payload = suite_json(result)
        payload["delegated"] = {
            "queue": str(self.dist_queue.root),
            "units": enqueued.units,
            "enqueued": enqueued.enqueued,
            "already_stored": enqueued.already_stored,
        }
        return payload

    def _execute_scenario(self, evaluation: Evaluation, progress) -> Dict[str, Any]:
        scenario = evaluation.scenario
        hit = self.store.get(evaluation.digest) if self.use_cache else None
        if hit is not None:
            report = hit.report
            progress(1, 1, True)
        else:
            report = execute_unit(
                scenario, evaluation.digest, evaluation.extra, "serve",
                scenario.label, self.store,
            ).report
            progress(1, 1, False)
        return {
            "scenario": scenario.to_dict(),
            "report": report.to_json(),
            "metrics": report.as_dict(),
        }

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    @staticmethod
    def _route_template(path: str) -> str:
        """The bounded-cardinality route label for metrics.

        Digests and job ids are collapsed into placeholders so the metric
        label set stays finite no matter how many runs the daemon serves.
        """
        if path in ("/v1/healthz", "/v1/metrics", "/v1/runs", "/v1/trace"):
            return path
        if path.startswith("/v1/runs/"):
            if path.endswith("/events"):
                return "/v1/runs/{id}/events"
            return "/v1/runs/{id}"
        if path.startswith("/v1/results/"):
            return "/v1/results/{digest}"
        if path.startswith("/v1/reports/"):
            return "/v1/reports/{digest}"
        return "other"

    def handle_request(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ) -> Response:
        """Map one request to a :class:`Response` (the whole HTTP API).

        Every request is counted and timed into :attr:`telemetry` *after*
        its response is computed, so a ``/v1/metrics`` scrape reflects all
        requests that finished before it — never itself.
        """
        started = time.perf_counter()
        wall_started = time.time()
        route = self._route_template(path.split("?", 1)[0])
        in_flight = self.telemetry.gauge(
            "repro_http_in_flight", "Requests currently being handled."
        )
        in_flight.inc()
        try:
            response = self._route(method, path, headers, body)
        finally:
            in_flight.dec()
        elapsed = time.perf_counter() - started
        self.telemetry.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by method, route template, and status.",
        ).inc(method=method, route=route, status=response.status)
        self.telemetry.histogram(
            "repro_http_request_seconds",
            help_text="HTTP request handling latency by method and route template.",
        ).observe(elapsed, method=method, route=route)
        self.tracer.add_span(
            "serve.request",
            wall_started,
            wall_started + elapsed,
            method=method,
            route=route,
            status=response.status,
        )
        return response

    def _route(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]],
        body: bytes,
    ) -> Response:
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        path = path.split("?", 1)[0]
        if path == "/v1/healthz" and method == "GET":
            return self._healthz()
        if path == "/v1/metrics" and method == "GET":
            return self._metrics()
        if path == "/v1/trace" and method == "GET":
            return self._handle_trace()
        if path == "/v1/runs":
            if method == "POST":
                return self._handle_submit(body)
            if method == "GET":
                return self._handle_list()
        if path.startswith("/v1/runs/") and path.endswith("/events") and method == "GET":
            return self._handle_events(path[len("/v1/runs/"):-len("/events")])
        if path.startswith("/v1/runs/") and method == "GET":
            return self._handle_status(path[len("/v1/runs/"):])
        if path.startswith("/v1/results/") and method == "GET":
            return self._handle_result(path[len("/v1/results/"):], headers)
        if path.startswith("/v1/reports/") and method == "GET":
            return self._handle_report(path[len("/v1/reports/"):], headers)
        return json_response(404, {"error": f"no endpoint {method} {path}"})

    def _healthz(self) -> Response:
        from repro import __version__

        by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        busy = by_state.get(RUNNING, 0)
        journal: Optional[Dict[str, Any]] = None
        if self.journal is not None:
            journal = {
                "path": str(self.journal.path),
                "size_bytes": self.journal.size_bytes(),
                "events_appended": self.journal.appended,
                "replay": dict(self.replay_stats),
            }
        return json_response(
            200,
            {
                "status": "draining" if self.draining else "ok",
                "version": __version__,
                "code": code_version(),
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "workers": self.workers,
                "workers_busy": busy,
                "worker_utilization": round(busy / self.workers, 4),
                "queue_limit": self.queue_limit,
                "queue_depth": self.queued_count(),
                "jobs": by_state,
                "stats": self.stats,
                "store": str(self.store.root),
                "journal": journal,
            },
        )

    def _metrics(self) -> Response:
        """The whole registry in Prometheus text format, plus live gauges.

        Instantaneous state (uptime, queue depth, busy workers, lifetime
        submission outcomes) is re-published as gauges/counters at scrape
        time so one endpoint carries the full picture.
        """
        t = self.telemetry
        t.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        ).set(round(time.time() - self.started_at, 3))
        t.gauge(
            "repro_queue_depth", "Jobs waiting in the admission queue."
        ).set(self.queued_count())
        t.gauge("repro_workers", "Configured worker slots.").set(self.workers)
        t.gauge(
            "repro_workers_busy", "Workers currently executing a job."
        ).set(sum(1 for job in self.jobs.values() if job.state == RUNNING))
        submissions = t.gauge(
            "repro_submissions",
            "Lifetime submission outcomes (admitted, coalesced, rejected, executed).",
        )
        for outcome, value in sorted(self.stats.items()):
            submissions.set(value, outcome=outcome)
        if self.journal is not None:
            t.gauge(
                "repro_journal_size_bytes", "On-disk size of the job journal."
            ).set(self.journal.size_bytes())
            t.gauge(
                "repro_journal_events_appended",
                "Journal events appended since this process started.",
            ).set(self.journal.appended)
            replay = t.gauge(
                "repro_journal_replay",
                "What replaying the journal at boot found "
                "(events, malformed, bytes_read, jobs_restored, jobs_skipped).",
            )
            for stat, value in sorted(self.replay_stats.items()):
                replay.set(value, stat=stat)
        return Response(
            status=200,
            body=_render_prometheus(t).encode("utf-8"),
            content_type=_PROMETHEUS_CONTENT_TYPE,
        )

    def _handle_trace(self) -> Response:
        """The service timeline (requests + job lifecycles) as Chrome trace JSON."""
        return json_response(200, chrome_trace(self.tracer, process_name="repro-serve"))

    def _handle_submit(self, body: bytes) -> Response:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            return json_response(400, {"error": "request body is not valid JSON"})
        try:
            job, created = self.submit(payload)
        except SubmissionError as exc:
            return json_response(400, {"error": str(exc)})
        except QueueFull as exc:
            return json_response(
                429,
                {"error": str(exc)},
                **{"Retry-After": str(self.retry_after_seconds)},
            )
        except ServiceDraining as exc:
            return json_response(503, {"error": str(exc)})
        info = job.to_dict()
        info["coalesced"] = not created
        return json_response(202 if created else 200, info)

    def _handle_list(self) -> Response:
        jobs = sorted(self.jobs.values(), key=lambda job: job.submitted_at)
        return json_response(200, {"jobs": [job.to_dict() for job in jobs]})

    def _handle_status(self, digest: str) -> Response:
        job = self.jobs.get(digest)
        if job is None:
            return json_response(404, {"error": f"no run {digest!r}"})
        return json_response(200, job.to_dict())

    def _handle_events(self, digest: str) -> Response:
        """Stream a run's lifecycle events as NDJSON until it terminates.

        Chunked streaming of everything the job has journaled so far, then
        live events as they happen; the stream closes after the terminal
        (done/failed) event, so ``curl`` exits by itself.
        """
        job = self.jobs.get(digest)
        if job is None:
            return json_response(404, {"error": f"no run {digest!r}"})
        return Response(
            status=200,
            content_type="application/x-ndjson",
            stream=self._stream_events(job),
        )

    async def _stream_events(self, job: Job) -> AsyncIterator[bytes]:
        index = 0
        while True:
            # Grab the waiter *before* draining: an event arriving between
            # the drain and the await still sets this instance.
            waiter = self._event_waiter
            while index < len(job.events):
                line = json.dumps(job.events[index], sort_keys=True) + "\n"
                yield line.encode("utf-8")
                index += 1
            if job.state in (DONE, FAILED) and index >= len(job.events):
                return
            if waiter is None:  # service not started; nothing can arrive
                return
            try:
                # The timeout is a backstop (e.g. a worker that died without
                # notifying); the waiter is the real wake-up.
                await asyncio.wait_for(asyncio.shield(waiter.wait()), timeout=1.0)
            except asyncio.TimeoutError:
                pass

    def _finished_payload(self, digest: str) -> Optional[Response]:
        """A 404 explaining why ``digest`` has no result yet, or None."""
        if digest in self.results:
            return None
        job = self.jobs.get(digest)
        if job is None:
            return json_response(404, {"error": f"no result {digest!r}"})
        if job.state == DONE:
            # A journal-replayed job: the payload was not carried across the
            # restart, but the store was — re-derive it on first request.
            self._rebuild_payload(job)
            return None
        return json_response(
            404,
            {
                "error": f"run {digest!r} has no result (state: {job.state})",
                "state": job.state,
            },
        )

    @staticmethod
    def _etag_matches(etag: str, if_none_match: Optional[str]) -> bool:
        if if_none_match is None:
            return False
        if if_none_match.strip() == "*":
            return True
        candidates = {tag.strip() for tag in if_none_match.split(",")}
        return etag in candidates

    def _handle_result(self, digest: str, headers: Dict[str, str]) -> Response:
        missing = self._finished_payload(digest)
        if missing is not None:
            return missing
        etag = f'"{digest}"'
        cache_headers = {
            "ETag": etag,
            # The digest names the content; a hit can be cached forever.
            "Cache-Control": "max-age=31536000, immutable",
        }
        if self._etag_matches(etag, headers.get("if-none-match")):
            return Response(304, b"", headers=cache_headers)
        return json_response(200, self.results[digest], **cache_headers)

    def _handle_report(self, digest: str, headers: Dict[str, str]) -> Response:
        missing = self._finished_payload(digest)
        if missing is not None:
            return missing
        etag = f'"{digest}"'
        cache_headers = {
            "ETag": etag,
            "Cache-Control": "max-age=31536000, immutable",
        }
        if self._etag_matches(etag, headers.get("if-none-match")):
            return Response(304, b"", headers=cache_headers)
        return html_response(200, render_report(self.results[digest]), **cache_headers)
