"""The suite runner: cache consult → ``run_many`` fan-out → aggregation.

Execution order is always: expand every case into per-seed replications,
look each one up in the content-addressed store, run only the misses (in one
``run_many`` batch, so ``--workers N`` parallelism applies across cases and
seeds alike), write the fresh results back, then aggregate.  Because cache
keys are content addresses, overlapping suites share entries: running
``std-space`` warms every ``bench compare`` over the same contexts.

:func:`compare_policies` is the paper's prescribed pairwise methodology:
both policies run the *same* seed list per context (common random numbers),
and each metric gets a paired-difference t-test with a significance verdict
instead of an eyeballed mean comparison.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.registry import parse_spec, scheduler_registry
from repro.api.runner import ScenarioResult, resolve_workload_shared, run, run_many
from repro.api.scenario import Scenario
from repro.bench.stats import (
    CIEstimate,
    PairedComparison,
    metric_ci,
    paired_comparison,
)
from repro.bench.store import ResultStore, StoredResult, result_key
from repro.bench.suite import (
    BenchmarkCase,
    BenchmarkSuite,
    generated_outage_log,
    get_suite,
)
from repro.metrics.basic import MetricsReport
from repro.metrics.objective import MAXIMIZE_METRICS
from repro.obs.trace import phase, trace_span

__all__ = [
    "ReplicationOutcome",
    "CaseAggregate",
    "SuiteRunResult",
    "MetricComparison",
    "CaseComparison",
    "ComparisonResult",
    "run_suite",
    "execute_unit",
    "compare_policies",
    "mean_report",
]


def mean_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Field-wise mean of replication reports (the across-seeds summary).

    Numeric fields are averaged; the scheduler name and tau are taken from
    the first report (replications of one case share both).
    """
    if not reports:
        raise ValueError("mean_report needs at least one report")
    first = reports[0]
    values: Dict[str, Any] = {}
    for f in dataclasses.fields(MetricsReport):
        column = [getattr(r, f.name) for r in reports]
        if f.name in ("scheduler",):
            values[f.name] = column[0]
        elif f.name == "counters":
            # Key-wise mean over the per-run counter dicts; replications of
            # one case share a key set, but a missing key reads as 0.
            keys = sorted({k for c in column for k in c})
            values[f.name] = {
                k: sum(c.get(k, 0) for c in column) / len(column) for k in keys
            }
        elif f.name in ("jobs", "killed"):
            values[f.name] = int(round(sum(column) / len(column)))
        else:
            values[f.name] = sum(column) / len(column)
    return MetricsReport(**values)


@dataclass(frozen=True)
class ReplicationOutcome:
    """One executed (or cache-served) replication of one case."""

    case: BenchmarkCase
    seed: int
    scenario: Scenario
    key: str
    report: MetricsReport
    cached: bool


@dataclass(frozen=True)
class CaseAggregate:
    """Across-seeds summary of one case: per-metric mean ± CI."""

    case: str
    context: str
    policy: str
    n: int
    cis: Dict[str, CIEstimate]
    summary: MetricsReport


@dataclass
class SuiteRunResult:
    """Everything one suite run produced, cache-served and simulated alike."""

    suite: str
    metrics: Tuple[str, ...]
    confidence: float
    replications: List[ReplicationOutcome]
    #: replications served by the result store (actual store reads only)
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float
    #: replications whose key duplicates another entry in the *same* run —
    #: served from this run's own result, whether or not a store exists.
    #: Kept separate from ``cache_hits`` so a storeless run never claims
    #: "N from cache" when no cache was consulted.
    deduplicated: int = 0
    #: wall-clock phase breakdown of this run: cache consultation, workload
    #: materialization, simulation, metrics, and store writes (seconds).
    timings: Dict[str, float] = dataclasses.field(default_factory=dict)

    def by_case(self) -> Dict[str, List[ReplicationOutcome]]:
        """Replications grouped by case name, in suite order."""
        grouped: Dict[str, List[ReplicationOutcome]] = {}
        for outcome in self.replications:
            grouped.setdefault(outcome.case.name, []).append(outcome)
        return grouped

    def aggregates(self) -> List[CaseAggregate]:
        """Per-case mean ± CI for every suite metric (memoized).

        Unbounded metrics get Student-t intervals; metrics bounded in [0, 1]
        (utilization) get the percentile bootstrap via
        :func:`~repro.bench.stats.metric_ci`.  The quantile computations are
        not free; rows(), the JSON report, and the markdown report all read
        the same aggregates, so compute once.
        """
        cached = getattr(self, "_aggregates", None)
        if cached is not None:
            return cached
        result = []
        for name, outcomes in self.by_case().items():
            reports = [o.report for o in outcomes]
            result.append(
                CaseAggregate(
                    case=name,
                    context=outcomes[0].case.context,
                    policy=outcomes[0].scenario.policy,
                    n=len(outcomes),
                    cis={
                        metric: metric_ci(
                            metric, [r.value(metric) for r in reports], self.confidence
                        )
                        for metric in self.metrics
                    },
                    summary=mean_report(reports),
                )
            )
        self._aggregates = result
        return result

    def rows(self) -> List[Dict[str, object]]:
        """Display rows: one per case, ``mean ± half-width`` per metric."""
        return [
            {
                "case": agg.context,
                "policy": agg.policy,
                "seeds": agg.n,
                **{metric: _format_ci(ci) for metric, ci in agg.cis.items()},
            }
            for agg in self.aggregates()
        ]

    def summary(self) -> str:
        dedup = (
            f", {self.deduplicated} deduplicated" if self.deduplicated else ""
        )
        if self.cache_misses == 0 and self.cache_hits:
            served = f"all {self.cache_hits} from cache{dedup}, no simulation ran"
        elif self.cache_misses == 0:
            # Everything resolved without store reads *or* simulation: the
            # whole suite deduplicated onto keys from this run itself.
            served = f"0 from cache{dedup}, no simulation ran"
        else:
            served = (
                f"{self.cache_hits} from cache, "
                f"{self.cache_misses} simulated{dedup}"
            )
        return (
            f"suite {self.suite!r}: {len(self.replications)} replications "
            f"({served}) in {self.elapsed_seconds:.2f}s"
        )


def _format_ci(ci: CIEstimate) -> str:
    return f"{ci.mean:.4g} ± {ci.half_width:.3g}"


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _resolve_suite(suite: Union[str, BenchmarkSuite]) -> BenchmarkSuite:
    return get_suite(suite) if isinstance(suite, str) else suite


def _trace_extra(scenario: Scenario) -> Dict[str, Any]:
    """Content-digest key material for trace-backed workloads.

    For ``trace:`` specs and plain SWF paths the cache key must track the
    trace *content*, not the spec string: editing a trace file's bytes (same
    path) has to force a miss.  ``trace`` carries the full digest (into
    :func:`result_key`); ``trace_family`` carries the seed-free family
    digest, which :func:`family_key` keeps so that replications differing
    only in generation seed still aggregate together.
    """
    from repro.traces import trace_for_scenario

    trace = trace_for_scenario(scenario)
    if trace is None:
        return {}
    return {"trace": trace.digest, "trace_family": trace.family_digest}


def _expand(suite: BenchmarkSuite):
    """Flatten the suite into (case, seed, scenario, extra, key) tuples."""
    entries = []
    for case in suite.cases:
        for seed, scenario in case.replications():
            extra = case.store_extra(seed)
            extra.update(_trace_extra(scenario))
            entries.append((case, seed, scenario, extra, result_key(scenario, extra)))
    return entries


def _policy_mode(policy_spec: str) -> str:
    """The simulator mode the policy spec dispatches to (space/gang/grid)."""
    return getattr(scheduler_registry.get(parse_spec(policy_spec)[0]), "mode", "space")


def _unit_workload(scenario: Scenario) -> Optional[Any]:
    """The workload override one unit runs with (None: resolve from the spec).

    Replications of different policies over the same context share their
    workload, so resolve it once — through the process-wide
    :func:`~repro.api.runner.resolve_workload_shared` memo — and hand it to
    ``run()`` as an override.  The override is *unscaled* (``load=None``) so
    ``run()`` applies the scenario's load scaling exactly as it would from
    the spec.  Grid-mode scenarios get no override: the grid runner re-seeds
    the model per site, which an already-materialized workload would defeat.
    """
    if _policy_mode(scenario.policy) == "grid":
        return None
    return resolve_workload_shared(scenario)


def _store_unit(
    result: ScenarioResult,
    key: str,
    extra: Dict[str, Any],
    suite: str,
    case: str,
    store: Optional[ResultStore],
    timings: Dict[str, float],
) -> StoredResult:
    """Build one unit's store entry from its run and write it (with a store).

    ``elapsed_seconds`` is the run's own cost — the sum of its phase
    timings — never a wall clock around it, so an entry records the same
    kind of figure whichever path executed the unit.
    """
    entry = StoredResult(
        key=key,
        scenario=result.scenario,
        report=result.report,
        extra=extra,
        suite=suite,
        case=case,
        elapsed_seconds=sum(result.timings.values()),
    )
    if store is not None:
        with phase(timings, "store_write_seconds", "bench.store_write", case=case):
            store.put(entry)
    return entry


def execute_unit(
    scenario: Scenario,
    key: str,
    extra: Dict[str, Any],
    suite: str,
    case: str,
    store: Optional[ResultStore],
) -> StoredResult:
    """Run one work unit exactly as :func:`run_suite` would, and store it.

    This is the one execution path for a single unit: the distributed
    worker and the serve daemon's scenario jobs both call it, and
    ``run_suite``'s fan-out resolves the same inputs and stores through
    the same entry builder.  The inputs are the shared unscaled workload
    (none for grid mode) and the outage log regenerated from
    ``extra["outages"]``, so a unit carrying only its recorded key material
    reproduces the serial store entry bit for bit.
    """
    result = run(
        scenario,
        workload=_unit_workload(scenario),
        outages=generated_outage_log(scenario, extra),
    )
    return _store_unit(result, key, extra, suite, case, store, {})


def run_suite(
    suite: Union[str, BenchmarkSuite],
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    confidence: float = 0.95,
    progress: Optional[Callable[[int, int, bool], None]] = None,
) -> SuiteRunResult:
    """Run a suite (by name or instance), reusing cached replications.

    ``store=None`` disables persistence entirely; with a store, ``use_cache=
    False`` skips reads but still writes, refreshing every entry.  Runs are
    fully seeded, so ``workers=N`` reproduces serial results bit-for-bit.

    ``progress(done, total, cached)`` is called once per distinct work unit
    (unique result key) as it resolves — immediately for cache hits, at
    completion for simulated misses — so a long suite can be watched live
    (the serve daemon's job progress reads exactly this).  Fresh results are
    persisted as they complete, not at the end, so an interrupted run keeps
    everything it finished.
    """
    suite = _resolve_suite(suite)
    started = time.perf_counter()
    timings: Dict[str, float] = {
        "cache_lookup_seconds": 0.0,
        "materialize_seconds": 0.0,
        "simulate_seconds": 0.0,
        "metrics_seconds": 0.0,
        "store_write_seconds": 0.0,
    }
    with trace_span("bench.expand", suite=suite.name):
        entries = _expand(suite)

    # A key can appear twice when cases overlap; it is one work unit.
    unique: Dict[str, tuple] = {}
    for entry in entries:
        unique.setdefault(entry[4], entry)
    total = len(unique)
    done = 0

    reports: Dict[str, MetricsReport] = {}
    store_hits = 0
    if store is not None and use_cache:
        with phase(timings, "cache_lookup_seconds", "bench.cache_lookup", keys=total):
            for key in unique:
                hit = store.get(key)
                if hit is not None:
                    reports[key] = hit.report
                    store_hits += 1
                    done += 1
                    if progress is not None:
                        progress(done, total, True)

    unique_misses: Dict[str, tuple] = {
        key: entry for key, entry in unique.items() if key not in reports
    }
    if unique_misses:
        ordered = list(unique_misses.values())

        def _record(index: int, scenario_result: ScenarioResult) -> None:
            nonlocal done
            case, _seed, _scenario, extra, key = ordered[index]
            reports[key] = scenario_result.report
            done += 1
            for name in ("materialize_seconds", "simulate_seconds", "metrics_seconds"):
                timings[name] += scenario_result.timings.get(name, 0.0)
            _store_unit(
                scenario_result, key, extra, suite.name, case.name, store, timings
            )
            if progress is not None:
                progress(done, total, False)

        with phase(
            timings, "materialize_seconds", "bench.materialize", units=len(ordered)
        ):
            workloads = [_unit_workload(scenario) for _c, _s, scenario, _e, _k in ordered]
        with trace_span(
            "bench.fan_out", misses=len(unique_misses), workers=workers or 1
        ):
            run_many(
                [scenario for _c, _s, scenario, _e, _k in ordered],
                workers=workers,
                workloads=workloads,
                outages=[case.outage_log(seed) for case, seed, _sc, _e, _k in ordered],
                on_result=_record,
            )

    # Only the first entry per simulated key counts as a miss: a duplicate
    # key later in the suite is served from this run's own result, exactly
    # like a store hit.
    simulated_once: set = set()
    outcomes = []
    for case, seed, scenario, extra, key in entries:
        freshly_simulated = key in unique_misses and key not in simulated_once
        if freshly_simulated:
            simulated_once.add(key)
        outcomes.append(
            ReplicationOutcome(
                case=case,
                seed=seed,
                scenario=scenario,
                key=key,
                report=reports[key],
                cached=not freshly_simulated,
            )
        )
    elapsed = time.perf_counter() - started
    timings["total_seconds"] = elapsed
    # Worker-side phase totals can exceed the wall clock under --workers N
    # (they sum across processes); "other" is the unaccounted parent-side
    # remainder, clamped at zero in that case.
    accounted = sum(v for k, v in timings.items() if k != "total_seconds")
    timings["other_seconds"] = max(0.0, elapsed - accounted)
    return SuiteRunResult(
        suite=suite.name,
        metrics=suite.metrics,
        confidence=confidence,
        replications=outcomes,
        # Only actual store reads are cache hits; a duplicate key inside the
        # suite is accounted as deduplicated, so a run with store=None or
        # use_cache=False can never report phantom hits.
        cache_hits=store_hits,
        cache_misses=len(unique_misses),
        deduplicated=len(entries) - total,
        elapsed_seconds=elapsed,
        timings={k: round(v, 6) for k, v in timings.items()},
    )


# ----------------------------------------------------------------------
# pairwise comparison under common random numbers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricComparison:
    """One metric of one context: both CIs, the paired test, the winner."""

    metric: str
    a: CIEstimate
    b: CIEstimate
    paired: PairedComparison
    #: the policy the significant difference favours (None: not significant)
    better: Optional[str]


@dataclass(frozen=True)
class CaseComparison:
    """All metric verdicts for one workload context."""

    context: str
    n: int
    metrics: List[MetricComparison]

    def wins(self, policy: str) -> int:
        return sum(1 for m in self.metrics if m.better == policy)


@dataclass
class ComparisonResult:
    """Pairwise comparison of two policies over a suite's contexts."""

    suite: str
    policy_a: str
    policy_b: str
    confidence: float
    cases: List[CaseComparison]
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for case in self.cases:
            for m in case.metrics:
                rows.append(
                    {
                        "case": case.context,
                        "metric": m.metric,
                        self.policy_a: _format_ci(m.a),
                        self.policy_b: _format_ci(m.b),
                        "diff": f"{m.paired.mean_diff:+.4g}",
                        "p": f"{m.paired.p_value:.3f}",
                        "verdict": m.better if m.better else "—",
                    }
                )
        return rows

    def summary(self) -> str:
        lines = []
        for case in self.cases:
            a_wins, b_wins = case.wins(self.policy_a), case.wins(self.policy_b)
            total = len(case.metrics)
            if a_wins > b_wins:
                verdict = f"{self.policy_a} better on {a_wins}/{total} metrics"
            elif b_wins > a_wins:
                verdict = f"{self.policy_b} better on {b_wins}/{total} metrics"
            else:
                verdict = f"no overall winner ({a_wins}/{total} metrics each)"
            lines.append(
                f"{case.context} ({case.n} seeds): {verdict} "
                f"at {self.confidence:.0%} confidence"
            )
        served = "all from cache" if self.cache_misses == 0 else (
            f"{self.cache_hits} from cache, {self.cache_misses} simulated"
        )
        lines.append(
            f"{self.policy_a} vs {self.policy_b} over suite {self.suite!r}: "
            f"{served}, {self.elapsed_seconds:.2f}s"
        )
        return "\n".join(lines)


def _better_policy(
    metric: str, paired: PairedComparison, policy_a: str, policy_b: str
) -> Optional[str]:
    """Map a significant difference direction onto the favoured policy."""
    if paired.direction == 0:
        return None
    a_is_larger = paired.direction > 0
    if metric in MAXIMIZE_METRICS:
        return policy_a if a_is_larger else policy_b
    # Metrics default to lower-is-better, matching ObjectiveFunction.
    return policy_b if a_is_larger else policy_a


def compare_policies(
    suite: Union[str, BenchmarkSuite],
    policy_a: str,
    policy_b: str,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    confidence: float = 0.95,
) -> ComparisonResult:
    """Compare two policy specs over a suite's workload contexts.

    Every context keeps its own seed list and outage conditions; both
    policies run all of them (common random numbers), and each suite metric
    gets a paired-difference significance verdict.
    """
    if policy_a == policy_b:
        raise ValueError("compare needs two distinct policy specs")
    suite = _resolve_suite(suite)
    pair_suite = suite.with_policies([policy_a, policy_b])
    outcome = run_suite(
        pair_suite,
        workers=workers,
        store=store,
        use_cache=use_cache,
        confidence=confidence,
    )
    grouped = outcome.by_case()
    cases = []
    for ctx in pair_suite.contexts():
        reports_a = [o.report for o in grouped[f"{ctx.context}/{policy_a}"]]
        reports_b = [o.report for o in grouped[f"{ctx.context}/{policy_b}"]]
        metric_comparisons = []
        for metric in pair_suite.metrics:
            values_a = [r.value(metric) for r in reports_a]
            values_b = [r.value(metric) for r in reports_b]
            paired = paired_comparison(values_a, values_b, confidence)
            metric_comparisons.append(
                MetricComparison(
                    metric=metric,
                    a=metric_ci(metric, values_a, confidence),
                    b=metric_ci(metric, values_b, confidence),
                    paired=paired,
                    better=_better_policy(metric, paired, policy_a, policy_b),
                )
            )
        cases.append(
            CaseComparison(
                context=ctx.context, n=len(reports_a), metrics=metric_comparisons
            )
        )
    return ComparisonResult(
        suite=suite.name,
        policy_a=policy_a,
        policy_b=policy_b,
        confidence=confidence,
        cases=cases,
        cache_hits=outcome.cache_hits,
        cache_misses=outcome.cache_misses,
        elapsed_seconds=outcome.elapsed_seconds,
    )
