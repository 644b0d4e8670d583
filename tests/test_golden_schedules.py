"""Golden schedules: sha256 digests of complete seeded schedules.

Each test replays a seeded workload through one driver and hashes every
job's ``(job_id, submit, start, end, processors, killed, restarts)``, sorted.
The digests pin the exact schedules, so a refactor of the space-sharing,
grid or gang drivers must leave every one unchanged.  The grid driver runs
in no benchmark workload, so these are its only end-to-end equivalence
check.  A deliberate behaviour change updates the literals and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api.registry import make_model, scheduler_registry
from repro.core.outage.generator import OutageModel, generate_outages
from repro.evaluation import simulate
from repro.grid import (
    EarliestStartMetaScheduler,
    GridSimulation,
    MeanWaitPredictor,
    ProfilePredictor,
    Site,
    generate_meta_jobs,
)
from repro.schedulers import ConservativeBackfillScheduler, EasyBackfillScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.gang import simulate_gang
from repro.workloads import Lublin99Model

SIZE = 64

#: one digest per registered space-sharing policy class, by canonical name
SPACE_DIGESTS = {
    "conservative": "7c9635864af19a2342b6b783882edea8b63fff4fce4e334f8885ef1dfc5b5071",
    "easy": "54662d08a439c125752f7bed175ac52d360d85c450f79fa528e9da84fa8d61f2",
    "fcfs": "fbf4ece0f623a69c0510aaf779f412bea017dc5d4bdb30be6d03ac4cf6d68669",
    "first-fit": "a3d6462442ad4c6ab156dba902850ae8184501a12ce8d221934356a300519bb0",
    "ljf": "cbbff2fd2a64f4a76a556d929a27b5816a3d65738d5c636972f1a698e387e1d4",
    "moldable": "fbf4ece0f623a69c0510aaf779f412bea017dc5d4bdb30be6d03ac4cf6d68669",
    "narrowest-first": "9de5363599d53678b256beaf197be40a9fc76707221abb67f870d73d46aa0644",
    "sjf": "c1932a44cef8048d7bb85795c91dab9264661d1261289a5c105120dfe0a729e9",
    "smallest-area-first": "efb5b8a47f8c2e5373cd20edd93b765b73504a7eaa068a33bc2e30003aef42e0",
    "wfp": "5539ba87adf3da8bce0d39690e3d70791a094234d26eaf2df8d83bb565ec2615",
    "widest-first": "38b35848d7923ed1fa6bd972ae6f99d4526f5f6958b40db7b6a12c60be96a356",
}

OUTAGE_DIGESTS = {
    ("easy", False): "2012ac617427ea76468967d6c7e1b8b1973169296d3e2fd79abcb3c498c8fed7",
    ("easy", True): "266335ef15b7855c91c055117f0e2a9fe222370d6365a618bb5a9094df49aa6b",
    ("conservative", False): "82343f08500f67734c4c20760d1897aab006c37f586fdb382cae6e4751d2683a",
    ("conservative", True): "14dd5f81331ee1fd166bf86b56b4fb221338bd0bfe02ab0b8f8af9b0981cf4f5",
}

DEPENDENCIES_DIGEST = "80156d3f6513d5c62a354aab79395111dbbbc193cb6abd4f674ab0bac42305a3"
GRID_DIGESTS = {
    False: "d29b7251d0b6a19684104144aab0ab571a1e3b755688fc01660b7dad7942cf86",
    True: "ad22bda89ee736e02d1c9f45f068f2547b4cf0e32f657825a7bfaa95f4857f69",
}
GANG_DIGEST = "c4e0894f860d3fbceb942323c5fb3accade97040f048cdb6674b2a4d5fecbf30"


def _digest(rows) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def _job_rows(jobs):
    return [
        (
            int(j.job_id),
            float(j.submit_time),
            float(j.start_time),
            float(j.end_time),
            int(j.processors),
            bool(j.killed),
            int(j.restarts),
        )
        for j in jobs
    ]


def _workload(seed: int = 11):
    return Lublin99Model(machine_size=SIZE).generate_with_load(200, 0.9, seed=seed)


def _make(name: str) -> Scheduler:
    # The moldable policy needs a speedup table; without one it treats
    # every job as rigid and strict FCFS, so its digest equals fcfs's.
    extra = {"moldable_jobs": {}} if name == "moldable" else {}
    return scheduler_registry.create(name, **extra)


def test_every_space_policy_has_a_golden_schedule():
    classes = {
        scheduler_registry.get(name)
        for name in scheduler_registry.names()
        if getattr(scheduler_registry.get(name), "mode", None) == "space"
    }
    assert classes == {scheduler_registry.get(name) for name in SPACE_DIGESTS}


@pytest.mark.parametrize("policy", sorted(SPACE_DIGESTS))
def test_space_policy_schedule(policy):
    result = simulate(_workload(), _make(policy), machine_size=SIZE)
    assert len(result.jobs) == 200
    assert _digest(_job_rows(result.jobs)) == SPACE_DIGESTS[policy]


@pytest.mark.parametrize("policy, aware", sorted(OUTAGE_DIGESTS))
def test_outage_schedule(policy, aware):
    workload = _workload()
    span = max(j.submit_time for j in workload.summary_jobs())
    model = OutageModel(
        mtbf_seconds=span / 12,
        max_nodes_per_failure=16,
        maintenance_interval_seconds=span // 4,
        maintenance_duration_seconds=4 * 3600,
        maintenance_notice_seconds=span // 8,
        maintenance_fraction=0.5,
    )
    outages = generate_outages(SIZE, span, model, seed=3)
    assert any(r.announced_time < r.start_time for r in outages)
    scheduler = {"easy": EasyBackfillScheduler, "conservative": ConservativeBackfillScheduler}
    result = simulate(
        workload,
        scheduler[policy](outage_aware=aware),
        machine_size=SIZE,
        outages=outages,
        max_restarts=1,
    )
    assert result.outage_kills > 0
    assert _digest(_job_rows(result.jobs)) == OUTAGE_DIGESTS[(policy, aware)]


def test_dependency_replay_schedule():
    workload = make_model("sessions:users=10", machine_size=SIZE).generate(200, seed=5)
    assert any(job.has_dependency for job in workload.summary_jobs())
    result = simulate(
        workload, EasyBackfillScheduler(), machine_size=SIZE, honor_dependencies=True
    )
    assert _digest(_job_rows(result.jobs)) == DEPENDENCIES_DIGEST


@pytest.mark.parametrize("reservations", [False, True])
def test_grid_schedule(reservations):
    sites = [
        Site(
            name=f"s{i}",
            machine_size=SIZE,
            scheduler=EasyBackfillScheduler(outage_aware=True),
            local_workload=Lublin99Model(machine_size=SIZE).generate_with_load(
                100, 0.6, seed=20 + i
            ),
            speed=1.0 + 0.5 * i,
        )
        for i in range(2)
    ]
    meta_jobs = generate_meta_jobs(
        30,
        coallocation_fraction=0.4,
        max_components=2,
        max_component_processors=SIZE // 2,
        seed=7,
    )
    result = GridSimulation(
        sites,
        meta_jobs,
        EarliestStartMetaScheduler(),
        use_reservations=reservations,
        predictors={"mean-wait": MeanWaitPredictor, "profile": ProfilePredictor},
    ).run()
    assert result.coallocation_results()
    rows = [
        (name, row)
        for name, site in result.site_results.items()
        for row in _job_rows(site.jobs)
    ]
    rows += [
        (
            "meta",
            int(r.job.job_id),
            r.sites,
            float(r.start_time),
            float(r.end_time),
            float(r.wasted_node_seconds),
        )
        for r in result.meta_results
    ]
    rows.append(("rejected", tuple(result.rejected_meta_jobs)))
    rows.append(("unfinished", tuple(result.unfinished_meta_jobs)))
    rows += [
        ("prediction", name, tuple((float(p), float(a)) for p, a in pairs))
        for name, pairs in result.prediction_pairs.items()
    ]
    assert _digest(rows) == GRID_DIGESTS[reservations]


def test_gang_schedule():
    result = simulate_gang(_workload(), machine_size=SIZE, max_slots=3)
    assert _digest(_job_rows(result.jobs)) == GANG_DIGEST
