"""The tuner's control law, pinned as a trajectory: one fixed walk, exact expected states.

The walk drives every branch of the raise / decay / probe law (raise, raise capped at 1.0, the
grace period, unpaid decay, idle decay through ``offer_floor`` to 0.0, a probe delayed by
``probe_cooldown`` on an unpaid ledger, an immediate probe on a healthy one, builds that charged
nothing, jobs without useful reader seconds) and compares the state after every job with ``==``
against values captured before the law's two copies were folded into one method — so the rate
cannot drift from what the journal format (``codec.encode_tuner``) already holds in the field.

The journal also still holds tuner payloads written while the tuner could split its ledger per
filter attribute.  One that never did (``"per_attribute": false, "ledgers": {}``) restores
exactly; one that did, or one with any other unknown key, is refused by name.

To refresh after a *deliberate* change of the law: print ``_replay()`` and ``encode_tuner`` of
the final tuner, paste, and justify the diff in the PR.
"""

from __future__ import annotations

import pytest

from repro.engine.lifecycle import AdaptiveTuner, JobObservation
from repro.persist import JournalCorruptError
from repro.persist.codec import decode_tuner, encode_tuner


def _job(builds=0, build_s=0.0, uses=0, saved=0.0, fallbacks=0, rr=10.0):
    return JobObservation(
        builds_committed=builds,
        build_seconds=build_s,
        adaptive_uses=uses,
        saved_seconds=saved,
        fallback_blocks=fallbacks,
        record_reader_seconds=rr,
    )


def _build(builds, seconds, fallbacks, rr=40.0):
    return _job(builds=builds, build_s=seconds, fallbacks=fallbacks, rr=rr)


def _use(uses, saved, rr=12.0):
    return _job(uses=uses, saved=saved, rr=rr)


def _scan(fallbacks, rr=30.0):
    return _job(fallbacks=fallbacks, rr=rr)


#: The walk.  Comments name the branch the ledger takes.
_WALK = (
    [_build(4, 8.0, 8)]  # 1: builds without savings inside the grace period: hold
    + [_use(4, 6.0)] * 3  # 2-4: savings beat cost: raise 0.5 -> 0.75 -> 1.0 -> capped
    + [_build(2, 40.0, 4)] * 5  # 5-9: unpaid builds past grace: decay x5
    + [_scan(4)] * 4  # 10-13: scans, rate < min, ledger unpaid: probe only at cooldown
    + [_use(6, 30.0)] * 2  # 14-15: raise from the probe rate
    # 16: a cheap build that pays at once: raise, and the build-free run restarts at zero.
    + [_job(builds=1, build_s=1.0, uses=6, saved=30.0, rr=12.0)]
    + [_job(rr=5.0)] * 2  # 17-18: nothing happens: idle decay to below min_offer_rate
    + [_scan(6)]  # 19: healthy ledger, cooldown not reached: immediate probe
    + [_job(rr=5.0)] * 3  # 20-22: idle decay through offer_floor to exactly 0.0
    + [_build(4, 6.0, 4)]  # 23: cheap builds
    + [_use(8, 9.0)] * 2  # 24-25: raise
    + [
        # 26: builds, uses and scans in one job; savings beat cost.
        _job(builds=1, build_s=2.5, uses=8, saved=5.75, fallbacks=2, rr=20.0),
        # 27: cost beats savings: no raise.
        _job(builds=3, build_s=21.0, uses=5, saved=4.0, fallbacks=3, rr=25.0),
        _job(builds=2, build_s=3.0, fallbacks=2, rr=18.0),  # 28
        # 29: builds that charged nothing (build_cost_ema drops) and no useful reader time.
        _job(builds=2, build_s=0.0, fallbacks=1, rr=0.0),
        # 30: a use that saved nothing: neither a raise nor idle.
        _use(2, 0.0, rr=8.0),
    ]
    + [_build(3, 33.0, 6)] * 4  # 31-34
    + [_job(rr=6.0)] * 2  # 35-36: idle
    + [_scan(2)] * 2  # 37-38
    + [_use(4, 50.0), _use(1, 0.5)]  # 39-40: raise tails
)


def _state(tuner: AdaptiveTuner) -> tuple:
    return (
        tuner.offer_rate,
        tuner.budget,
        tuner.jobs_since_build,
        tuner.total_build_seconds,
        tuner.total_saved_seconds,
        tuner.build_cost_ema,
        tuner.reader_seconds_ema,
    )


def _replay() -> tuple[list[tuple], AdaptiveTuner]:
    tuner = AdaptiveTuner()
    states = []
    for observation in _WALK:
        tuner.observe(observation)
        states.append(_state(tuner))
    return states, tuner


#: State after each job of the walk, captured at commit c1d19fc, when the law had two
#: hand-written copies (the global ledger's columns of the capture).
_GOLDEN: list[tuple] = [
    (0.5, 5, 0, 8.0, 0.0, 2.0, 40.0),
    (0.75, 3, 1, 7.2, 6.0, 2.0, 31.6),
    (1.0, 3, 2, 6.48, 11.4, 2.0, 25.72),
    (1.0, 2, 3, 5.832000000000001, 16.259999999999998, 2.0, 21.604),
    (0.5, 1, 0, 45.2488, 14.633999999999999, 7.4, 27.122799999999998),
    (0.25, 1, 0, 80.72392, 13.170599999999999, 11.18, 30.98596),
    (0.125, 1, 0, 112.65152800000001, 11.853539999999999, 13.826, 33.690172),
    (0.0625, 1, 0, 141.38637520000003, 10.668185999999999, 15.6782, 35.5831204),
    (0.03125, 1, 0, 167.24773768000003, 9.601367399999999, 16.974739999999997, 36.90818428),
    (0.03125, 1, 1, 150.52296391200002, 8.64123066, 16.974739999999997, 34.835728996),
    (0.03125, 1, 2, 135.47066752080002, 7.777107594, 16.974739999999997, 33.3850102972),
    (0.03125, 1, 3, 121.92360076872002, 6.999396834600001, 16.974739999999997, 32.36950720804),
    (0.05, 1, 4, 109.73124069184801, 6.29945715114, 16.974739999999997, 31.658655045628),
    (0.07500000000000001, 1, 5, 98.75811662266321,
     35.669511436026, 16.974739999999997, 25.761058531939597),
    (0.11250000000000002, 1, 6, 88.8823049603969,
     62.1025602924234, 16.974739999999997, 21.632740972357716),
    (0.16875, 1, 0, 80.99407446435721, 85.89230426318106, 12.182317999999999, 18.742918680650398),
    (0.084375, 1, 1, 72.89466701792149, 77.30307383686295, 12.182317999999999, 14.620043076455278),
    (0.0421875, 1, 2, 65.60520031612934,
     69.57276645317665, 12.182317999999999, 11.734030153518693),
    (0.05, 1, 3, 59.04468028451641, 62.61548980785899, 12.182317999999999, 17.213821107463083),
    (0.025, 1, 4, 53.14021225606477, 56.353940827073096, 12.182317999999999, 13.549674775224158),
    (0.0125, 1, 5, 47.8261910304583, 50.71854674436579, 12.182317999999999, 10.98477234265691),
    (0.0, 1, 6, 43.043571927412465, 45.64669206992921, 12.182317999999999, 9.189340639859836),
    (0.05, 1, 0, 44.73921473467122, 41.08202286293629, 8.977622599999998, 18.432538447901884),
    (0.07500000000000001, 1, 1, 40.2652932612041,
     45.973820576642666, 8.977622599999998, 16.502776913531317),
    (0.11250000000000002, 1, 2, 36.23876393508369,
     50.376438518978404, 8.977622599999998, 15.15194383947192),
    (0.16875, 1, 0, 35.11488754157532, 51.08879466708056, 7.034335819999998, 16.606360687630342),
    (0.16875, 1, 0, 52.60339878741779, 49.97991520037251, 7.024035073999999, 19.124452481341237),
    (0.16875, 1, 0, 50.343058908676014, 44.98192368033526, 5.366824551799999, 18.787116736938863),
    (0.16875, 1, 0, 45.308753017808414, 40.483731312301735, 3.756777186259999, 18.787116736938863),
    (0.16875, 1, 1, 40.777877716027575, 36.435358181071564, 3.756777186259999, 15.550981715857203),
    (0.084375, 1, 0, 69.70008994442482, 32.79182236296441, 5.929744030381999, 22.88568720110004),
    (0.0421875, 1, 0, 95.73008094998234, 29.51264012666797, 7.450820821267398, 28.019981040770027),
    (0.02109375, 1, 0, 119.15707285498411,
     26.561376114001174, 8.515574574887179, 31.613986728539018),
    (0.010546875, 1, 0, 140.2413655694857,
     23.90523850260106, 9.260902202421025, 34.129790709977314),
    (0.0, 1, 1, 126.21722901253715, 21.514714652340952, 9.260902202421025, 25.69085349698412),
    (0.0, 1, 2, 113.59550611128343, 19.363243187106857, 9.260902202421025, 19.783597447888884),
    (0.0, 1, 3, 102.23595550015509, 17.42691886839617, 9.260902202421025, 22.84851821352222),
    (0.05, 1, 4, 92.01235995013958, 15.684226981556554, 9.260902202421025, 24.993962749465553),
    (0.07500000000000001, 1, 5, 82.81112395512562,
     64.1158042834009, 9.260902202421025, 21.095773924625888),
    (0.11250000000000002, 1, 6, 74.53001155961306,
     58.20422385506082, 9.260902202421025, 18.36704174723812),
]

#: ``encode_tuner`` of the final tuner at the same commit.
_GOLDEN_ENCODED: dict = {
    "offer_rate": 0.11250000000000002,
    "budget": 1,
    "overhead_fraction": 0.25,
    "increase_factor": 1.5,
    "decay_factor": 0.5,
    "min_offer_rate": 0.05,
    "offer_floor": 0.01,
    "payback_fraction": 0.5,
    "grace_jobs": 2,
    "probe_cooldown": 4,
    "min_budget": 1,
    "ema_alpha": 0.3,
    "ledger_decay": 0.9,
    "jobs_observed": 40,
    "jobs_since_build": 6,
    "total_build_seconds": 74.53001155961306,
    "total_saved_seconds": 58.20422385506082,
    "build_cost_ema": 9.260902202421025,
    "reader_seconds_ema": 18.36704174723812,
}

#: The same state as a journal wrote it while the tuner had per-attribute ledgers.
_OLD_PAYLOAD: dict = {**_GOLDEN_ENCODED, "per_attribute": False, "ledgers": {}}


def test_walk_is_the_size_the_golden_was_captured_for():
    assert len(_WALK) == len(_GOLDEN) == 40


def test_trajectory_is_bit_identical_to_the_captured_one():
    states, tuner = _replay()
    for job, (state, expected) in enumerate(zip(states, _GOLDEN), start=1):
        assert state == expected, f"job {job}"
    assert encode_tuner(tuner) == _GOLDEN_ENCODED
    # The journal format round-trips the state the walk reached.
    assert encode_tuner(decode_tuner(_GOLDEN_ENCODED)) == _GOLDEN_ENCODED


def test_an_old_global_ledger_payload_restores_exactly():
    _, tuner = _replay()
    assert decode_tuner(_OLD_PAYLOAD) == tuner
    assert encode_tuner(decode_tuner(_OLD_PAYLOAD)) == _GOLDEN_ENCODED


@pytest.mark.parametrize(
    "key, payload",
    [
        ("per_attribute", {**_OLD_PAYLOAD, "per_attribute": True}),
        # The final "d" ledger of the walk with per-attribute tuning, as journaled then.
        (
            "ledgers",
            {**_OLD_PAYLOAD, "ledgers": {"d": {
                "offer_rate": 0.037500000000000006,
                "jobs_observed": 10,
                "jobs_since_build": 6,
                "total_build_seconds": 60.31164476700002,
                "total_saved_seconds": 45.0,
            }}},
        ),
        ("adaptive_budget", {**_GOLDEN_ENCODED, "adaptive_budget": 3}),
    ],
)
def test_a_payload_that_cannot_restore_exactly_is_refused_by_name(key, payload):
    with pytest.raises(JournalCorruptError, match=repr(key)):
        decode_tuner(payload)


def test_walk_visits_every_branch_of_the_law():
    """The captured states themselves show the branches (so an edited walk cannot go blind)."""
    rates = [state[0] for state in _GOLDEN]
    build_free = [state[2] for state in _GOLDEN]
    assert rates[:4] == [0.5, 0.75, 1.0, 1.0]  # grace hold, raise, raise, cap
    assert rates[4:9] == [0.5, 0.25, 0.125, 0.0625, 0.03125]  # unpaid decay
    assert rates[9:13] == [0.03125] * 3 + [0.05] and build_free[12] == 4  # delayed probe
    assert rates[17] < 0.05 == rates[18] and build_free[18] == 3  # immediate probe
    assert rates[19:22] == [0.025, 0.0125, 0.0]  # idle decay through the floor
    assert rates[26] == rates[25]  # cost beat savings: no raise
