"""The tuner's control law, pinned as a trajectory: one fixed walk, exact expected states.

The raise / decay / probe law is applied to two kinds of ledger — the tuner's own (global)
one and one :class:`~repro.engine.lifecycle.AttributeLedger` per filter attribute.  This
walk drives every branch of it on both (raise, raise capped at 1.0, the grace period, unpaid
decay, idle decay through ``offer_floor`` to 0.0, a probe delayed by ``probe_cooldown`` on an
unpaid ledger, an immediate probe on a healthy one, attributes appearing mid-sequence and
going idle, jobs without slices, jobs without useful reader seconds) and compares the state
after every job with ``==`` against values captured before the two copies of the law were
folded into one method — so neither rate can drift from what the journal format
(``codec.encode_tuner``) already holds in the field.

To refresh after a *deliberate* change of the law: print ``_replay(per_attribute=True)`` and
``encode_tuner`` of the final tuner, paste, and justify the diff in the PR.
"""

from __future__ import annotations

from repro.engine.lifecycle import AdaptiveTuner, JobObservation
from repro.persist.codec import decode_tuner, encode_tuner


def _job(builds=None, build_s=None, uses=None, saved=None, fallbacks=None, rr=10.0, **totals):
    """One observation from per-attribute slices; the job totals are the slice sums."""
    builds, build_s, uses = builds or {}, build_s or {}, uses or {}
    saved, fallbacks = saved or {}, fallbacks or {}
    fields = dict(
        builds_committed=sum(builds.values()),
        build_seconds=sum(build_s.values()),
        adaptive_uses=sum(uses.values()),
        saved_seconds=sum(saved.values()),
        fallback_blocks=sum(fallbacks.values()),
        record_reader_seconds=rr,
        builds_by_attribute=builds,
        build_seconds_by_attribute=build_s,
        uses_by_attribute=uses,
        saved_seconds_by_attribute=saved,
        fallbacks_by_attribute=fallbacks,
    )
    fields.update(totals)
    return JobObservation(**fields)


def _build(attr, builds, seconds, fallbacks, rr=40.0):
    return _job(builds={attr: builds}, build_s={attr: seconds}, fallbacks={attr: fallbacks}, rr=rr)


def _use(attr, uses, saved, rr=12.0):
    return _job(uses={attr: uses}, saved={attr: saved}, rr=rr)


def _scan(attr, fallbacks, rr=30.0):
    return _job(fallbacks={attr: fallbacks}, rr=rr)


#: The walk.  Comments name the branch the *global* ledger takes; the per-attribute
#: ledgers take theirs on their own slices (an attribute a job does not touch is idle).
_WALK = (
    [_build("a", 4, 8.0, 8)]  # 1: builds without savings inside the grace period: hold
    + [_use("a", 4, 6.0)] * 3  # 2-4: savings beat cost: raise 0.5 -> 0.75 -> 1.0 -> capped
    + [_build("b", 2, 40.0, 4)] * 5  # 5-9: b appears; unpaid builds past grace: decay x5
    + [_scan("b", 4)] * 4  # 10-13: scans, rate < min, ledger unpaid: probe only at cooldown
    + [_use("b", 6, 30.0)] * 2  # 14-15: raise from the probe rate
    # 16: a cheap build that pays at once: raise, and the build-free run restarts at zero.
    + [_job(builds={"b": 1}, build_s={"b": 1.0}, uses={"b": 6}, saved={"b": 30.0}, rr=12.0)]
    + [_job(rr=5.0)] * 2  # 17-18: nothing happens: idle decay to below min_offer_rate
    + [_scan("c", 6)]  # 19: c appears; healthy ledger, cooldown not reached: immediate probe
    + [_job(rr=5.0)] * 3  # 20-22: idle decay through offer_floor to exactly 0.0
    + [_build("c", 4, 6.0, 4)]  # 23: cheap builds
    + [_use("c", 8, 9.0)] * 2  # 24-25: raise
    + [
        # 26: three attributes in one job — a builds, b and c use; savings beat cost overall.
        _job(builds={"a": 1}, build_s={"a": 2.5}, uses={"b": 3, "c": 5},
             saved={"b": 1.25, "c": 4.5}, fallbacks={"a": 2}, rr=20.0),
        # 27: cost beats savings overall (no raise) while c alone still pays (c raises).
        _job(builds={"b": 3}, build_s={"b": 21.0}, uses={"c": 5}, saved={"c": 4.0},
             fallbacks={"b": 3}, rr=25.0),
        # 28: totals without slices (a job that predates the per-attribute counters).
        _job(builds_committed=2, build_seconds=3.0, fallback_blocks=2, rr=18.0),
        # 29: builds that charged nothing (build_cost_ema drops) and no useful reader time.
        _job(builds={"c": 2}, build_s={"c": 0.0}, fallbacks={"c": 1}, rr=0.0),
        # 30: a use that saved nothing: neither a raise nor idle.
        _job(uses={"a": 2}, saved={"a": 0.0}, rr=8.0),
    ]
    + [_build("d", 3, 33.0, 6)] * 4  # 31-34: d appears; its own grace period, then unpaid
    + [_job(rr=6.0)] * 2  # 35-36: idle
    + [_scan("d", 2)] * 2  # 37-38: d's ledger is unpaid: no probe at 3 build-free jobs, at 4
    + [_use("d", 4, 50.0), _use("a", 1, 0.5)]  # 39-40: raise tails
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
        {
            attribute: (
                ledger.offer_rate,
                ledger.jobs_observed,
                ledger.jobs_since_build,
                ledger.total_build_seconds,
                ledger.total_saved_seconds,
            )
            for attribute, ledger in tuner.ledgers.items()
        },
    )


def _replay(per_attribute: bool) -> tuple[list[tuple], AdaptiveTuner]:
    tuner = AdaptiveTuner(per_attribute=per_attribute)
    states = []
    for observation in _WALK:
        tuner.observe(observation)
        states.append(_state(tuner))
    return states, tuner


#: State after each job of the walk with ``per_attribute=True``, captured at commit c1d19fc
#: (two hand-written copies of the law).  With ``per_attribute=False`` the first seven
#: entries are the same and the ledger map stays empty — also captured there, see the test.
_GOLDEN: list[tuple] = [
    (0.5, 5, 0, 8.0, 0.0, 2.0, 40.0, {"a": (0.5, 1, 0, 8.0, 0.0)}),
    (0.75, 3, 1, 7.2, 6.0, 2.0, 31.6, {"a": (0.75, 2, 1, 7.2, 6.0)}),
    (1.0, 3, 2, 6.48, 11.4, 2.0, 25.72, {"a": (1.0, 3, 2, 6.48, 11.4)}),
    (1.0, 2, 3, 5.832000000000001, 16.259999999999998, 2.0, 21.604, {
        "a": (1.0, 4, 3, 5.832000000000001, 16.259999999999998),
    }),
    (0.5, 1, 0, 45.2488, 14.633999999999999, 7.4, 27.122799999999998, {
        "a": (0.5, 5, 4, 5.248800000000001, 14.633999999999999),
        "b": (0.5, 1, 0, 40.0, 0.0),
    }),
    (0.25, 1, 0, 80.72392, 13.170599999999999, 11.18, 30.98596, {
        "a": (0.25, 6, 5, 4.7239200000000015, 13.170599999999999),
        "b": (0.5, 2, 0, 76.0, 0.0),
    }),
    (0.125, 1, 0, 112.65152800000001, 11.853539999999999, 13.826, 33.690172, {
        "a": (0.125, 7, 6, 4.251528000000001, 11.853539999999999),
        "b": (0.25, 3, 0, 108.4, 0.0),
    }),
    (0.0625, 1, 0, 141.38637520000003, 10.668185999999999, 15.6782, 35.5831204, {
        "a": (0.0625, 8, 7, 3.826375200000001, 10.668185999999999),
        "b": (0.125, 4, 0, 137.56, 0.0),
    }),
    (0.03125, 1, 0, 167.24773768000003, 9.601367399999999, 16.974739999999997, 36.90818428, {
        "a": (0.03125, 9, 8, 3.4437376800000012, 9.601367399999999),
        "b": (0.0625, 5, 0, 163.804, 0.0),
    }),
    (0.03125, 1, 1, 150.52296391200002, 8.64123066, 16.974739999999997, 34.835728996, {
        "a": (0.015625, 10, 9, 3.099363912000001, 8.64123066),
        "b": (0.0625, 6, 1, 147.4236, 0.0),
    }),
    (0.03125, 1, 2, 135.47066752080002, 7.777107594, 16.974739999999997, 33.3850102972, {
        "a": (0.0, 11, 10, 2.7894275208000012, 7.777107594),
        "b": (0.0625, 7, 2, 132.68124, 0.0),
    }),
    (0.03125, 1, 3, 121.92360076872002, 6.999396834600001, 16.974739999999997, 32.36950720804, {
        "a": (0.0, 12, 11, 2.5104847687200014, 6.999396834600001),
        "b": (0.0625, 8, 3, 119.413116, 0.0),
    }),
    (0.05, 1, 4, 109.73124069184801, 6.29945715114, 16.974739999999997, 31.658655045628, {
        "a": (0.0, 13, 12, 2.2594362918480013, 6.29945715114),
        "b": (0.0625, 9, 4, 107.47180440000001, 0.0),
    }),
    (0.07500000000000001, 1, 5, 98.75811662266321,
     35.669511436026, 16.974739999999997, 25.761058531939597, {
        "a": (0.0, 14, 13, 2.033492662663201, 5.669511436026),
        "b": (0.09375, 10, 5, 96.72462396000002, 30.0),
    }),
    (0.11250000000000002, 1, 6, 88.8823049603969,
     62.1025602924234, 16.974739999999997, 21.632740972357716, {
        "a": (0.0, 15, 14, 1.830143396396881, 5.102560292423401),
        "b": (0.140625, 11, 6, 87.05216156400002, 57.0),
    }),
    (0.16875, 1, 0, 80.99407446435721, 85.89230426318106, 12.182317999999999, 18.742918680650398, {
        "a": (0.0, 16, 15, 1.6471290567571928, 4.59230426318106),
        "b": (0.2109375, 12, 0, 79.34694540760002, 81.30000000000001),
    }),
    (0.084375, 1, 1, 72.89466701792149, 77.30307383686295, 12.182317999999999, 14.620043076455278, {
        "a": (0.0, 17, 16, 1.4824161510814735, 4.1330738368629545),
        "b": (0.10546875, 13, 1, 71.41225086684001, 73.17000000000002),
    }),
    (0.0421875, 1, 2, 65.60520031612934,
     69.57276645317665, 12.182317999999999, 11.734030153518693, {
        "a": (0.0, 18, 17, 1.3341745359733261, 3.719766453176659),
        "b": (0.052734375, 14, 2, 64.27102578015601, 65.85300000000002),
    }),
    (0.05, 1, 3, 59.04468028451641, 62.61548980785899, 12.182317999999999, 17.213821107463083, {
        "a": (0.0, 19, 18, 1.2007570823759937, 3.347789807858993),
        "b": (0.0263671875, 15, 3, 57.84392320214041, 59.26770000000002),
        "c": (0.05, 1, 1, 0.0, 0.0),
    }),
    (0.025, 1, 4, 53.14021225606477, 56.353940827073096, 12.182317999999999, 13.549674775224158, {
        "a": (0.0, 20, 19, 1.0806813741383943, 3.013010827073094),
        "b": (0.01318359375, 16, 4, 52.05953088192637, 53.34093000000002),
        "c": (0.025, 2, 2, 0.0, 0.0),
    }),
    (0.0125, 1, 5, 47.8261910304583, 50.71854674436579, 12.182317999999999, 10.98477234265691, {
        "a": (0.0, 21, 20, 0.9726132367245549, 2.7117097443657845),
        "b": (0.0, 17, 5, 46.853577793733734, 48.00683700000002),
        "c": (0.0125, 3, 3, 0.0, 0.0),
    }),
    (0.0, 1, 6, 43.043571927412465, 45.64669206992921, 12.182317999999999, 9.189340639859836, {
        "a": (0.0, 22, 21, 0.8753519130520995, 2.4405387699292063),
        "b": (0.0, 18, 6, 42.168220014360365, 43.20615330000002),
        "c": (0.0, 4, 4, 0.0, 0.0),
    }),
    (0.05, 1, 0, 44.73921473467122, 41.08202286293629, 8.977622599999998, 18.432538447901884, {
        "a": (0.0, 23, 22, 0.7878167217468895, 2.1964848929362857),
        "b": (0.0, 19, 7, 37.95139801292433, 38.885537970000016),
        "c": (0.0, 5, 0, 6.0, 0.0),
    }),
    (0.07500000000000001, 1, 1, 40.2652932612041,
     45.973820576642666, 8.977622599999998, 16.502776913531317, {
        "a": (0.0, 24, 23, 0.7090350495722006, 1.9768364036426571),
        "b": (0.0, 20, 8, 34.1562582116319, 34.996984173000016),
        "c": (0.07500000000000001, 6, 1, 5.4, 9.0),
    }),
    (0.11250000000000002, 1, 2, 36.23876393508369,
     50.376438518978404, 8.977622599999998, 15.15194383947192, {
        "a": (0.0, 25, 24, 0.6381315446149806, 1.7791527632783914),
        "b": (0.0, 21, 9, 30.74063239046871, 31.497285755700016),
        "c": (0.11250000000000002, 7, 2, 4.86, 17.1),
    }),
    (0.16875, 1, 0, 35.11488754157532, 51.08879466708056, 7.034335819999998, 16.606360687630342, {
        "a": (0.05, 26, 0, 3.0743183901534827, 1.6012374869505523),
        "b": (0.07500000000000001, 22, 10, 27.66656915142184, 29.597557180130014),
        "c": (0.16875, 8, 3, 4.3740000000000006, 19.89),
    }),
    (0.16875, 1, 0, 52.60339878741779, 49.97991520037251, 7.024035073999999, 19.124452481341237, {
        "a": (0.025, 27, 1, 2.7668865511381346, 1.441113738255497),
        "b": (0.07500000000000001, 23, 0, 45.89991223627966, 26.637801462117014),
        "c": (0.25312500000000004, 9, 4, 3.9366000000000008, 21.901),
    }),
    (0.16875, 1, 0, 50.343058908676014, 44.98192368033526, 5.366824551799999, 18.787116736938863, {
        "a": (0.0125, 28, 2, 2.490197896024321, 1.2970023644299473),
        "b": (0.037500000000000006, 24, 1, 41.3099210126517, 23.974021315905315),
        "c": (0.12656250000000002, 10, 5, 3.5429400000000006, 19.7109),
    }),
    (0.16875, 1, 0, 45.308753017808414, 40.483731312301735, 3.756777186259999, 18.787116736938863, {
        "a": (0.0, 29, 3, 2.241178106421889, 1.1673021279869527),
        "b": (0.018750000000000003, 25, 2, 37.17892891138653, 21.576619184314783),
        "c": (0.12656250000000002, 11, 0, 3.1886460000000008, 17.73981),
    }),
    (0.16875, 1, 1, 40.777877716027575, 36.435358181071564, 3.756777186259999, 15.550981715857203, {
        "a": (0.0, 30, 4, 2.0170602957797, 1.0505719151882573),
        "b": (0.0, 26, 3, 33.461036020247874, 19.418957265883304),
        "c": (0.06328125000000001, 12, 1, 2.869781400000001, 15.965829),
    }),
    (0.084375, 1, 0, 69.70008994442482, 32.79182236296441, 5.929744030381999, 22.88568720110004, {
        "a": (0.0, 31, 5, 1.8153542662017301, 0.9455147236694316),
        "b": (0.0, 27, 4, 30.114932418223088, 17.477061539294972),
        "c": (0.031640625000000006, 13, 2, 2.582803260000001, 14.3692461),
        "d": (0.084375, 1, 0, 33.0, 0.0),
    }),
    (0.0421875, 1, 0, 95.73008094998234, 29.51264012666797, 7.450820821267398, 28.019981040770027, {
        "a": (0.0, 32, 6, 1.6338188395815572, 0.8509632513024884),
        "b": (0.0, 28, 5, 27.10343917640078, 15.729355385365475),
        "c": (0.015820312500000003, 14, 3, 2.324522934000001, 12.93232149),
        "d": (0.084375, 2, 0, 62.7, 0.0),
    }),
    (0.02109375, 1, 0, 119.15707285498411,
     26.561376114001174, 8.515574574887179, 31.613986728539018, {
        "a": (0.0, 33, 7, 1.4704369556234014, 0.7658669261722396),
        "b": (0.0, 29, 6, 24.393095258760702, 14.156419846828927),
        "c": (0.0, 15, 4, 2.0920706406000007, 11.639089341),
        "d": (0.0421875, 3, 0, 89.43, 0.0),
    }),
    (0.010546875, 1, 0, 140.2413655694857,
     23.90523850260106, 9.260902202421025, 34.129790709977314, {
        "a": (0.0, 34, 8, 1.3233932600610612, 0.6892802335550157),
        "b": (0.0, 30, 7, 21.953785732884633, 12.740777862146034),
        "c": (0.0, 16, 5, 1.8828635765400006, 10.4751804069),
        "d": (0.02109375, 4, 0, 113.48700000000001, 0.0),
    }),
    (0.0, 1, 1, 126.21722901253715, 21.514714652340952, 9.260902202421025, 25.69085349698412, {
        "a": (0.0, 35, 9, 1.191053934054955, 0.6203522101995141),
        "b": (0.0, 31, 8, 19.75840715959617, 11.466700075931431),
        "c": (0.0, 17, 6, 1.6945772188860007, 9.42766236621),
        "d": (0.010546875, 5, 1, 102.13830000000002, 0.0),
    }),
    (0.0, 1, 2, 113.59550611128343, 19.363243187106857, 9.260902202421025, 19.783597447888884, {
        "a": (0.0, 36, 10, 1.0719485406494595, 0.5583169891795627),
        "b": (0.0, 32, 9, 17.782566443636554, 10.320030068338289),
        "c": (0.0, 18, 7, 1.5251194969974007, 8.484896129589002),
        "d": (0.0, 6, 2, 91.92447000000001, 0.0),
    }),
    (0.0, 1, 3, 102.23595550015509, 17.42691886839617, 9.260902202421025, 22.84851821352222, {
        "a": (0.0, 37, 11, 0.9647536865845137, 0.5024852902616065),
        "b": (0.0, 33, 10, 16.0043097992729, 9.28802706150446),
        "c": (0.0, 19, 8, 1.3726075472976607, 7.636406516630101),
        "d": (0.0, 7, 3, 82.73202300000001, 0.0),
    }),
    (0.05, 1, 4, 92.01235995013958, 15.684226981556554, 9.260902202421025, 24.993962749465553, {
        "a": (0.0, 38, 12, 0.8682783179260624, 0.45223676123544587),
        "b": (0.0, 34, 11, 14.40387881934561, 8.359224355354014),
        "c": (0.0, 20, 9, 1.2353467925678947, 6.872765864967091),
        "d": (0.05, 8, 4, 74.45882070000002, 0.0),
    }),
    (0.07500000000000001, 1, 5, 82.81112395512562,
     64.1158042834009, 9.260902202421025, 21.095773924625888, {
        "a": (0.0, 39, 13, 0.7814504861334561, 0.4070130851119013),
        "b": (0.0, 35, 12, 12.96349093741105, 7.523301919818612),
        "c": (0.0, 21, 10, 1.1118121133111052, 6.185489278470382),
        "d": (0.07500000000000001, 9, 5, 67.01293863000002, 50.0),
    }),
    (0.11250000000000002, 1, 6, 74.53001155961306,
     58.20422385506082, 9.260902202421025, 18.36704174723812, {
        "a": (0.07500000000000001, 40, 14, 0.7033054375201105, 0.8663117766007111),
        "b": (0.0, 36, 13, 11.667141843669945, 6.770971727836751),
        "c": (0.0, 22, 11, 1.0006309019799946, 5.566940350623344),
        "d": (0.037500000000000006, 10, 6, 60.31164476700002, 45.0),
    }),
]

#: ``encode_tuner`` of the final ``per_attribute=True`` tuner at the same commit.
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
    "per_attribute": True,
    "jobs_observed": 40,
    "jobs_since_build": 6,
    "total_build_seconds": 74.53001155961306,
    "total_saved_seconds": 58.20422385506082,
    "build_cost_ema": 9.260902202421025,
    "reader_seconds_ema": 18.36704174723812,
    "ledgers": {
        "a": {
            "offer_rate": 0.07500000000000001,
            "jobs_observed": 40,
            "jobs_since_build": 14,
            "total_build_seconds": 0.7033054375201105,
            "total_saved_seconds": 0.8663117766007111,
        },
        "b": {
            "offer_rate": 0.0,
            "jobs_observed": 36,
            "jobs_since_build": 13,
            "total_build_seconds": 11.667141843669945,
            "total_saved_seconds": 6.770971727836751,
        },
        "c": {
            "offer_rate": 0.0,
            "jobs_observed": 22,
            "jobs_since_build": 11,
            "total_build_seconds": 1.0006309019799946,
            "total_saved_seconds": 5.566940350623344,
        },
        "d": {
            "offer_rate": 0.037500000000000006,
            "jobs_observed": 10,
            "jobs_since_build": 6,
            "total_build_seconds": 60.31164476700002,
            "total_saved_seconds": 45.0,
        },
    },
}


def test_walk_is_the_size_the_golden_was_captured_for():
    assert len(_WALK) == len(_GOLDEN) == 40


def test_per_attribute_trajectory_is_bit_identical_to_the_captured_one():
    states, tuner = _replay(per_attribute=True)
    for job, (state, expected) in enumerate(zip(states, _GOLDEN), start=1):
        assert state == expected, f"job {job}"
    assert encode_tuner(tuner) == _GOLDEN_ENCODED
    # The journal format round-trips the state the walk reached.
    assert encode_tuner(decode_tuner(_GOLDEN_ENCODED)) == _GOLDEN_ENCODED


def test_global_trajectory_is_the_same_with_the_ledger_split_off():
    states, tuner = _replay(per_attribute=False)
    for job, (state, expected) in enumerate(zip(states, _GOLDEN), start=1):
        assert state == expected[:-1] + ({},), f"job {job}"
    assert encode_tuner(tuner) == {**_GOLDEN_ENCODED, "per_attribute": False, "ledgers": {}}


def test_walk_visits_every_branch_of_the_law():
    """The captured states themselves show the branches (so an edited walk cannot go blind)."""
    rates = [state[0] for state in _GOLDEN]
    build_free = [state[2] for state in _GOLDEN]
    ledgers = [state[-1] for state in _GOLDEN]
    assert rates[:4] == [0.5, 0.75, 1.0, 1.0]  # grace hold, raise, raise, cap
    assert rates[4:9] == [0.5, 0.25, 0.125, 0.0625, 0.03125]  # unpaid decay
    assert rates[9:13] == [0.03125] * 3 + [0.05] and build_free[12] == 4  # delayed probe
    assert rates[17] < 0.05 == rates[18] and build_free[18] == 3  # immediate probe
    assert rates[19:22] == [0.025, 0.0125, 0.0]  # idle decay through the floor
    assert "b" not in ledgers[3] and "b" in ledgers[4]  # appears mid-sequence
    assert ledgers[10]["a"][0] == 0.0 < rates[10]  # an idle attribute dies on its own
    assert ledgers[26]["c"][0] > ledgers[25]["c"][0] and rates[26] == rates[25]
    # d's own ledger: held through its grace period, then unpaid, then probed at the cooldown.
    assert [ledgers[job]["d"][0] for job in (30, 31, 32)] == [0.084375, 0.084375, 0.0421875]
    assert [ledgers[job]["d"][:3:2] for job in (36, 37)] == [(0.0, 3), (0.05, 4)]
