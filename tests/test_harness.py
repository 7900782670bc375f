"""Event engine: scenario parsing, determinism, conservation, drains,
flooding convergence, event ordering."""

import dataclasses
import importlib.util
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from invariants import check_run
from keyref import derived_pool

from qkdnet import harness, parse_scenario, q3p, routing, scenarios
from qkdnet.harness import (
    PRODUCE_TICK_S,
    SUMMARY_S,
    Engine,
    Event,
    EventKind,
    NodeAgent,
    Scenario,
    ScenarioError,
    TimeTravel,
    sub_seed,
)
from qkdnet.links import LinkRuntime, LinkState, key_rate
from qkdnet.model import PRESETS, load_topology, preset, vienna_preset
from qkdnet.q3p import (
    AUTH_KEY_BYTES,
    AUTH_RESERVE_DEFAULT,
    CHUNK_BYTES,
    Channel,
    Purpose,
    Q3PLink,
)
from qkdnet.scenarios import BASELINE, DOS_RECOVERY
from qkdnet.transport import LOW_WATER_FACTOR, RETRY_TIMEOUT_S, DeliveryStatus, encode_ack

RING4 = """
[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30
[node] name=N1 kind=qbb
[node] name=N2 kind=qbb
[node] name=N3 kind=qbb
[node] name=N4 kind=qbb
[link] id=R12 a=N1 b=N2 km=10 profile=p class=qbb preshared=131072
[link] id=R23 a=N2 b=N3 km=10 profile=p class=qbb preshared=131072
[link] id=R34 a=N3 b=N4 km=10 profile=p class=qbb preshared=131072
[link] id=R41 a=N4 b=N1 km=10 profile=p class=qbb preshared=131072
"""


class TestScenarioParsing:
    def test_full_grammar(self):
        sc = parse_scenario(
            "# comment\n"
            "[scenario] duration=10 seed=7 loss=0.05 jitter_ms=2\n"
            "[loss] link=R12 p=0.2\n"
            "[event] t=1 kind=request src=N1 dst=N3 bytes=1024 k=2 deadline=5\n"
            "[event] t=2 kind=fail link=R12\n"
            "[event] t=3 kind=restore link=R12\n"
            "[event] t=4 kind=dos link=R23 rate=1000 duration=1\n"
            "[event] t=5 kind=daywindow start=5 end=6\n"
            "[event] t=6 kind=refill link=R12 bytes=4096\n"
            "[event] t=7 kind=request src=N2 dst=N4 bytes=64\n"
            "[event] t=8 kind=refill link=R23 bytes=512 k=3\n"
        )
        assert sc.duration_s == 10 and sc.seed == 7 and sc.jitter_ms == 2
        assert sc.loss_for("R12") == 0.2 and sc.loss_for("R34") == 0.05
        # each kind's renames, conversions and defaults
        assert [(ev.time_s, ev.kind, ev.payload) for ev in sc.events] == [
            (1.0, EventKind.KEY_REQUEST, {"src": "N1", "dst": "N3", "n_bytes": 1024,
                                          "multipath": 2, "deadline_s": 5.0}),
            (2.0, EventKind.LINK_FAIL, {"link": "R12"}),
            (3.0, EventKind.LINK_RESTORE, {"link": "R12"}),
            (4.0, EventKind.DOS_DRAIN, {"link": "R23", "rate_bytes_per_s": 1000.0,
                                        "duration_s": 1.0}),
            (5.0, EventKind.DAY_WINDOW, {"start": 5.0, "end": 6.0}),
            (6.0, EventKind.REFILL, {"link": "R12", "n_bytes": 4096, "multipath": 2}),
            (7.0, EventKind.KEY_REQUEST, {"src": "N2", "dst": "N4", "n_bytes": 64,
                                          "multipath": 1, "deadline_s": None}),
            (8.0, EventKind.REFILL, {"link": "R23", "n_bytes": 512, "multipath": 3}),
        ]
        assert all(type(ev.payload[key]) is int for ev in sc.events
                   for key in ("n_bytes", "multipath") if key in ev.payload)
        assert type(sc.seed) is int

    def test_missing_duration_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[event] t=1 kind=fail link=x\n")

    def test_event_outside_duration_rejected(self):
        # parsing checks only the grammar; the engine refuses the value
        sc = parse_scenario("[scenario] duration=5\n[event] t=9 kind=fail link=SIE-ERD\n")
        with pytest.raises(ScenarioError, match=r"outside \[0, 5"):
            Engine(vienna_preset(), sc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[scenario] duration=5\n[event] t=1 kind=warp link=x\n")

    def test_missing_event_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[scenario] duration=5\n[event] t=1 kind=dos link=x\n")

    def test_inverted_daywindow_rejected(self):
        sc = parse_scenario("[scenario] duration=9\n[event] t=0 kind=daywindow start=5 end=3\n")
        with pytest.raises(ScenarioError, match="0 <= start <= end"):
            Engine(vienna_preset(), sc)

    def test_harness_scenario_names_are_the_scenario_modules(self):
        # bench/child.py counts submitted requests by identity against
        # qkdnet.harness.EventKind; a second class would count none
        for name in ("EventKind", "Event", "Scenario", "ScenarioError"):
            assert getattr(harness, name) is getattr(scenarios, name), name

    def test_engine_rejects_unknown_references(self):
        topo = vienna_preset()
        scenarios = [parse_scenario(text) for text in (
            "[scenario] duration=2\n[event] t=1 kind=fail link=NOPE\n",
            "[scenario] duration=2\n[event] t=1 kind=request src=alice dst=ghost bytes=64\n",
            "[scenario] duration=2\n[event] t=1 kind=request src=alice dst=alice bytes=64\n",
            "[scenario] duration=2\n[loss] link=NOPE p=0.1\n",
        )]
        # the engine checks a scenario built in code as it checks a parsed
        # one: its duration
        scenarios += [Scenario(duration_s=d) for d in (float("nan"), float("inf"), 0.0, -1.0)]
        # and its events: the time, the daywindow and the deadline
        nan = float("nan")
        fail = {"link": "SIE-ERD"}
        events = [Event(-2.0, EventKind.LINK_FAIL, fail), Event(nan, EventKind.LINK_FAIL, fail),
                  Event(3.0, EventKind.LINK_FAIL, fail)]
        events += [Event(1.0, EventKind.DAY_WINDOW, {"start": start, "end": end})
                   for start, end in ((nan, 1.5), (0.5, nan), (1.5, 0.5), (-1.0, 1.0))]
        events += [Event(1.0, EventKind.KEY_REQUEST, {
                       "src": "alice", "dst": "bob", "n_bytes": 64, "multipath": 1,
                       "deadline_s": deadline})
                   for deadline in (-3.0, 0.0, nan, float("inf"))]
        scenarios += [Scenario(duration_s=2.0, events=[ev]) for ev in events]
        for sc in scenarios:
            with pytest.raises(ScenarioError):
                Engine(topo, sc)


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        topo = vienna_preset()
        sc = parse_scenario(BASELINE)
        r1 = Engine(topo, sc).run()
        r2 = Engine(topo, parse_scenario(BASELINE)).run()
        assert r1.metrics_csv() == r2.metrics_csv()
        assert r1.summary_json() == r2.summary_json()
        assert r1.audit_text() == r2.audit_text()

    def test_different_seed_different_secrets(self):
        topo = vienna_preset()
        ra = Engine(topo, parse_scenario(BASELINE), seed=1).run()
        rb = Engine(topo, parse_scenario(BASELINE), seed=2).run()
        assert ra.records[0].secret_at_src != rb.records[0].secret_at_src

    def test_sub_seed_stability(self):
        assert sub_seed(42, "link:L1") == sub_seed(42, "link:L1")
        assert sub_seed(42, "link:L1") != sub_seed(42, "link:L2")
        assert sub_seed(42, "link:L1") != sub_seed(43, "link:L1")

    def test_jitter_and_loss_stay_deterministic(self):
        topo = vienna_preset()
        text = (
            "[scenario] duration=6 seed=3 loss=0.1 jitter_ms=4\n"
            "[event] t=1 kind=request src=alice dst=bob bytes=8192 k=2\n"
        )
        r1 = Engine(topo, parse_scenario(text)).run()
        r2 = Engine(topo, parse_scenario(text)).run()
        assert r1.summary_json() == r2.summary_json()
        assert r1.metrics_csv() == r2.metrics_csv()


class TestConservation:
    def test_empty_scenario_growth_matches_rate(self):
        # 10.5 s: the t=10 database summaries settle before the end, so the
        # run finishes with nothing in flight and mirrored levels equal
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario("[scenario] duration=10.5 seed=1\n"))
        eng.run()
        for link_id, lrt in eng.links.items():
            rate = key_rate(lrt.runtime.profile, lrt.spec.length_km)
            expected_bytes = rate * 10.5 / 8
            assert abs(lrt.runtime.produced_bytes_total - expected_bytes) <= 1.0, link_id
            a, b = lrt.q3p.stores
            assert a.available_bytes == b.available_bytes
            for store in (a, b):
                assert store.appended_bytes == lrt.spec.preshared_bytes + lrt.runtime.produced_bytes_total
                assert store.appended_bytes - store.ledgered_bytes == store.available_bytes

    def test_conservation_holds_at_every_sample(self):
        # level never exceeds what production alone could explain
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(BASELINE))
        rep = eng.run()
        for t, link_id, level, rate in rep.samples:
            lrt = eng.links[link_id]
            max_possible = lrt.spec.preshared_bytes + key_rate(
                lrt.runtime.profile, lrt.spec.length_km) * t / 8 + 1
            assert level <= max_possible


class TestDosDrain:
    def test_drain_reaches_floor_and_marks_unusable(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(DOS_RECOVERY))
        rep = eng.run()
        assert rep.link_stats["SIE-ERD"]["min_level_seen"] <= 4096
        events = [(l, e) for _, l, e in rep.link_events]
        assert ("SIE-ERD", "unusable") in events
        assert ("SIE-ERD", "usable") in events
        # refill rebuilt the pre-shared secret identically at both ends
        assert rep.link_stats["SIE-ERD"]["available_a"] >= 8192
        assert rep.link_stats["SIE-ERD"]["available_a"] == rep.link_stats["SIE-ERD"]["available_b"]

    def test_drain_is_mirrored_and_ledgered(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=3 seed=2\n"
            "[event] t=1 kind=dos link=GUD-BREIT rate=10000 duration=1.0\n"
        ))
        eng.run()
        a, b = eng.links["GUD-BREIT"].q3p.stores
        assert a.available_bytes == b.available_bytes
        # each end ledgers the drain of its own pool
        drained = sum(r.n_bytes for s in (a, b) for r in s.ledger
                      if r.purpose.value == "authenticate")
        assert drained >= 10000  # 1 s at 10 kB/s, minus only tick rounding


class TestDayWindows:
    def test_night_only_link_pauses_during_daytime(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=8 seed=2\n"
            "[event] t=0 kind=daywindow start=2 end=5\n"
        ))
        rep = eng.run()
        by_time = {(t, l): rate for t, l, _, rate in rep.samples}
        assert by_time[(3.0, "SIE-alice")] == 0.0    # free-space, night-only
        assert by_time[(6.0, "SIE-alice")] > 0.0
        assert by_time[(3.0, "SIE-ERD")] > 0.0       # fiber unaffected

    def test_daytime_halts_production_not_consumption(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=6 seed=2\n"
            "[event] t=0 kind=daywindow start=0 end=6\n"
        ))
        eng.run()
        lrt = eng.links["SIE-alice"]
        assert lrt.runtime.produced_bytes_total == 0


class TestEventOrdering:
    def test_inject_into_past_is_time_travel(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario("[scenario] duration=2\n"))
        eng.now = 1.0
        with pytest.raises(TimeTravel):
            eng.inject(Event(0.5, EventKind.LINK_FAIL, {"link": "SIE-ERD"}))

    @pytest.mark.parametrize("event", [
        Event(float("nan"), EventKind.LINK_FAIL, {"link": "SIE-ERD"}),
        Event(3.0, EventKind.LINK_FAIL, {"link": "SIE-ERD"}),            # past the end
        Event(1.0, EventKind.LINK_FAIL, {"link": "NOPE"}),
        Event(1.0, EventKind.KEY_REQUEST, {"src": "alice", "dst": "ghost", "n_bytes": 64,
                                           "multipath": 1}),
        Event(1.0, EventKind.DOS_DRAIN, {"link": "SIE-ERD", "rate_bytes_per_s": -1.0,
                                         "duration_s": 1.0}),
        Event(1.0, EventKind.DAY_WINDOW, {"start": 1.5, "end": 0.5}),
        Event(1.0, EventKind.REFILL, {"link": "SIE-ERD"}),               # no size
        Event(1.0, EventKind.LINK_FAIL, {}),                             # no link
        Event(1.0, EventKind.TIMER, {"node": "SIE"}),                    # the engine's own
    ], ids=["nan", "after-end", "unknown-link", "unknown-node", "negative-dos",
            "inverted-daywindow", "missing-key", "missing-link", "engine-kind"])
    def test_inject_refuses_what_a_scenario_refuses(self, event):
        eng = Engine(vienna_preset(), parse_scenario("[scenario] duration=2 seed=1\n"))
        with pytest.raises(ScenarioError):
            eng.inject(event)
        rep = eng.run()
        assert [e for _, _, e in rep.link_events if e in ("fail", "dos_start")] == []

    def test_injected_daywindow_runs_as_a_scenario_daywindow(self):
        head = "[scenario] duration=6 seed=2\n"
        window = parse_scenario(head + "[event] t=1 kind=daywindow start=2 end=5\n")
        expected = Engine(vienna_preset(), window).run()
        eng = Engine(vienna_preset(), parse_scenario(head))
        eng.inject(window.events[0])
        rep = eng.run()
        assert rep.metrics_csv() == expected.metrics_csv()
        assert rep.summary_json() == expected.summary_json()

    def test_injected_daywindow_starting_in_the_past_is_time_travel(self):
        eng = Engine(vienna_preset(), parse_scenario("[scenario] duration=6\n"))
        eng.now = 3.0
        with pytest.raises(TimeTravel):
            eng.inject(Event(3.0, EventKind.DAY_WINDOW, {"start": 2.0, "end": 5.0}))

    def test_same_time_events_run_in_insertion_order(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario("[scenario] duration=2\n"))
        eng.inject(Event(1.0, EventKind.LINK_FAIL, {"link": "SIE-ERD"}))
        eng.inject(Event(1.0, EventKind.LINK_RESTORE, {"link": "SIE-ERD"}))
        rep = eng.run()
        order = [e for t, l, e in rep.link_events
                 if l == "SIE-ERD" and t == 1.0 and e in ("fail", "restore")]
        assert order == ["fail", "restore"]

    def test_restore_of_a_link_that_is_not_down_changes_nothing(self):
        # a restore of the working SIE-ERD, and a second restore of ERD-bob
        # while it restarts (5 s, from t=3), give the run that has neither
        events = ("[scenario] duration=12 seed=1\n"
                  "[event] t=2 kind=fail link=ERD-bob\n"
                  "[event] t=3 kind=restore link=ERD-bob\n"
                  "[event] t=9 kind=request src=alice dst=bob bytes=4096 k=1\n")
        extra = ("[event] t=1 kind=restore link=SIE-ERD\n"
                 "[event] t=5 kind=restore link=ERD-bob\n")
        plain = Engine(vienna_preset(), parse_scenario(events)).run()
        rep = Engine(vienna_preset(), parse_scenario(events + extra)).run()
        assert not any(link == "SIE-ERD" for _, link, _ in rep.link_events)
        assert (8.0, "ERD-bob", "up") in rep.link_events
        assert rep.summary_json() == plain.summary_json()
        assert rep.metrics_csv() == plain.metrics_csv()

    def test_events_never_run_out_of_time_order(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=5 seed=1 loss=0.05\n"
            "[event] t=1 kind=request src=alice dst=bob bytes=8192 k=2\n"
            "[event] t=1.2 kind=fail link=SIE-ERD\n"
        ))
        times = []
        original = eng._dispatch

        def watch(event):
            times.append(eng.now)
            original(event)

        eng._dispatch = watch
        eng.run()
        assert times == sorted(times)

    def test_tick_runs_before_other_events_at_its_time(self):
        eng = Engine(vienna_preset(), parse_scenario(
            "[scenario] duration=2 seed=1\n[event] t=1 kind=fail link=SIE-ERD\n"
        ))
        kinds = []
        original = eng._dispatch

        def watch(event):
            if eng.now == 1.0:
                kinds.append(event.kind)
            original(event)

        eng._dispatch = watch
        eng.run()
        assert kinds == [EventKind.PRODUCE_TICK, EventKind.LINK_FAIL]

    def test_queue_at_start_does_not_grow_with_duration(self):
        # one production tick is queued at a time, not all of them up front
        class Started(Exception):
            pass

        def queued_at_start(duration):
            eng = Engine(vienna_preset(), parse_scenario(f"[scenario] duration={duration} seed=1\n"))

            def first(event):
                raise Started(len(eng._queue))

            eng._dispatch = first
            with pytest.raises(Started) as started:
                eng.run()
            return started.value.args[0]

        assert queued_at_start(60) == queued_at_start(600)

    def test_injected_fail_takes_effect_at_exact_time(self):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=3 seed=1\n[event] t=1.5 kind=fail link=BREIT-STP\n"
        ))
        rep = eng.run()
        fails = [t for t, l, e in rep.link_events if e == "fail" and l == "BREIT-STP"]
        assert fails == [1.5]
        rates = {(t, l): rate for t, l, _, rate in rep.samples}
        assert rates[(1.0, "BREIT-STP")] > 0
        assert rates[(2.0, "BREIT-STP")] == 0.0


def _idle_grid(n: int) -> str:
    """n x n backbone grid of 10 kbit/s-class links, 12-25 km long, with
    node names that stay distinct at any size."""
    rng = Random(f"grid:{n}")
    lines = ["[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30"]
    lines += [f"[node] name=N{r}_{c} kind=qbb" for r in range(n) for c in range(n)]
    for r in range(n):
        for c in range(n):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < n and cc < n:
                    lines.append(f"[link] id=N{r}_{c}-N{rr}_{cc} a=N{r}_{c} b=N{rr}_{cc} "
                                 f"km={rng.uniform(12, 25):.1f} profile=p class=qbb "
                                 f"preshared=131072")
    return "\n".join(lines) + "\n"


def _held(db):
    """(link, origin) -> (seq, up, level, rate) of every advertisement a
    database holds."""
    return {(link_id, origin): (ad.seq, ad.up, ad.level_bytes, ad.rate_bps)
            for link_id, both in db.ads.items() for origin, ad in both.items()}


def _count_decodes(monkeypatch) -> list:
    """Wrap ``routing.decode_lsa``; returns the list of payloads it decodes."""
    decoded, decode = [], routing.decode_lsa
    monkeypatch.setattr(routing, "decode_lsa",
                        lambda *args: decoded.append(args[0]) or decode(*args))
    return decoded


class TestFloodingIntegration:
    def test_no_summary_round_at_the_runs_last_tick(self):
        # a round at t = duration would arrive after the run ends, where no
        # one opens it: a 20 s run exchanges summaries at t = 10 s only
        eng = Engine(load_topology(RING4), parse_scenario("[scenario] duration=20 seed=1\n"))
        sent = []
        for agent in eng.agents.values():
            agent.send_summary = lambda _send=agent.send_summary: (sent.append(eng.now), _send())
        rep = eng.run()
        assert len(sent) == 4 and {round(t, 9) for t in sent} == {10.0}
        assert rep.msg_counts["lsdb_summaries_sent"] == 8   # each node, both its links

    def test_ring_databases_converge(self):
        topo = load_topology(RING4)
        eng = Engine(topo, parse_scenario("[scenario] duration=2 seed=1\n"))
        eng.run()
        held = [_held(eng.agents[n].db) for n in ("N1", "N2", "N3", "N4")]
        assert all(h == held[0] for h in held)
        assert len(held[0]) == 8  # four links, advertised from both ends

    def test_failure_is_flooded_to_all_nodes(self):
        topo = load_topology(RING4)
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=2 seed=1\n[event] t=1 kind=fail link=R12\n"
        ))
        eng.run()
        for name in ("N1", "N2", "N3", "N4"):
            assert not eng.agents[name].db.usable("R12"), name

    def test_restarting_link_advertises_down_until_up(self):
        topo = load_topology(RING4)
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=8 seed=1\n"
            "[event] t=1 kind=fail link=R12\n"
            "[event] t=2 kind=restore link=R12\n"
        ))
        rep = eng.run()
        # restart latency is 30 s; still down at scenario end
        assert not eng.agents["N3"].db.usable("R12")

    def test_restore_heals_a_cut_before_the_next_summary_period(self):
        # R12 and R34 cut the ring in two; a drain of R23 is then advertised
        # on one side only. Restoring R12 exchanges summaries, so each half
        # learns what the other advertised while cut, long before t=10
        topo = load_topology(RING4)
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=3.5 seed=1\n"
            "[event] t=1 kind=fail link=R12\n"
            "[event] t=1 kind=fail link=R34\n"
            "[event] t=1.5 kind=dos link=R23 rate=60000 duration=1\n"
            "[event] t=3 kind=restore link=R12\n"
        ))
        eng.run()
        held = [_held(eng.agents[n].db) for n in ("N1", "N2", "N3", "N4")]
        assert all(h == held[0] for h in held)
        assert held[0][("R23", "N3")][0] == 2     # the drain's advertisement
        assert held[0][("R34", "N3")][1] is False

    @staticmethod
    def _converged_ring() -> Engine:
        eng = Engine(load_topology(RING4), parse_scenario("[scenario] duration=2 seed=1\n"))
        eng.run()
        return eng

    @staticmethod
    def _summary_to_n1(eng: Engine, summary: bytes,
                       channel: Channel = Channel.LSDB_SUMMARY) -> tuple[list, list]:
        """Seal ``summary`` (or another routing payload, on ``channel``) at
        N2 and hand it to N1 over R12; return the frames N1 sent in reply,
        as (link, channel, payload), and whether each of N1's stores
        reserved key."""
        n1 = eng.agents["N1"]
        sent = []
        eng.send_message = lambda link_id, _, msg, route=(): sent.append(
            (link_id, msg.channel, msg.payload))
        ledgers = [len(store.ledger) for _, _, store in n1._ends.values()]
        msg = eng.links["R12"].q3p.seal(1, channel, summary, encrypt=False)
        n1.on_message("R12", msg, ())
        spent = [len(store.ledger) != n for (_, _, store), n in zip(n1._ends.values(), ledgers)]
        return sent, spent

    def test_summary_equal_to_our_own_sends_nothing(self, monkeypatch):
        eng = self._converged_ring()
        summary = eng.agents["N2"].db.summary()
        assert summary == eng.agents["N1"].db.summary()
        monkeypatch.setattr(harness, "decode_summary", None)   # not even decoded
        sent, spent = self._summary_to_n1(eng, summary)
        assert sent == [] and not any(spent)

    def test_summary_lacking_an_lsa_gets_exactly_that_lsa(self):
        eng = self._converged_ring()
        lsas = list(eng.agents["N2"].db.lsas())
        lacking = lsas[5]
        sent, spent = self._summary_to_n1(
            eng, routing.encode_summary(lsa for lsa in lsas if lsa is not lacking))
        assert sent == [("R12", Channel.ROUTING, routing.encode_lsa(lacking))]
        assert spent == [link.id == "R12" for link in eng.agents["N1"].incident]

    def test_every_node_holds_the_originators_own_advertisement(self, monkeypatch):
        # a drain, a refill and a cut and restore re-originate; the databases
        # converge on the originators' own objects without decoding a frame
        decoded = _count_decodes(monkeypatch)
        eng = Engine(vienna_preset(), parse_scenario(
            DOS_RECOVERY
            + "[event] t=2 kind=fail link=BREIT-STP\n[event] t=2.5 kind=restore link=BREIT-STP\n"
            + "[event] t=3 kind=request src=alice dst=GUD bytes=4096 k=2\n"))
        eng.run()
        held = [(agent.name, lsa) for agent in eng.agents.values() for lsa in agent.db.lsas()]
        assert len(held) == len(eng.agents) * len(eng.instances)
        for name, lsa in held:
            assert lsa is eng.agents[lsa.origin].db.ads[lsa.link_id][lsa.origin], (name, lsa)
        assert max(lsa.seq for _, lsa in held) > 1
        assert decoded == []

    def test_an_older_instance_in_flight_is_decoded_and_refused(self, monkeypatch):
        eng = self._converged_ring()
        n1, n2 = eng.agents["N1"], eng.agents["N2"]
        old = n2.db.ads["R12"]["N2"]
        old_wire = routing.encode_lsa(old)
        n2.originate("R12")            # its frames are queued past the run's end
        new = n2.db.ads["R12"]["N2"]
        new_wire = routing.encode_lsa(new)
        decoded = _count_decodes(monkeypatch)
        sent, _ = self._summary_to_n1(eng, new_wire, Channel.ROUTING)
        assert n1.db.ads["R12"]["N2"] is new and decoded == []
        assert sent == [("R41", Channel.ROUTING, new_wire)]    # flooded on as it came
        sent, _ = self._summary_to_n1(eng, old_wire, Channel.ROUTING)
        assert decoded == [old_wire] and sent == []
        assert n1.db.ads["R12"]["N2"] is new

    def test_an_installed_advertisement_is_frozen(self):
        eng = self._converged_ring()
        held = eng.agents["N3"].db.ads["R12"]["N1"]
        assert held is eng.agents["N1"].db.ads["R12"]["N1"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            held.level_bytes = 0

    @given(
        name=st.sampled_from(sorted(PRESETS)),
        loss=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32),
        outages=st.lists(
            st.tuples(st.integers(0, 20), st.integers(5, 80), st.integers(1, 60)),
            max_size=6,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_databases_converge_after_loss_and_churn(self, name, loss, seed, outages):
        # random fail/restore schedule over [0.5, 8] s that ends with every
        # link restored; then losses stop and two summary periods run
        topo = preset(name)
        links = [link.id for link in topo.links]
        schedule = []
        for i, fail_tenth, outage_tenths in outages:
            fail_t = fail_tenth / 10
            schedule.append((fail_t, "fail", links[i % len(links)]))
            schedule.append((min(8.0, fail_t + outage_tenths / 10), "restore",
                             links[i % len(links)]))
        schedule.sort(key=lambda e: e[0])
        down = set()
        for _, kind, link_id in schedule:
            (down.add if kind == "fail" else down.discard)(link_id)
        schedule += [(8.0, "restore", link_id) for link_id in sorted(down)]
        end = 8.0 + 2 * SUMMARY_S + 0.5
        lines = [f"[scenario] duration={end} seed={seed} loss={loss!r}"]
        lines += [f"[event] t={t} kind={kind} link={link_id}" for t, kind, link_id in schedule]
        eng = Engine(topo, parse_scenario("\n".join(lines) + "\n"))
        lossy = eng._lost
        eng._lost = lambda link_id: eng.now <= 8.0 and lossy(link_id)
        log = _log_originations(eng)
        eng.run()
        originated = Counter((node, link) for _, node, link, *_ in log)
        originated_at = {(node, link): t for t, node, link, *_ in log}
        for origin, agent in eng.agents.items():
            for link in agent.incident:
                latest = agent.db.ads[link.id][origin]
                assert latest.seq == originated[origin, link.id]
                if originated_at[origin, link.id] >= end - 0.5:
                    continue   # may still be on its way
                for other in eng.agents.values():
                    held = other.db.ads[link.id][origin]
                    assert held.seq == latest.seq, (other.name, link.id, origin)

    @pytest.mark.parametrize("n", [4, 8])
    def test_idle_routing_cost_per_link_does_not_grow_with_grid(self, n):
        eng = Engine(load_topology(_idle_grid(n)), parse_scenario("[scenario] duration=30 seed=1\n"))
        marks = {}
        tick = eng._tick

        def watched_tick():
            tick()
            if eng.now in (5.0, 25.0):
                marks[eng.now] = (eng.msg_counts["routing_sent"],
                                  sum(s.ledgered_bytes for l in eng.links.values()
                                      for s in l.q3p.stores))

        eng._tick = watched_tick
        rep = eng.run()
        # the startup flood is over by t=5; from then on no LSA is sent
        assert marks[5.0][0] == rep.msg_counts["routing_sent"]
        assert "flood_skipped_no_key" not in rep.msg_counts
        # over (5, 25] each link direction sends one tagged summary per period;
        # every tag's key is consumed at both ends
        per_link_s = (marks[25.0][1] - marks[5.0][1]) / 2 / len(eng.links) / 20.0
        assert per_link_s == 2 * AUTH_KEY_BYTES / SUMMARY_S


class TestReportShape:
    def test_csv_header_and_rows(self):
        topo = vienna_preset()
        rep = Engine(topo, parse_scenario("[scenario] duration=2 seed=1\n")).run()
        lines = rep.metrics_csv().strip().split("\n")
        assert lines[0] == "time_s,link_id,level_bytes,rate_bps"
        assert len(lines) == 1 + 9 * 3  # nine links, samples at t=0,1,2

    def test_summary_is_valid_json(self):
        import json

        topo = vienna_preset()
        rep = Engine(topo, parse_scenario(BASELINE)).run()
        doc = json.loads(rep.summary_json())
        assert doc["requests"][0]["status"] == "delivered"
        assert doc["requests"][0]["ends_match"] is True
        assert "SIE-ERD" in doc["link_stats"]

    def test_files_are_built_without_a_string_per_piece(self):
        # 400 requests of four fragments along a five-node line of fast
        # links: each fragment is exposed at three relays, more lines than
        # one join batch. Joining every JSON token or audit line at once held
        # about 7x the summary and 4.1x the audit log; batched joins hold
        # about 3.3x and 3x
        topo = ["[profile] id=fast r0_bps=2000000 alpha=0.2 max_km=60 restart_s=30"]
        topo += [f"[node] name=L{i} kind=qbb" for i in range(5)]
        topo += [f"[link] id=L{i}-L{i + 1} a=L{i} b=L{i + 1} km=1 profile=fast class=qbb "
                 "preshared=131072" for i in range(4)]
        lines = ["[scenario] duration=22 seed=1"]
        lines += [f"[event] t={i / 20} kind=request src=L0 dst=L4 bytes=4096 k=1"
                  for i in range(400)]
        rep = Engine(load_topology("\n".join(topo) + "\n"),
                     parse_scenario("\n".join(lines) + "\n")).run()
        assert len(rep.records) == 400
        assert len(rep.exposures) > harness._JOIN_BATCH
        for build, bound in ((rep.summary_json, 5.0), (rep.audit_text, 3.5)):
            tracemalloc.start()
            try:
                text = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / len(text) < bound, build.__name__
        rows = [row.split(",") for row in rep.metrics_csv().splitlines()[1:]]
        assert rep.samples == [(float(t), link_id, int(level), float(rate))
                               for t, link_id, level, rate in rows]
        assert len(rep.samples) == 23 * 4             # t = 0, 1, ..., 22


class TestReordering:
    @given(
        name=st.sampled_from(sorted(PRESETS)),
        jitter_ms=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32),
        requests=st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 6), st.integers(1, 6),
                      st.integers(1, 8192), st.integers(1, 3)),
            min_size=1, max_size=5,
        ),
        dos=st.none() | st.tuples(st.integers(0, 8), st.integers(1, 30)),
    )
    @settings(max_examples=20, deadline=None)
    def test_jitter_keeps_both_ends_in_step(self, name, jitter_ms, seed, requests, dos):
        topo = preset(name)
        nodes = sorted(topo.nodes)
        lines = [f"[scenario] duration=4 seed={seed} jitter_ms={jitter_ms!r}"]
        for tenth, i, step, n_bytes, k in requests:
            src, dst = nodes[i % len(nodes)], nodes[(i + step) % len(nodes)]
            if src != dst:
                lines.append(f"[event] t={tenth / 10} kind=request src={src} dst={dst} "
                             f"bytes={n_bytes} k={k}")
        if dos is not None:
            link, tenth = dos
            lines.append(f"[event] t={tenth / 10} kind=dos "
                         f"link={topo.links[link % len(topo.links)].id} rate=60000 duration=1")
        eng = Engine(topo, parse_scenario("\n".join(lines) + "\n"))
        rep = eng.run()
        assert "replay_drops" not in rep.msg_counts
        for rec in rep.records:
            if rec.status is DeliveryStatus.DELIVERED:
                assert rec.secret_at_dst == rec.secret_at_src
        # the two ends differ only by the key of messages still on the wire
        in_flight = Counter()
        for _, _, ev in eng._queue:
            if ev.kind is EventKind.MSG_ARRIVE:
                in_flight[ev.payload["link"]] += ev.payload["msg"].key_cost_bytes
        for link_id, stats in rep.link_stats.items():
            assert abs(stats["ledgered_a"] - stats["ledgered_b"]) <= in_flight[link_id], link_id


PAIR = """
[profile] id=p r0_bps=80000 alpha=0.2 max_km=60 restart_s=30
[node] name=A kind=qbb
[node] name=B kind=qbb
[link] id=AB a=A b=B km=0 profile=p class=qbb preshared=4096
"""


class TestKeyOnFirstRead:
    def test_stream_holds_only_the_key_it_drew(self):
        # 10,000 ticks produce 10 MB of key and one late 1 KiB request reads
        # a little of it: whatever the preshared size, the stream holds no
        # pushed run and at most two derived chunks per pool, and the key
        # layer's live memory is a few percent of the key produced (the
        # cached chunks, the ledgers)
        for preshared in (4096, 131_072):
            eng = Engine(load_topology(PAIR.replace("preshared=4096", f"preshared={preshared}")),
                         parse_scenario("[scenario] duration=1000 seed=1\n"
                                        "[event] t=999 kind=request src=A dst=B bytes=1024 k=1\n"))
            tracemalloc.start()
            try:
                rep = eng.run()
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            lrt = eng.links["AB"]
            assert rep.records[0].status is DeliveryStatus.DELIVERED
            assert eng.clock.ticks == 10_000
            assert lrt.runtime.produced_bytes_total == 10_000_000        # 1000 B a tick
            stream = lrt.q3p.stream
            assert stream._runs == ([], [])
            assert all(1 <= len(cache) <= 2 for cache in stream._cache)
            assert all(len(chunk) == CHUNK_BYTES for cache in stream._cache
                       for chunk in cache.values())
            held = sum(stat.size for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, q3p.__file__)]).statistics("filename"))
            assert held < 500_000

    def test_preshared_block_is_drawn_on_first_read(self):
        # right after construction no stream has derived a byte: each has
        # its preshared block as its first production, split between the
        # pools as any block is, and a read derives the chunk it covers
        eng = Engine(vienna_preset(), parse_scenario("[scenario] duration=1 seed=1\n"))
        for lrt in eng.links.values():
            stream, n = lrt.q3p.stream, lrt.spec.preshared_bytes
            assert stream._cache == ({}, {}) and stream._runs == ([], [])
            assert stream.lengths == [(n + 1) // 2, n // 2]
        stream = eng.links["SIE-ERD"].q3p.stream
        assert stream.read((1, 0, 8)) == derived_pool(sub_seed(1, "link:SIE-ERD"), 1, 8)
        assert [list(cache) for cache in stream._cache] == [[], [0]]

    def test_refill_follows_production_on_a_link_without_preshared_key(self):
        # a refill lands after all key produced before it, on a link whose
        # stream began with no preshared block
        eng = Engine(load_topology(RING4), parse_scenario("[scenario] duration=1 seed=1\n"))
        lrt = eng.links["R12"]
        lrt.q3p = Q3PLink("R12", auth_reserve=0, seed=3)
        lrt.q3p.stream.produce(10, 0)
        eng._apply_refill("R12", b"\x01" * 8)
        lrt.q3p.stream.produce(4, 0)
        eng._apply_refill("R12", b"\x02" * 8)
        stream = lrt.q3p.stream
        for pool in (0, 1):
            derived = derived_pool(3, pool, 13)
            assert stream.read((pool, 0, 13)) == \
                derived[:5] + b"\x01" * 4 + derived[9:11] + b"\x02" * 2


class TestAcks:
    def test_an_ack_spends_no_key_and_never_passes_q3p(self, monkeypatch):
        # every Q3P message is keyed and tagged; acks travel beside it as
        # bare frames, so the key both ends spend is the sealed messages' spans
        eng = Engine(load_topology(RING4), parse_scenario(
            "[scenario] duration=3 seed=1\n"
            "[event] t=1 kind=request src=N1 dst=N3 bytes=4096 k=2\n"))
        sealed, opened, frames = [], [], []
        seal, open_ = Q3PLink.seal, Q3PLink.open

        def sealing(self, side, channel, payload, *args, **kwargs):
            msg = seal(self, side, channel, payload, *args, **kwargs)
            sealed.append((self.link_id, side, msg.key_cost_bytes))
            return msg

        def opening(self, side, msg):
            opened.append((self.link_id, side, msg))
            return open_(self, side, msg)

        monkeypatch.setattr(Q3PLink, "seal", sealing)
        monkeypatch.setattr(Q3PLink, "open", opening)
        send = eng.send_message

        def sending(link_id, from_node, msg, route=()):
            frames.append(msg)
            return send(link_id, from_node, msg, route)

        eng.send_message = sending
        rep = eng.run()
        assert rep.records[0].status is DeliveryStatus.DELIVERED
        acks = [msg for msg in frames if isinstance(msg, bytes)]
        assert len(acks) == rep.msg_counts["acks_sent"] > 0
        assert len(sealed) == len(frames) - len(acks)
        assert all(not isinstance(msg, bytes) for _, _, msg in opened)
        for link_id, lrt in eng.links.items():
            for side, store in enumerate(lrt.q3p.stores):
                spent = sum(cost for link, s, cost in sealed if (link, s) == (link_id, side))
                assert sum(rec.n_bytes for rec in store.ledger) == spent, (link_id, side)
                spans = {msg.span for link, s, msg in opened if (link, s) == (link_id, side)}
                burned = sum(end - start for _, start, end in spans)
                assert store.ledgered_bytes == spent + burned, (link_id, side)

    def test_malformed_ack_frames_are_ignored(self, monkeypatch):
        eng = Engine(load_topology(RING4), parse_scenario("[scenario] duration=1 seed=1\n"))
        agent = eng.agents["N1"]
        hop = SimpleNamespace(req=SimpleNamespace(record=SimpleNamespace(src="N3")))
        agent._relays[(7, 0)] = hop
        monkeypatch.setattr(Q3PLink, "open", lambda *args: pytest.fail("ack reached open"))
        ack = encode_ack(7, 0)
        for frame in (b"", b"junk", ack[:-1], ack + b"\0", b"\x02" + ack[1:]):
            agent.on_message("R12", frame, ())
        assert agent._relays == {(7, 0): hop}
        assert eng.msg_counts == Counter()
        agent.on_message("R12", ack, ())
        assert agent._relays == {}


class TestAuthenticatedChannels:
    def test_untagged_transport_message_is_a_tag_failure(self, monkeypatch):
        # a transport message whose span is cut to leave out the tag key is
        # counted as a tag failure and never reaches the segment handler
        eng = Engine(load_topology(RING4), parse_scenario("[scenario] duration=1 seed=1\n"))
        reached = []
        monkeypatch.setattr(NodeAgent, "_on_segment",
                            lambda self, link_id, payload, route: reached.append(payload))
        link = eng.links["R12"].q3p
        msg = link.seal(0, Channel.TRANSPORT, b"s" * 40)
        start = msg.span[1]
        msg.span = (0, start, start + 31)
        eng.agents["N2"].on_message("R12", msg, ())
        assert eng.msg_counts["tag_failures"] == 1
        assert reached == []
        assert link.stores[1].consumed_ranges() == [(0, start, start + 31)]


GRID6 = """
[profile] id=p r0_bps=20000 alpha=0.2 max_km=60 restart_s=1.5
[profile] id=fso r0_bps=25000 alpha=1.0 max_km=5 restart_s=1 night_only=true
[profile] id=slow r0_bps=200 alpha=0 max_km=60 restart_s=1
[node] name=A kind=qbb
[node] name=B kind=qbb
[node] name=C kind=qbb
[node] name=D kind=qbb
[node] name=E kind=qbb
[node] name=F kind=qbb
[link] id=AB a=A b=B km=10 profile=p class=qbb preshared=16384
[link] id=BC a=B b=C km=14 profile=p class=qbb preshared=131072
[link] id=DE a=D b=E km=12 profile=p class=qbb preshared=9000
[link] id=EF a=E b=F km=3 profile=fso class=qbb preshared=131072
[link] id=AD a=A b=D km=20 profile=p class=qbb preshared=131072
[link] id=BE a=B b=E km=8 profile=p class=qbb preshared=65536
[link] id=CF a=C b=F km=16 profile=slow class=qbb preshared=4096
"""


def _log_originations(eng: Engine) -> list:
    """Record each origination as (time, node, link, seq, up, level), taken
    as ``originate`` reads them."""
    log = []
    for agent in eng.agents.values():
        def logged(link_id, agent=agent, originate=agent.originate):
            lrt, side, store = agent._ends[link_id]
            held = agent.db.ads.get(link_id, {}).get(agent.name)
            log.append((eng.now, agent.name, link_id, held.seq + 1 if held else 1,
                        lrt.runtime.status.state is LinkState.UP, store.available_bytes))
            originate(link_id)
        agent.originate = logged
    return log


def _last_advertised(log: list) -> dict:
    return {(node, link): (up, level) for _, node, link, _, up, level in log}


def _poll_every_tick(eng: Engine, log: list) -> set:
    """The reference: every link produces at every tick, in link order,
    before the drains, and the tick examines every link; every agent is
    polled on every tick and decides with the origination rule written out,
    not with the engine's bands. Returns the set of ticks at which agents
    were polled, filled as the run goes."""
    floor = AUTH_RESERVE_DEFAULT
    polled = set()
    every_link = list(eng.links.values())
    eng._refresh_eager = lambda: setattr(eng, "_eager", every_link)
    eng._refresh_eager()
    eng._due = lambda ticks: every_link

    def polling_on_tick(agent):
        polled.add(eng.clock.ticks)
        last = _last_advertised(log)
        for link_id, (lrt, _, store) in agent._ends.items():
            up = lrt.runtime.status.state is LinkState.UP
            level = store.available_bytes
            last_up, last_level = last[agent.name, link_id]
            if (up != last_up or (level <= floor) != (last_level <= floor)
                    or abs(level - last_level) >= max(2048, last_level // 4)):
                agent.originate(link_id)

    for agent in eng.agents.values():
        agent.on_tick = lambda agent=agent: polling_on_tick(agent)
    apply_drains = eng._apply_drains

    def drains_then_empty_bands():
        apply_drains()
        for lrt in eng.links.values():   # an empty band: the tick polls the agents
            lrt.advertised[:] = [(False, 0, 0), (False, 0, 0)]
    eng._apply_drains = drains_then_empty_bands
    return polled


def _move_level(lrt, side: int, target: int) -> None:
    """Move both ends of a link by the same amount, so that the end at
    ``side`` reaches ``target`` if the link's key allows: a pushed block
    raises both, as a refill would, and a spend that the other end mirrors
    (as a drain's) lowers both."""
    delta = target - lrt.q3p.stores[side].available_bytes
    if delta > 0:
        lrt.q3p.push(bytes(delta))
        lrt.refilled_bytes += delta      # the key conservation check counts it
    for direction in (0, 1):
        sender, peer = lrt.q3p.stores[direction], lrt.q3p.stores[1 - direction]
        n = min(-delta, sender.pool_available(direction))
        if n > 0:
            peer.reserve_exact(sender.reserve(n, Purpose.AUTHENTICATE))
            delta += n


def _nudge_to_edges(eng: Engine, log: list, nudges: list) -> None:
    """After the drains of the drawn ticks, move one end's level onto, or
    next to, an edge of the origination rule around its last advertised
    level: the hysteresis on either side, or the floor. A nudge may first
    take the end below the floor, one tick earlier, so that its next band
    is a below-floor one."""
    floor = AUTH_RESERVE_DEFAULT
    at_tick = {}
    for tick, link, side, below, edge, offset in nudges:
        if below is not None:
            at_tick.setdefault(tick, []).append((link, side, None, floor - 1 - below))
            tick += 1
        at_tick.setdefault(tick, []).append((link, side, edge, offset))
    links = sorted(eng.links)
    apply_drains = eng._apply_drains

    def drains_then_nudges():
        apply_drains()
        last = _last_advertised(log)
        for link, side, edge, offset in at_tick.get(eng.clock.ticks, ()):
            lrt = eng.links[links[link % len(links)]]
            if edge is None:
                _move_level(lrt, side, offset)
                continue
            last_level = last[(lrt.spec.a, lrt.spec.b)[side], lrt.spec.id][1]
            step = max(2048, last_level // 4)
            target = (last_level - step, last_level + step, floor, floor + 1)[edge] + offset
            if target >= 0:
                _move_level(lrt, side, target)
    eng._apply_drains = drains_then_nudges


class TestGatedTick:
    """The tick polls the agents only when a link end left the band its last
    LSA set, or a link came up; it must originate exactly what polling every
    tick with the origination rule originates."""

    @given(
        name=st.sampled_from(["vienna", "building-block", "grid"]),
        seed=st.integers(0, 2**32),
        loss=st.sampled_from([0.0, 0.02]),
        jitter_ms=st.sampled_from([0.0, 3.0]),
        events=st.lists(st.tuples(
            st.sampled_from(["fail", "dos", "refill", "request", "exchange"]),
            st.integers(0, 59), st.integers(0, 20), st.integers(1, 30),
            st.integers(0, 99),
        ), max_size=6),
        link_loss=st.none() | st.tuples(st.integers(0, 20), st.sampled_from([0.0, 0.05])),
        overrun_ms=st.integers(0, 99),
        daywindow=st.none() | st.tuples(st.integers(0, 30), st.integers(1, 40)),
        nudges=st.lists(st.tuples(
            st.integers(1, 59), st.integers(0, 8), st.integers(0, 1),
            st.none() | st.integers(0, 3000), st.integers(0, 3), st.integers(-1, 1),
        ), max_size=8),
    )
    # A and B exchange 1 KiB each way 3 ms before a tick: each end's open of
    # the other's segment spends key only after that tick, and those spends
    # alone set AB's run minimum
    @example(name="grid", seed=1, loss=0.0, jitter_ms=0.0, events=[("exchange", 2, 0, 2, 97)],
             link_loss=None, overrun_ms=0, daywindow=None, nudges=[])
    @settings(max_examples=40, deadline=None)
    def test_gated_tick_originates_as_polling_every_tick(
            self, name, seed, loss, jitter_ms, events, link_loss, overrun_ms, daywindow,
            nudges):
        # production is lazy and the tick examines only the links that could
        # have changed; the reference produces on every link at every tick and
        # polls every agent. Requests start off the tick grid, so that key is
        # read between ticks, and the run may end off it too
        topo = load_topology(GRID6) if name == "grid" else preset(name)
        links = [link.id for link in topo.links]
        nodes = sorted(topo.nodes)
        duration = 6 + overrun_ms / 1000
        lines = [f"[scenario] duration={duration} seed={seed} loss={loss} "
                 f"jitter_ms={jitter_ms}"]
        if link_loss is not None:
            lines.append(f"[loss] link={links[link_loss[0] % len(links)]} p={link_loss[1]}")
        for kind, tenth, i, size, offgrid_ms in events:
            t = tenth / 10
            link = links[i % len(links)]
            if kind == "fail":
                lines.append(f"[event] t={t} kind=fail link={link}")
                lines.append(f"[event] t={min(6.0, t + size / 20)} kind=restore link={link}")
            elif kind == "dos":
                lines.append(f"[event] t={t} kind=dos link={link} rate={size * 4000} "
                             f"duration={size / 10}")
            elif kind == "refill":
                lines.append(f"[event] t={t} kind=refill link={link} bytes={size * 256}")
            else:   # a request, or an exchange: a request each way at once
                pair = nodes[i % len(nodes)], nodes[(i + 1) % len(nodes)]
                for src, dst in (pair, pair[::-1]) if kind == "exchange" else (pair,):
                    lines.append(f"[event] t={t + offgrid_ms / 1000} kind=request src={src} "
                                 f"dst={dst} bytes={size * 512} k={1 + i % 2}")
        if daywindow is not None:
            start = daywindow[0] / 10
            lines.append(f"[event] t={start} kind=daywindow start={start} "
                         f"end={start + daywindow[1] / 10}")
        scenario = "\n".join(lines) + "\n"

        def run(reference):
            eng = Engine(topo, parse_scenario(scenario))
            log = _log_originations(eng)
            _nudge_to_edges(eng, log, nudges)
            if reference:
                polled = _poll_every_tick(eng, log)
            rep = eng.run()
            check_run(eng, rep)
            if reference:
                # an idle tick's early return must not weaken the reference
                assert polled == set(range(1, eng.clock.ticks + 1))
            return ([entry[:4] + entry[5:] for entry in log],
                    rep.metrics_csv(), rep.summary_json(), rep.audit_text())

        assert run(reference=False) == run(reference=True)

    def test_quiet_run_dispatches_every_tick_and_works_in_few(self):
        # an idle tick still runs, and so still counts in ``clock.ticks``,
        # but returns once the drains are applied, before examining links
        eng = Engine(vienna_preset(), parse_scenario("[scenario] duration=60 seed=1\n"))
        kinds, worked = Counter(), []
        dispatch, due = eng._dispatch, eng._due
        eng._dispatch = lambda event: (kinds.update([event.kind]), dispatch(event))
        eng._due = lambda ticks: (worked.append(ticks), due(ticks))[1]
        eng.run()
        assert kinds[EventKind.PRODUCE_TICK] == eng.clock.ticks == round(60 / PRODUCE_TICK_S)
        # the per-second samples alone need 60 of the 600
        assert 60 <= len(worked) < 0.25 * eng.clock.ticks

    def test_agents_are_polled_in_few_ticks_of_a_steady_run(self, monkeypatch):
        polled_ticks = set()
        on_tick = NodeAgent.on_tick

        def counted(agent):
            polled_ticks.add(agent.engine.clock.ticks)
            on_tick(agent)

        monkeypatch.setattr(NodeAgent, "on_tick", counted)
        lines = ["[scenario] duration=120 seed=1"]
        lines += [f"[event] t={t} kind=request src=SIE dst=GUD bytes=1024 k=1"
                  for t in range(1, 120)]
        eng = Engine(vienna_preset(), parse_scenario("\n".join(lines) + "\n"))
        rep = eng.run()
        assert all(rec.status is DeliveryStatus.DELIVERED for rec in rep.records)
        assert eng.clock.ticks == round(120 / PRODUCE_TICK_S)
        assert 0 < len(polled_ticks) < 0.05 * eng.clock.ticks


class TestWakeTable:
    """A link sits in the wake table only at its current ``wake``, so the
    table never holds more entries than there are links."""

    CHURN = (
        "[scenario] duration=40 seed=3 loss=0.01\n"
        "[event] t=1 kind=dos link=SIE-ERD rate=60000 duration=3\n"
        "[event] t=2 kind=fail link=BREIT-STP\n"
        "[event] t=4 kind=restore link=BREIT-STP\n"
        "[event] t=5 kind=fail link=ERD-GUD\n"
        "[event] t=9 kind=restore link=ERD-GUD\n"
        "[event] t=6 kind=refill link=SIE-ERD bytes=8192 k=2\n"
        + "".join(f"[event] t={t / 2} kind=request src=alice dst=bob bytes=2048 k=2\n"
                  for t in range(2, 76))
    )

    @pytest.mark.parametrize("topology, scenario", [
        ("grid8", "[scenario] duration=30 seed=1\n"),
        ("vienna", CHURN),
    ], ids=["idle-grid8", "vienna-churn"])
    def test_entries_are_live_and_at_most_one_per_link(self, topology, scenario):
        topo = load_topology(_idle_grid(8)) if topology == "grid8" else vienna_preset()
        eng = Engine(topo, parse_scenario(scenario))
        links = eng._link_list
        sizes = []
        tick = eng._tick

        def checked_tick():
            tick()
            ticks = eng.clock.ticks
            for t, due in eng._wakes.items():
                assert due and t > ticks
                assert all(links[i].wake == t for i in due)
            sizes.append(sum(map(len, eng._wakes.values())))

        eng._tick = checked_tick
        eng.run()
        assert len(sizes) == eng.clock.ticks
        assert 0 < max(sizes) <= len(links)


class TestRetryTimers:
    """Retry timers wait in one FIFO with a single TIMER entry in the event
    queue; the run must equal one with an event per timer."""

    def test_fifo_equals_an_event_per_timer_and_queues_one_timer(self):
        runs = []
        for fifo in (True, False):
            eng = Engine(vienna_preset(), parse_scenario(TestWakeTable.CHURN))
            timers = []
            dispatch = eng._dispatch

            def counted(event, eng=eng, timers=timers, fifo=fifo):
                if event.kind is EventKind.TIMER:
                    timers.append(event)
                if fifo:
                    assert sum(e.kind is EventKind.TIMER for _, _, e in eng._queue) <= 1
                dispatch(event)

            eng._dispatch = counted
            if not fifo:
                def per_timer(agent, hop, eng=eng):
                    eng._schedule(Event(eng.now + RETRY_TIMEOUT_S, EventKind.TIMER,
                                        {"agent": agent, "hop": hop}))
                eng.arm_retry = per_timer
                eng._on_timer = lambda p: p["agent"].on_timer(p["hop"])
            rep = eng.run()
            check_run(eng, rep)
            runs.append((rep, len(timers)))
        (fifo_rep, fifo_timers), (ref_rep, ref_timers) = runs
        assert fifo_rep.metrics_csv() == ref_rep.metrics_csv()
        assert fifo_rep.summary_json() == ref_rep.summary_json()
        assert fifo_rep.audit_text() == ref_rep.audit_text()
        assert ref_rep.msg_counts["retransmissions"] > 0
        assert 0 < fifo_timers < ref_timers / 2


class TestLazyProduction:
    def test_production_is_entered_only_for_links_that_are_read(self, monkeypatch):
        # a steady run reads few links per tick: production is brought up to
        # date on those alone, yet every link ends with the bytes it would
        # have produced stepped at every tick
        produce = LinkRuntime.produce
        calls = []

        def counted(runtime, *args):
            calls.append(runtime.spec.id)
            return produce(runtime, *args)

        monkeypatch.setattr(LinkRuntime, "produce", counted)
        lines = ["[scenario] duration=120 seed=1"]
        lines += [f"[event] t={t} kind=request src=SIE dst=GUD bytes=1024 k=1"
                  for t in range(1, 120)]
        eng = Engine(vienna_preset(), parse_scenario("\n".join(lines) + "\n"))
        rep = eng.run()
        assert all(rec.status is DeliveryStatus.DELIVERED for rec in rep.records)
        ticks = round(120 / PRODUCE_TICK_S)
        assert len(calls) < 0.25 * ticks * len(eng.links)
        for link_id, lrt in eng.links.items():
            eager = LinkRuntime(lrt.spec, lrt.runtime.profile)
            expected = sum(produce(eager, PRODUCE_TICK_S) for _ in range(ticks))
            assert lrt.runtime.produced_bytes_total == expected > 0, link_id
            assert rep.link_stats[link_id]["produced_bytes"] == expected, link_id


class TestFinishedRequests:
    def test_a_final_request_holds_no_fragments(self):
        # delivered, partial (bob's only access link is cut while the secret
        # is on its way) and failed (STP cut off before the request) requests
        eng = Engine(vienna_preset(), parse_scenario(
            "[scenario] duration=4 seed=1 loss=0.02\n"
            "[event] t=0.2 kind=fail link=BREIT-STP\n"
            "[event] t=0.5 kind=request src=SIE dst=GUD bytes=8192 k=2\n"
            "[event] t=1.0 kind=request src=SIE dst=bob bytes=65536 k=1\n"
            "[event] t=1.02 kind=fail link=ERD-bob\n"
            "[event] t=1.5 kind=request src=alice dst=STP bytes=1024 k=1\n"))
        rep = eng.run()
        check_run(eng, rep)
        assert [rec.status for rec in rep.records] == [
            DeliveryStatus.DELIVERED, DeliveryStatus.PARTIAL, DeliveryStatus.FAILED]
        for req in eng.requests.values():
            assert req.final and not req.fragments and not req.received
        delivered = rep.records[0]
        assert delivered.secret_at_dst == delivered.secret_at_src
        assert len(delivered.secret_at_dst) == delivered.n_bytes


class _RecordedChannel:
    """A link's channel stream that logs each value it draws, in order."""

    def __init__(self, rng: Random, log: list) -> None:
        self._rng, self._log = rng, log

    def random(self) -> float:
        self._log.append(value := self._rng.random())
        return value

    def uniform(self, a: float, b: float) -> float:
        self._log.append(value := self._rng.uniform(a, b))
        return value


class TestChannelStreams:
    """Each link's frames draw loss and jitter from the link's own stream,
    and only frames that are sent take a draw."""

    def test_lost_counts_only_frames_that_were_sent(self):
        # every frame is lost; distillation frames are never sent
        scenario = parse_scenario("[scenario] duration=3 seed=1 loss=1\n")
        rep = Engine(vienna_preset(), scenario).run()
        counts = rep.msg_counts
        sent = counts.get("routing_sent", 0) + counts.get("lsdb_summaries_sent", 0)
        assert counts["distill"] > 0
        assert counts["lost"] == sent > 0

    def test_traffic_on_one_link_leaves_other_links_draws_unchanged(self):
        # the second run adds a request whose only path is SIE-ERD; every
        # other link must draw the same loss and jitter values, in order
        scenario = "[scenario] duration=12 seed=5 loss=0.05 jitter_ms=2\n"
        extra = "[event] t=2 kind=request src=SIE dst=ERD bytes=1024 k=1\n"
        runs = []
        for text in (scenario, scenario + extra):
            eng = Engine(vienna_preset(), parse_scenario(text))
            draws = {link_id: [] for link_id in eng.links}
            for link_id, lrt in eng.links.items():
                lrt.channel = _RecordedChannel(lrt.channel, draws[link_id])
            log = _log_originations(eng)
            rep = eng.run()
            check_run(eng, rep)
            runs.append((rep, draws, log))
        (_, draws_a, log_a), (rep_b, draws_b, log_b) = runs
        record, = rep_b.records
        assert record.status is DeliveryStatus.DELIVERED
        assert set(record.per_link_consumed) == {"SIE-ERD"}
        # the premise: both runs originate the same LSAs (only SIE-ERD's
        # advertised level may differ), so every other link sends the same
        # frames at the same times
        assert [entry[:5] for entry in log_a] == [entry[:5] for entry in log_b]
        assert ([entry for entry in log_a if entry[2] != "SIE-ERD"]
                == [entry for entry in log_b if entry[2] != "SIE-ERD"])
        assert len(draws_b["SIE-ERD"]) > len(draws_a["SIE-ERD"])
        for link_id in draws_a:
            if link_id != "SIE-ERD":
                assert draws_a[link_id] == draws_b[link_id], link_id
                assert draws_a[link_id], link_id


TRIANGLE = """
[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30
[node] name=A kind=qbb
[node] name=B kind=qbb
[node] name=C kind=qbb
[link] id=AC a=A b=C km=10 profile=p class=qbb preshared=131072
[link] id=AB a=A b=B km=10 profile=p class=qbb preshared=131072
[link] id=BC a=B b=C km=10 profile=p class=qbb preshared=131072
"""

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _spend_direction(lrt, side: int, keep: int) -> None:
    """Spend the pool the end at ``side`` sends from down to ``keep`` bytes,
    opened at the other end as a drain's spends are. The other direction
    keeps what it holds, so the store level at ``side`` stays above the
    sending pool by all of it."""
    sender, peer = lrt.q3p.stores[side], lrt.q3p.stores[1 - side]
    peer.reserve_exact(sender.reserve(sender.pool_available(side) - keep, Purpose.AUTHENTICATE))


class TestSendingLevel:
    """An advertisement carries the key its end can send, its own pool; the
    re-advertise band still watches the end's store level."""

    def test_origination_advertises_the_sending_pool_in_a_band_of_the_store_level(self):
        eng = Engine(load_topology(TRIANGLE), parse_scenario("[scenario] duration=1 seed=1\n"))
        lrt = eng.links["AC"]
        _spend_direction(lrt, 0, 5000)
        for side, name in enumerate(("A", "C")):
            store = lrt.q3p.stores[side]
            sendable, level = store.pool_available(side), store.available_bytes
            eng.agents[name].originate("AC")
            assert eng.agents[name].db.ads["AC"][name].level_bytes == sendable
            up, lo, hi = lrt.advertised[side]
            assert up and (lo, hi) == harness._band(level)
            if name == "A":
                # C's full direction keeps A's store level far above the pool
                assert sendable == 5000 and lo > sendable
        db = eng.agents["A"].db
        db.update(eng.agents["C"].db.ads["AC"]["C"])
        assert db.usable_levels["AC"] == 5000

    def test_a_drained_sending_direction_is_planned_around(self):
        # A's direction of AC holds less than the authentication floor, but
        # A's store level counts C's full direction and stays high
        eng = Engine(load_topology(TRIANGLE), parse_scenario(
            "[scenario] duration=3 seed=1\n"
            "[event] t=0.5 kind=request src=A dst=C bytes=4096 k=1\n"))
        lrt = eng.links["AC"]
        _spend_direction(lrt, 0, 1024)
        assert lrt.q3p.stores[0].available_bytes > LOW_WATER_FACTOR * AUTH_RESERVE_DEFAULT
        rep = eng.run()
        check_run(eng, rep)
        record, = rep.records
        assert record.status is DeliveryStatus.DELIVERED
        assert [path.links for path in record.paths_used] == [("AB", "BC")]
        assert set(record.per_link_consumed) == {"AB", "BC"}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relay_bulk_delivers_every_request(self, seed, monkeypatch):
        # the relay-bulk benchmark's shape for 15 s: a 3x3 grid of 1 Mbit/s
        # links, a 64 KiB k=2 request every 0.5 s, 1% loss
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while the file executes
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        work = workloads.relay_bulk(seed, 15.0)
        eng = Engine(load_topology(work.topology), parse_scenario(work.scenario))
        rep = eng.run()
        assert len(rep.records) == 26
        assert all(rec.status is DeliveryStatus.DELIVERED for rec in rep.records)
        assert "retry_limit_exceeded" not in rep.msg_counts
