"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import itertools
import time
from contextlib import contextmanager
from random import Random

import networkx as nx
import pytest

from qkdnet import parse_scenario
from qkdnet.cli import main
from qkdnet.harness import Engine
from qkdnet.links import qualifies_for_deployment
from qkdnet.model import DeviceProfile, building_block_preset, vienna_preset
from qkdnet.planner import (
    PlannerParams,
    optimal_link_length,
    relaxed_optimum_km,
    scaling_table,
)
from qkdnet.q3p import AUTH_RESERVE_DEFAULT, Channel, Q3PLink, Q3PMessage, TagMismatch, _poly_tag
from qkdnet.routing import LinkStateAd, LinkStateDB, disjoint_paths
from qkdnet.scenarios import DOS_RECOVERY, FAILOVER
from qkdnet.transport import DeliveryStatus, aggregate_rate


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s > {budget_s}s"
    print(f"ACCEPTANCE {number} [{title}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_scaling_claim():
    with criterion(1, "quadratic vs linear link scaling", 1.0):
        assert scaling_table([5, 100]) == [(5, 10, 5), (100, 4950, 100)]


def test_criterion_2_building_block_multipath():
    with criterion(2, "three disjoint routes and series-parallel rate", 1.0):
        topo = building_block_preset()
        db = LinkStateDB(topo)
        for link in topo.links:
            for origin in (link.a, link.b):
                db.update(LinkStateAd(link.id, origin, 1, True, 131072,
                                      topo.profile_of(link).r0_bps))
        paths = disjoint_paths(db, "alice", "bob", 3)
        assert [p.links for p in paths] == [
            ("LA", "L5", "LB"),
            ("LA", "L1", "L2", "LB"),
            ("LA", "L3", "L4", "LB"),
        ]
        # brute force over all simple paths: no larger interior-disjoint set
        g = nx.Graph()
        for link in topo.links:
            g.add_edge(link.a, link.b)
        simple = list(nx.all_simple_paths(g, "alice", "bob"))
        best = 0
        for r in range(1, len(simple) + 1):
            for combo in itertools.combinations(simple, r):
                interiors = [set(p) - {"alice", "bob", "QA", "QB"} for p in combo]
                if all(not (interiors[i] & interiors[j])
                       for i in range(r) for j in range(i + 1, r)):
                    best = max(best, r)
        assert best == 3
        assert len(disjoint_paths(db, "alice", "bob", 5)) == 3
        # series-parallel hand computation: access links cap the 3R core
        assert aggregate_rate(db, "QA", "QB", 3) == 3 * 8000.0
        assert aggregate_rate(db, "alice", "bob", 3) == min(6000.0, 3 * 8000.0, 7000.0)


def test_criterion_3_failover_mid_delivery():
    with criterion(3, "delivery survives a mid-flight link cut", 10.0):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(FAILOVER))
        on_cut = []   # arrival times of segments that crossed SIE-ERD
        for agent in eng.agents.values():
            def watch(link_id, payload, route, _original=agent._on_segment):
                if link_id == "SIE-ERD":
                    on_cut.append(eng.now)
                _original(link_id, payload, route)

            agent._on_segment = watch
        rep = eng.run()
        (rec,) = rep.records
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src  # bit-exact end to end
        (fail_t,) = [t for t, l, e in rep.link_events if e == "fail" and l == "SIE-ERD"]
        assert any(t <= fail_t for t in on_cut), "cut happened before delivery began"
        assert all(t <= fail_t for t in on_cut), "segment crossed the failed link"


def test_criterion_4_dos_drain_and_restore():
    with criterion(4, "DoS drain, unusable marking, refill over alternates", 10.0):
        topo = vienna_preset()
        eng = Engine(topo, parse_scenario(DOS_RECOVERY))
        rep = eng.run()
        stats = rep.link_stats["SIE-ERD"]
        assert stats["min_level_seen"] <= AUTH_RESERVE_DEFAULT
        events = [(l, e) for _, l, e in rep.link_events]
        assert ("SIE-ERD", "unusable") in events
        (rec,) = rep.records
        assert rec.status is DeliveryStatus.DELIVERED
        assert "SIE-ERD" not in rec.per_link_consumed  # refilled via other links
        a, b = eng.links["SIE-ERD"].q3p.stores
        assert a.available_bytes >= 8192 and b.available_bytes >= 8192
        assert a.stream is b.stream is eng.links["SIE-ERD"].q3p.stream
        assert a.appended_bytes == b.appended_bytes


def test_criterion_5_deployment_gate():
    with criterion(5, "1 kbit/s at 25 km and 1 minute restart gate", 1.0):
        fast = DeviceProfile("fast", 10000, 0.2, 100, 30)
        slow = DeviceProfile("slow", 2000, 0.2, 100, 30)
        laggard = DeviceProfile("laggard", 10000, 0.2, 100, 90)
        assert qualifies_for_deployment(fast)          # 3162 bps > 1000
        assert not qualifies_for_deployment(slow)      # 632 bps < 1000
        assert not qualifies_for_deployment(laggard)   # restart 90 s > 60 s


def test_criterion_6_optimal_link_length():
    with criterion(6, "cost-optimal link length", 5.0):
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
            scan = optimal_link_length(PlannerParams(alpha_db_per_km=alpha))
            assert abs(scan - relaxed_optimum_km(alpha)) <= 0.0101, alpha
        at_02 = relaxed_optimum_km(0.2)
        assert at_02 == pytest.approx(21.72, abs=0.01)
        assert 15.0 <= at_02 <= 30.0  # the "around 25 km" band
        integer = optimal_link_length(
            PlannerParams(alpha_db_per_km=0.2, total_distance_km=100.0),
            integer_devices=True,
        )
        assert integer == 25.0


def _random_scenario_text(i: int) -> str:
    rng = Random(10_000 + i)
    lines = [f"[scenario] duration=6 seed={i} loss={rng.uniform(0, 0.2):.4f}"]
    core = ["SIE-ERD", "ERD-GUD", "GUD-BREIT", "BREIT-SIE", "SIE-GUD", "ERD-BREIT"]
    if rng.random() < 0.5:
        victim = rng.choice(core)
        t_fail = rng.uniform(0.5, 3.0)
        lines.append(f"[event] t={t_fail:.2f} kind=fail link={victim}")
        if rng.random() < 0.5:
            lines.append(f"[event] t={t_fail + rng.uniform(0.5, 2.0):.2f} "
                         f"kind=restore link={victim}")
    if rng.random() < 0.3:
        lines.append(f"[event] t={rng.uniform(0.5, 2.0):.2f} kind=dos "
                     f"link={rng.choice(core)} rate={rng.randint(5000, 40000)} "
                     f"duration={rng.uniform(0.5, 2.0):.2f}")
    if rng.random() < 0.3:
        lines.append(f"[event] t={rng.uniform(3.0, 5.0):.2f} kind=refill "
                     f"link={rng.choice(core)} bytes={rng.randint(1024, 8192)} k=2")
    endpoints = ["alice", "bob", "SIE", "GUD", "BREIT", "STP"]
    for _ in range(rng.randint(1, 2)):
        src, dst = rng.sample(endpoints, 2)
        lines.append(
            f"[event] t={rng.uniform(0.3, 2.5):.2f} kind=request src={src} dst={dst} "
            f"bytes={rng.randint(512, 6144)} k={rng.randint(1, 3)}"
        )
    return "\n".join(lines) + "\n"


def test_criterion_7_otp_discipline_randomized():
    with criterion(7, "no key reuse across 100 randomized runs", 120.0):
        topo = vienna_preset()
        delivered = 0
        for i in range(100):
            eng = Engine(topo, parse_scenario(_random_scenario_text(i)))
            rep = eng.run()
            for link_id, lrt in eng.links.items():
                for store in lrt.q3p.stores:
                    # ledger exclusivity per pool, re-derived from the spans
                    spans = sorted(rec.ranges for rec in store.ledger)
                    for (p1, s1, e1), (p2, s2, e2) in zip(spans, spans[1:]):
                        assert p1 != p2 or e1 <= s2, f"run {i}: overlapping key use on {link_id}"
                    # accounting exactness
                    assert store.appended_bytes == (
                        lrt.spec.preshared_bytes
                        + lrt.runtime.produced_bytes_total
                        + lrt.refilled_bytes
                    ), f"run {i}: {link_id}"
                    assert store.available_bytes == (
                        store.appended_bytes - store.ledgered_bytes
                    ), f"run {i}: {link_id}"
            for rec in rep.records:
                if rec.status is DeliveryStatus.DELIVERED:
                    delivered += 1
                    assert rec.secret_at_dst == rec.secret_at_src, f"run {i}"
        assert delivered > 50  # the suite actually exercised deliveries


def test_criterion_8_deterministic_outputs(tmp_path):
    with criterion(8, "byte-identical reruns", 30.0):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(["run", "--preset", "vienna", "--scenario", "baseline",
                         "--seed", "42", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("metrics.csv", "summary.json", "audit.log"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_criterion_9_authentication_soundness():
    with criterion(9, "10^4 single-bit forgeries all rejected", 30.0):
        rng = Random(77)
        accepted = 0
        for trial in range(10_000):
            key = rng.randbytes(32)
            payload = rng.randbytes(rng.randrange(1, 200))
            span = (0, trial, trial + len(payload) + 32)
            frame = Q3PMessage(0, Channel.TRANSPORT, payload, None, span).header_bytes() + payload
            tag = _poly_tag(key, frame)
            blob = bytearray(frame + tag)
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            f_frame, f_tag = bytes(blob[:-16]), bytes(blob[-16:])
            if _poly_tag(key, f_frame) == f_tag:
                accepted += 1
        assert accepted == 0
        # and through the full seal/open path
        link = Q3PLink("L", auth_reserve=0)
        link.push(Random(3).randbytes(131072))
        rejected = 0
        for trial in range(100):
            msg = link.seal(0, Channel.TRANSPORT, Random(trial).randbytes(50))
            tampered = bytearray(msg.payload)
            bit = trial % (len(tampered) * 8)
            tampered[bit // 8] ^= 1 << (bit % 8)
            msg.payload = bytes(tampered)
            try:
                link.open(1, msg)
            except TagMismatch:
                rejected += 1
        assert rejected == 100
