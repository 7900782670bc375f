"""Hop-by-hop transport: accounting, multipath split, retransmission with
fresh key, refill of a drained pre-shared secret."""

import hashlib
import tracemalloc

from qkdnet import parse_scenario
from qkdnet.harness import Engine, sub_seed
from qkdnet.model import building_block_preset, load_topology, vienna_preset
from qkdnet.q3p import Channel
from qkdnet.routing import LinkStateAd, LinkStateDB
from qkdnet.transport import (
    DeliveryStatus,
    aggregate_rate,
    assign_fragments,
    decode_ack,
    decode_segment,
    encode_ack,
    encode_segment,
    split_fragments,
)


def run_scenario(topo, text, seed=None, prep=None):
    eng = Engine(topo, parse_scenario(text), seed=seed)
    if prep:
        prep(eng)
    return eng, eng.run()


def segment_arrivals(eng):
    """Wrap every node's ``_on_segment``; returns the list it fills with one
    (time, link, request id, seq) entry per segment that arrives."""
    arrivals = []
    for agent in eng.agents.values():
        def watch(link_id, payload, route, _original=agent._on_segment):
            request_id, seq, _, _ = decode_segment(payload)
            arrivals.append((eng.now, link_id, request_id, seq))
            _original(link_id, payload, route)

        agent._on_segment = watch
    return arrivals


def channel_of(msg):
    """The Q3P channel of a sent message, or None for an ack, which travels
    as a bare ``encode_ack`` frame."""
    return None if isinstance(msg, bytes) else msg.channel


def fault_next(eng, link_id, n, corrupt=False):
    """Wrap ``eng.send_message`` so that the next ``n`` transport frames sent
    on ``link_id`` are lost before the seeded loss draw or, with ``corrupt``,
    go on with the last payload bit flipped."""
    original = eng.send_message
    left = [n]

    def faulty(link, from_node, msg, route=()):
        if link == link_id and channel_of(msg) == Channel.TRANSPORT and left[0] > 0:
            left[0] -= 1
            if not corrupt:
                eng.msg_counts["lost"] += 1
                return False
            msg.payload = msg.payload[:-1] + bytes([msg.payload[-1] ^ 1])
        return original(link, from_node, msg, route)

    eng.send_message = faulty


def saturated_db(topo, level=131072):
    db = LinkStateDB(topo)
    for link in topo.links:
        rate = topo.profile_of(link).r0_bps
        for origin in (link.a, link.b):
            db.update(LinkStateAd(link.id, origin, 1, True, level, rate))
    return db


class TestCodecs:
    def test_segment_round_trip(self):
        data = encode_segment(7, 3, 12, b"frag")
        assert decode_segment(data) == (7, 3, 12, b"frag")
        # u64 request, u32 seq, u32 total, u16 length, then the fragment
        assert data[:18].hex() == "0000000000000007000000030000000c0004"

    def test_ack_round_trip(self):
        assert decode_ack(encode_ack(9, 4)) == (9, 4)
        assert decode_ack(b"junk") is None

    def test_split_fragments(self):
        frags = split_fragments(bytes(2500), 1024)
        assert [len(f) for f in frags] == [1024, 1024, 452]


class TestAssignment:
    def test_equal_weights_split_evenly(self):
        out = assign_fragments(30, [100, 100, 100])
        assert [out.count(i) for i in range(3)] == [10, 10, 10]

    def test_proportional_to_levels(self):
        out = assign_fragments(30, [600, 300, 100])
        assert [out.count(i) for i in range(3)] == [18, 9, 3]

    def test_zero_weights_fall_back_to_even(self):
        out = assign_fragments(4, [0, 0])
        assert out.count(0) == out.count(1) == 2


class TestAggregateRate:
    def test_single_path_bottleneck(self):
        topo = vienna_preset()
        db = saturated_db(topo)
        # alice->bob k=1: direct route min(freespace, pp-swap@17km, handheld@1km)
        rate = aggregate_rate(db, "alice", "bob", 1)
        direct = ["SIE-alice", "SIE-ERD", "ERD-bob"]
        assert rate == min(db.min_rate(l) for l in direct)

    def test_block_three_paths_sum_between_nodes(self):
        db = saturated_db(building_block_preset())
        assert aggregate_rate(db, "QA", "QB", 3) == 3 * 8000.0

    def test_block_access_links_cap_user_aggregate(self):
        db = saturated_db(building_block_preset())
        assert aggregate_rate(db, "alice", "bob", 3) == 6000.0

    def test_one_parallel_path_down_sums_remaining(self):
        topo = building_block_preset()
        db = saturated_db(topo)
        for origin in ("QA", "QB"):
            db.update(LinkStateAd("L5", origin, 2, False, 0, 0.0))
        assert aggregate_rate(db, "QA", "QB", 3) == 2 * 8000.0

    def test_no_route_is_zero(self):
        topo = building_block_preset()
        db = LinkStateDB(topo)  # empty db: nothing usable
        assert aggregate_rate(db, "QA", "QB", 3) == 0.0


class TestDeliveryAccounting:
    def test_consumption_is_fragment_plus_tag_per_link(self):
        # 1000-byte secret, one fragment: every on-path link spends 1032
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=1000 k=1\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        assert rec.per_link_consumed == {"LA": 1032, "L5": 1032, "LB": 1032}

    def test_multi_fragment_consumption_law(self):
        # 4096 bytes -> 4 fragments -> 4*(1024+32) per on-path link
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=4096 k=1\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert all(v == 4 * 1056 for v in rec.per_link_consumed.values())

    def test_sender_ledger_growth_matches_record(self):
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=3000 k=1\n",
        )
        rec = rep.records[0]
        for link_id, spent in rec.per_link_consumed.items():
            store_a, store_b = eng.links[link_id].q3p.stores
            transport_ledgered = sum(
                r.n_bytes for s in (store_a, store_b) for r in s.ledger
                if r.purpose.value in ("encrypt", "preshared_refill")
            )
            # encryption ledgered once, at the sender; tags counted via record math
            assert transport_ledgered == spent - 32 * rec.fragments_total


class TestMultipath:
    def test_three_way_split_thirds(self):
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=6 seed=9\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=30720 k=3\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert len(rec.paths_used) == 3
        # 30 fragments, equal advertised levels: 10 per path
        assert rec.per_link_consumed["L5"] == 10 * 1056
        assert rec.per_link_consumed["LA"] == 30 * 1056
        assert rec.per_link_consumed["LB"] == 30 * 1056

    def test_exposures_one_per_fragment_per_interior_node(self):
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=2048 k=1\n",
        )
        # path alice-QA-QB-bob: interiors QA and QB, 2 fragments each
        assert len(rep.exposures) == 4
        assert {node for _, node, _, _ in rep.exposures} == {"QA", "QB"}

    def test_exposures_only_on_chosen_paths(self):
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=6 seed=9\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=30720 k=3\n",
        )
        on_path = set()
        for p in rep.records[0].paths_used:
            on_path |= set(p.interior)
        assert {node for _, node, _, _ in rep.exposures} <= on_path


class TestRetransmission:
    def test_one_loss_doubles_that_hops_spend(self):
        topo = building_block_preset()
        sent_ciphertexts = []

        def prep(eng):
            fault_next(eng, "L5", 1)
            original = eng.send_message

            def spy(link_id, from_node, msg, route=()):
                if link_id == "L5" and channel_of(msg) == Channel.TRANSPORT:
                    sent_ciphertexts.append((msg.payload, msg.span))
                return original(link_id, from_node, msg, route)

            eng.send_message = spy

        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=1000 k=1\n",
            prep=prep,
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        assert rec.per_link_consumed["L5"] == 2 * 1032
        assert rep.msg_counts["retransmissions"] == 1
        # same plaintext, fresh key: different ciphertext, disjoint ranges
        assert len(sent_ciphertexts) == 2
        (ct1, (p1, s1, e1)), (ct2, (p2, s2, e2)) = sent_ciphertexts
        assert ct1[18:] != ct2[18:]
        assert p1 == p2 and (e1 <= s2 or e2 <= s1)

    def test_corrupted_tag_triggers_fresh_key_retransmit(self):
        topo = building_block_preset()

        def prep(eng):
            fault_next(eng, "L5", 1, corrupt=True)

        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=1000 k=1\n",
            prep=prep,
        )
        rec = rep.records[0]
        assert rep.msg_counts["tag_failures"] == 1
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        assert rec.per_link_consumed["L5"] == 2 * 1032

    def test_six_losses_exhaust_the_retry_budget(self):
        topo = building_block_preset()

        def prep(eng):
            fault_next(eng, "LA", 10)  # the only way out of alice

        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=1000 k=1\n",
            prep=prep,
        )
        rec = rep.records[0]
        assert rep.msg_counts["retry_limit_exceeded"] >= 1
        assert rec.status is DeliveryStatus.FAILED
        assert rec.failure_reason == "retry_limit_exceeded"
        # exactly six sends were attempted before giving up
        assert rec.per_link_consumed["LA"] == 6 * 1032

    def test_copy_given_up_after_delivery_counts_once(self):
        # every ack for seq 0 on LA is lost, so alice gives up on a fragment
        # bob already holds; seq 1 is delayed and still in flight by then
        topo = building_block_preset()
        drops = {("LA", None, 0): 99, ("LA", Channel.TRANSPORT, 1): 5,
                 ("L5", Channel.TRANSPORT, 1): 1}

        def prep(eng):
            original = eng.send_message

            def lossy(link_id, from_node, msg, route=()):
                channel = channel_of(msg)
                if channel is None:
                    seq = decode_ack(msg)[1]
                elif channel == Channel.TRANSPORT:
                    seq = decode_segment(msg.payload)[1]
                else:
                    return original(link_id, from_node, msg, route)
                key = (link_id, channel, seq)
                if drops.get(key, 0) > 0:
                    drops[key] -= 1
                    return False
                return original(link_id, from_node, msg, route)

            eng.send_message = lossy

        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=2048 k=1\n",
            prep=prep,
        )
        rec = rep.records[0]
        assert rep.msg_counts["retry_limit_exceeded"] == 1
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        assert rec.failure_reason is None

    def test_deadline_yields_partial(self):
        topo = building_block_preset()

        def prep(eng):
            fault_next(eng, "L5", 8)

        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=3072 k=1 deadline=0.3\n",
            prep=prep,
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.PARTIAL
        assert 0 < rec.fragments_delivered < rec.fragments_total
        assert rec.secret_at_dst is None


class TestHeldSecret:
    """A record holds no secret bytes while its two ends agree: the source's
    secret derives from the run's seed and the request id on every read, and
    the destination keeps the sha256 of what arrived."""

    REQUEST = ("[scenario] duration=4 seed=3\n"
               "[event] t=1.0 kind=request src=alice dst=bob bytes=3072 k=2\n")

    def test_delivered_record_holds_no_secret_bytes(self):
        eng, rep = run_scenario(building_block_preset(), self.REQUEST)
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_dst_own is None
        # the 16-byte KDF input and the 32-byte digest are all the bytes it holds
        assert sorted(len(v) for v in vars(rec).values() if isinstance(v, bytes)) == [16, 32]
        first, second = rec.secret_at_src, rec.secret_at_src
        assert first == second and first is not second     # derived again, not cached
        assert len(first) == rec.n_bytes
        assert rec.secret_at_dst == first
        assert rec.secret_dst_sha256 == hashlib.sha256(first).digest()
        assert rec.summary()["ends_match"] is True

    def test_same_seed_and_request_id_give_the_same_secret(self):
        # in the second run request 1 starts after request 2: a secret drawn
        # from one stream in start order would differ
        first = "[event] t=1.0 kind=request src=alice dst=bob bytes=3072 k=2\n"
        _, one = run_scenario(vienna_preset(), "[scenario] duration=4 seed=3\n" + first)
        _, two = run_scenario(
            vienna_preset(),
            "[scenario] duration=4 seed=3\n"
            + first.replace("t=1.0", "t=2.0")
            + "[event] t=1.0 kind=request src=SIE dst=GUD bytes=2048 k=1\n",
        )
        a, b = one.records[0], two.records[0]
        assert (a.request_id, b.request_id) == (1, 1)
        assert a.secret_at_src == b.secret_at_src == hashlib.shake_128(
            sub_seed(3, "secrets").to_bytes(8, "big") + (1).to_bytes(8, "big")).digest(3072)
        assert two.records[1].secret_at_src != a.secret_at_src[:2048]
        assert a.status is b.status is DeliveryStatus.DELIVERED
        assert a.secret_at_dst == b.secret_at_dst == a.secret_at_src

    def test_records_hold_well_under_a_kibibyte_each(self):
        # eight 64 KiB secrets along a three-node line of fast links. What the
        # records hold is what their fields free when dropped: a record that
        # kept its secret held over 64 KiB; one that derives it keeps its
        # seed, a digest and its bookkeeping
        topo = ["[profile] id=fast r0_bps=2000000 alpha=0.2 max_km=60 restart_s=30"]
        topo += [f"[node] name=L{i} kind=qbb" for i in range(3)]
        topo += [f"[link] id=L{i}-L{i + 1} a=L{i} b=L{i + 1} km=1 profile=fast class=qbb "
                 "preshared=131072" for i in range(2)]
        lines = ["[scenario] duration=6 seed=1"]
        lines += [f"[event] t={i / 2 + 0.5} kind=request src=L0 dst=L2 bytes=65536 k=1"
                  for i in range(8)]
        tracemalloc.start()
        try:
            rep = Engine(load_topology("\n".join(topo) + "\n"),
                         parse_scenario("\n".join(lines) + "\n")).run()
            held, _ = tracemalloc.get_traced_memory()
            statuses = [rec.status for rec in rep.records]
            for rec in rep.records:
                vars(rec).clear()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert statuses == [DeliveryStatus.DELIVERED] * 8
        assert freed / 8 < 1024

    def test_ends_that_differ_keep_their_own_bytes(self, monkeypatch):
        # one bit of the second fragment flips on arrival at the destination
        delivered = Engine.fragment_delivered

        def altered(engine, req, seq, fragment):
            if seq == 1:
                fragment = bytes([fragment[0] ^ 1]) + fragment[1:]
            delivered(engine, req, seq, fragment)

        monkeypatch.setattr(Engine, "fragment_delivered", altered)
        eng, rep = run_scenario(building_block_preset(), self.REQUEST)
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        src, dst = rec.secret_at_src, rec.secret_at_dst
        assert len(dst) == len(src) == rec.n_bytes
        assert [i for i in range(len(src)) if src[i] != dst[i]] == [1024]
        summary = rec.summary()
        assert summary["ends_match"] is False
        assert summary["secret_dst_sha256"] != summary["secret_src_sha256"]


class TestExhaustionReroute:
    def test_low_store_steers_new_segments_elsewhere(self):
        # drain the direct link under the transport low-water mark before the
        # request starts: delivery must route around it entirely
        topo = vienna_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=6 seed=8\n"
            "[event] t=0.5 kind=dos link=SIE-ERD rate=125000 duration=1.0\n"
            "[event] t=2.5 kind=request src=alice dst=bob bytes=4096 k=1\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        assert "SIE-ERD" not in rec.per_link_consumed

    def test_flooding_skips_fully_drained_neighbors(self):
        topo = vienna_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=14 seed=8\n"
            "[event] t=0.5 kind=dos link=SIE-ERD rate=125000 duration=1.5\n",
        )
        # the t=10 database summaries find the drained link without auth key
        assert rep.msg_counts.get("flood_skipped_no_key", 0) >= 1
        assert rep.link_stats["SIE-ERD"]["min_level_seen"] == 0


class TestRefill:
    def test_refill_on_healthy_link_adds_exact_bytes(self):
        topo = vienna_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=refill link=SIE-ERD bytes=8192 k=2\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        lrt = eng.links["SIE-ERD"]
        for store in lrt.q3p.stores:
            assert store.appended_bytes == (
                lrt.spec.preshared_bytes + lrt.runtime.produced_bytes_total + 8192
            )
        # both ends read the link's one stream
        assert lrt.q3p.stores[0].stream is lrt.q3p.stores[1].stream is lrt.q3p.stream
        assert ("SIE-ERD" not in rec.per_link_consumed)  # routed around itself

    def test_refill_pushes_the_secret_that_arrived(self):
        pushed = []

        def prep(eng):
            q3p = eng.links["SIE-ERD"].q3p
            original = q3p.push
            q3p.push = lambda data: (pushed.append(data), original(data))

        eng, rep = run_scenario(
            vienna_preset(),
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=refill link=SIE-ERD bytes=8192 k=2\n",
            prep=prep,
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert pushed == [rec.secret_at_dst]
        assert len(pushed[0]) == 8192

    def test_refill_of_leaf_spur_has_no_route(self):
        topo = vienna_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=1.0 kind=refill link=BREIT-STP bytes=8192 k=2\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.FAILED
        assert rec.failure_reason == "no_route"


class TestNoRoute:
    def test_all_paths_down_fails_without_spending_key(self):
        topo = building_block_preset()
        eng, rep = run_scenario(
            topo,
            "[scenario] duration=4 seed=3\n"
            "[event] t=0.5 kind=fail link=LA\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=1000 k=1\n",
        )
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.FAILED
        assert rec.failure_reason == "no_route"
        assert rec.per_link_consumed == {}


class TestFailover:
    def test_multipath_delivery_survives_direct_link_cut(self):
        # fragments split over all three routes; the direct route dies
        # mid-flight and its share finishes over the survivors
        topo = building_block_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=8 seed=6\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=30720 k=3\n"
            "[event] t=1.008 kind=fail link=L5\n"
        ))
        arrivals = segment_arrivals(eng)
        rep = eng.run()
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        assert len(rec.paths_used) == 3
        fail_t = [t for t, l, e in rep.link_events if e == "fail"][0]
        assert not [a for a in arrivals if a[1] == "L5" and a[0] > fail_t]
        assert rec.per_link_consumed.get("L5", 0) >= 1056  # it was in use
        assert rep.msg_counts["retransmissions"] >= 1
        # the direct route's share finished over the surviving detours
        detour_total = rec.per_link_consumed["L1"] + rec.per_link_consumed["L3"]
        assert detour_total > 20 * 1056

    def test_mid_delivery_cut_reroutes_and_completes(self):
        topo = building_block_preset()
        eng = Engine(topo, parse_scenario(
            "[scenario] duration=8 seed=4\n"
            "[event] t=1.0 kind=request src=alice dst=bob bytes=24576 k=1\n"
            "[event] t=1.02 kind=fail link=L5\n"
        ))
        arrivals = segment_arrivals(eng)
        rep = eng.run()
        rec = rep.records[0]
        assert rec.status is DeliveryStatus.DELIVERED
        assert rec.secret_at_dst == rec.secret_at_src
        fail_t = [t for t, l, e in rep.link_events if e == "fail"][0]
        used_before = [a for a in arrivals if a[1] == "L5" and a[0] <= fail_t]
        used_after = [a for a in arrivals if a[1] == "L5" and a[0] > fail_t]
        assert used_before, "the direct link should have carried early fragments"
        assert not used_after
