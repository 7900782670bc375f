"""Routing: advertisement codec, cost metric, deterministic paths,
interior-disjoint path sets checked against brute-force enumeration."""

import itertools
import struct
import zlib

import networkx as nx
import pytest

from qkdnet.model import building_block_preset, load_topology, vienna_preset
from qkdnet.routing import (
    FloodingState,
    LinkStateAd,
    LinkStateDB,
    NoRoute,
    Path,
    RouteCostParams,
    decode_lsa,
    decode_summary,
    disjoint_paths,
    encode_lsa,
    encode_summary,
    lsa_instances,
    shortest_path,
)


def saturated_db(topo, level=131072, floor=4096):
    db = LinkStateDB(topo, usable_floor=floor)
    for link in topo.links:
        rate = topo.profile_of(link).r0_bps
        for origin in (link.a, link.b):
            db.update(LinkStateAd(link.id, origin, 1, True, level, rate, 0))
    return db


def set_level(db, link_id, level, seq=2):
    link = db.topology.link(link_id)
    for origin in (link.a, link.b):
        db.update(LinkStateAd(link_id, origin, seq, True, level,
                              db.topology.profile_of(link).r0_bps, 0))


class TestLsaCodec:
    def test_golden_layout(self):
        lsa = LinkStateAd("L5", "QA", 9, True, 131072, 8000.0, 1234)
        data = encode_lsa(lsa)
        expected = struct.pack(
            ">IQBQQQ", zlib.crc32(b"L5/QA"), 9, 1, 131072, 8000000, 1234)
        assert data == expected
        assert len(data) == 37

    def test_round_trip(self):
        topo = building_block_preset()
        table = lsa_instances(topo)
        lsa = LinkStateAd("L2", "QC", 3, False, 500, 3162.277, 42)
        back = decode_lsa(encode_lsa(lsa), table)
        assert back.link_id == "L2" and back.origin == "QC"
        assert back.seq == 3 and back.up is False and back.level_bytes == 500
        assert back.rate_bps == pytest.approx(3162.277, abs=1e-3)


class TestSummaryCodec:
    def test_golden_layout(self):
        lsas = [LinkStateAd("L5", "QA", 9, True, 131072, 8000.0, 1234),
                LinkStateAd("L2", "QC", 2**40, False, 0, 0.0, 0)]
        data = encode_summary(lsas)
        assert data == (struct.pack(">IQ", zlib.crc32(b"L5/QA"), 9)
                        + struct.pack(">IQ", zlib.crc32(b"L2/QC"), 2**40))
        assert encode_summary([]) == b""

    def test_round_trip_of_a_whole_database(self):
        topo = building_block_preset()
        db = saturated_db(topo)
        set_level(db, "L2", 500, seq=7)
        held = decode_summary(encode_summary(db.lsas()), lsa_instances(topo))
        assert held == {key: seq for key, (seq, _, _) in db.snapshot().items()}
        assert held[("L2", "QC")] == 7 and len(held) == 2 * len(topo.links)


class TestLinkCost:
    def test_saturated_is_pure_hop_cost(self):
        db = saturated_db(building_block_preset())
        assert db.link_cost("L5", RouteCostParams(target_level_bytes=65536)) == 1.0

    def test_half_depleted_costs_one_and_a_half(self):
        db = saturated_db(building_block_preset())
        params = RouteCostParams(target_level_bytes=65536)
        set_level(db, "L5", 32768)
        assert db.link_cost("L5", params) == pytest.approx(1.5)

    def test_down_end_is_unusable(self):
        db = saturated_db(building_block_preset())
        db.update(LinkStateAd("L5", "QA", 2, False, 131072, 8000.0, 0))
        assert db.link_cost("L5") == float("inf")
        assert not db.usable("L5")

    def test_level_at_floor_is_unusable(self):
        db = saturated_db(building_block_preset(), floor=4096)
        set_level(db, "L5", 4096)
        assert not db.usable("L5")

    def test_zero_target_degrades_to_hop_count(self):
        db = saturated_db(building_block_preset())
        params = RouteCostParams(target_level_bytes=0)
        assert db.link_cost("L5", params) == 1.0


class TestShortestPath:
    def test_block_prefers_direct_route(self):
        db = saturated_db(building_block_preset())
        p = shortest_path(db, "alice", "bob")
        assert p.nodes == ("alice", "QA", "QB", "bob")
        assert p.links == ("LA", "L5", "LB")

    def test_drained_direct_link_switches_by_tie_break(self):
        db = saturated_db(building_block_preset())
        set_level(db, "L5", 0)
        p = shortest_path(db, "alice", "bob")
        assert p.links == ("LA", "L1", "L2", "LB")  # QC sorts before QD

    def test_all_core_links_down_is_no_route(self):
        db = saturated_db(building_block_preset())
        for link_id in ("L1", "L2", "L3", "L4", "L5", "L6"):
            link = db.topology.link(link_id)
            for origin in (link.a, link.b):
                db.update(LinkStateAd(link_id, origin, 2, False, 0, 0.0, 0))
        with pytest.raises(NoRoute):
            shortest_path(db, "alice", "bob")

    def test_tie_break_is_stable(self):
        db = saturated_db(building_block_preset())
        set_level(db, "L5", 0)
        routes = {shortest_path(db, "alice", "bob").links for _ in range(10)}
        assert len(routes) == 1

    def test_scarcity_steers_away_from_drained_link(self):
        # weight > 1 lets depletion outweigh an extra hop
        db = saturated_db(vienna_preset())
        params = RouteCostParams(scarcity_weight=2.0, target_level_bytes=131072)
        baseline = shortest_path(db, "SIE", "ERD", params)
        assert baseline.links == ("SIE-ERD",)
        set_level(db, "SIE-ERD", 8192)
        rerouted = shortest_path(db, "SIE", "ERD", params)
        assert "SIE-ERD" not in rerouted.links

    def test_draining_one_link_never_lowers_other_path_costs(self):
        db = saturated_db(building_block_preset())
        params = RouteCostParams(target_level_bytes=131072)
        costs_before = {l.id: db.link_cost(l.id, params) for l in db.topology.links}
        set_level(db, "L1", 1000)
        for link_id, before in costs_before.items():
            after = db.link_cost(link_id, params)
            if link_id == "L1":
                assert after > before
            else:
                assert after == before


def brute_force_disjoint(topo, db, src, dst, anchors):
    """Oracle: enumerate all simple paths, take a maximum family whose
    interiors (nodes outside the anchor pair) are pairwise disjoint."""
    g = nx.Graph()
    for link in topo.links:
        if db.usable(link.id):
            g.add_edge(link.a, link.b, id=link.id)
    all_paths = list(nx.all_simple_paths(g, src, dst))
    best = []
    for r in range(len(all_paths), 0, -1):
        for combo in itertools.combinations(all_paths, r):
            interiors = [set(p) - set(anchors) - {src, dst} for p in combo]
            if all(
                not (interiors[i] & interiors[j])
                for i in range(r) for j in range(i + 1, r)
            ):
                best = list(combo)
                break
        if best:
            break
    return best


class TestDisjointPaths:
    def test_block_has_exactly_three(self):
        topo = building_block_preset()
        db = saturated_db(topo)
        paths = disjoint_paths(db, "alice", "bob", 3)
        assert [p.links for p in paths] == [
            ("LA", "L5", "LB"),
            ("LA", "L1", "L2", "LB"),
            ("LA", "L3", "L4", "LB"),
        ]

    def test_k5_still_three_matches_brute_force(self):
        topo = building_block_preset()
        db = saturated_db(topo)
        paths = disjoint_paths(db, "alice", "bob", 5)
        oracle = brute_force_disjoint(topo, db, "alice", "bob", ("QA", "QB"))
        assert len(paths) == len(oracle) == 3
        oracle_node_seqs = {tuple(p) for p in oracle}
        assert {p.nodes for p in paths} <= oracle_node_seqs or len(paths) == len(oracle)

    def test_interiors_pairwise_disjoint(self):
        topo = vienna_preset()
        db = saturated_db(topo)
        paths = disjoint_paths(db, "alice", "bob", 4)
        cores = [set(p.nodes) - {"alice", "bob", "SIE", "ERD"} for p in paths]
        for i in range(len(cores)):
            for j in range(i + 1, len(cores)):
                assert not (cores[i] & cores[j])

    def test_adjacent_pair_single_link(self):
        topo = load_topology(
            "[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30\n"
            "[node] name=A kind=qbb\n[node] name=B kind=qbb\n"
            "[link] id=AB a=A b=B km=10 profile=p class=qbb preshared=8192\n"
        )
        db = saturated_db(topo)
        paths = disjoint_paths(db, "A", "B", 2)
        assert len(paths) == 1 and paths[0].links == ("AB",)

    def test_ordered_cheapest_first(self):
        db = saturated_db(building_block_preset())
        paths = disjoint_paths(db, "alice", "bob", 3)
        assert len(paths[0].links) <= len(paths[1].links) <= len(paths[2].links)

    def test_vienna_matches_brute_force(self):
        topo = vienna_preset()
        db = saturated_db(topo)
        paths = disjoint_paths(db, "alice", "bob", 5)
        oracle = brute_force_disjoint(topo, db, "alice", "bob", ("SIE", "ERD"))
        assert len(paths) == len(oracle) == 3


class TestFlooding:
    def test_duplicate_sequence_suppressed(self):
        fs = FloodingState(LinkStateDB(building_block_preset()))
        lsa = LinkStateAd("L1", "QA", 5, True, 100, 1.0, 0)
        assert fs.accept(lsa)
        assert not fs.accept(lsa)
        assert fs.accept(LinkStateAd("L1", "QA", 6, True, 100, 1.0, 0))
        assert not fs.accept(LinkStateAd("L1", "QA", 4, True, 100, 1.0, 0))

    def test_stale_update_ignored_by_db(self):
        db = saturated_db(building_block_preset())
        fresh = LinkStateAd("L1", "QA", 9, False, 5, 1.0, 0)
        assert db.update(fresh)
        assert not db.update(LinkStateAd("L1", "QA", 3, True, 131072, 8000.0, 0))
        assert db.ads["L1"]["QA"].seq == 9


class TestPathType:
    def test_path_shape_enforced(self):
        with pytest.raises(ValueError):
            Path(nodes=("A", "B"), links=())
        with pytest.raises(ValueError):
            Path(nodes=("A", "B", "A"), links=("x", "y"))
