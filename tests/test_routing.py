"""Routing: advertisement codec, cost metric, deterministic paths,
interior-disjoint path sets checked against brute-force enumeration."""

import itertools
import math
import struct
import zlib
from heapq import heappop, heappush
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from qkdnet import routing
from qkdnet.model import (
    DeviceProfile,
    LinkClass,
    LinkSpec,
    NodeKind,
    Topology,
    building_block_preset,
    load_topology,
    validate_topology,
    vienna_preset,
)
from qkdnet.routing import (
    FloodingState,
    LinkStateAd,
    LinkStateDB,
    LsaTable,
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


def saturated_db(topo, level=131072):
    db = LinkStateDB(topo)
    for link in topo.links:
        rate = topo.profile_of(link).r0_bps
        for origin in (link.a, link.b):
            db.update(LinkStateAd(link.id, origin, 1, True, level, rate))
    return db


def set_level(db, link_id, level, seq=2):
    link = db.topology.link(link_id)
    for origin in (link.a, link.b):
        db.update(LinkStateAd(link_id, origin, seq, True, level,
                              db.topology.profile_of(link).r0_bps))


class TestLsaCodec:
    def test_golden_layout(self):
        lsa = LinkStateAd("L5", "QA", 9, True, 131072, 8000.0)
        data = encode_lsa(lsa)
        expected = struct.pack(">IQBQQ", zlib.crc32(b"L5/QA"), 9, 1, 131072, 8000000)
        assert data == expected
        assert len(data) == 29

    def test_round_trip(self):
        topo = building_block_preset()
        table = lsa_instances(topo)
        lsa = LinkStateAd("L2", "QC", 3, False, 500, 3162.277)
        back = decode_lsa(encode_lsa(lsa), table)
        assert back.link_id == "L2" and back.origin == "QC"
        assert back.seq == 3 and back.up is False and back.level_bytes == 500
        assert back.rate_bps == pytest.approx(3162.277, abs=1e-3)


class TestLsaTable:
    """One run's last origination per instance: its bytes stand for the
    originator's own object, and any other frame is decoded."""

    @staticmethod
    def _table():
        return LsaTable(lsa_instances(building_block_preset()))

    def test_an_entrys_bytes_give_back_the_originated_object(self):
        table = self._table()
        lsa = LinkStateAd("L2", "QC", 3, True, 500, 3162.277)
        wire = table.encode(lsa)
        assert wire == encode_lsa(lsa)
        assert table.decode(wire) is lsa
        assert table.decode(bytes(bytearray(wire))) is lsa     # equal bytes, another object

    def test_an_older_instance_is_decoded_and_refused(self, monkeypatch):
        table = self._table()
        old = LinkStateAd("L2", "QC", 3, True, 500, 8000.0)
        new = LinkStateAd("L2", "QC", 4, False, 500, 8000.0)
        old_wire = table.encode(old)
        new_wire = table.encode(new)
        decoded = []
        monkeypatch.setattr(routing, "decode_lsa",
                            lambda *args: decoded.append(args[0]) or decode_lsa(*args))
        db = LinkStateDB(building_block_preset())
        assert db.update(table.decode(new_wire))
        assert decoded == []
        back = table.decode(old_wire)
        assert decoded == [old_wire]
        assert back == old and back is not old
        assert not db.update(back)
        assert db.ads["L2"]["QC"] is new


class TestSummaryCodec:
    def test_golden_layout(self):
        lsas = [LinkStateAd("L5", "QA", 9, True, 131072, 8000.0),
                LinkStateAd("L2", "QC", 2**40, False, 0, 0.0)]
        data = encode_summary(lsas)
        assert data == (struct.pack(">IQ", zlib.crc32(b"L5/QA"), 9)
                        + struct.pack(">IQ", zlib.crc32(b"L2/QC"), 2**40))
        assert encode_summary([]) == b""

    def test_round_trip_of_a_whole_database(self):
        topo = building_block_preset()
        db = saturated_db(topo)
        set_level(db, "L2", 500, seq=7)
        held = decode_summary(encode_summary(db.lsas()), lsa_instances(topo))
        assert held == {(link_id, origin): ad.seq
                        for link_id, both in db.ads.items() for origin, ad in both.items()}
        assert held[("L2", "QC")] == 7 and len(held) == 2 * len(topo.links)


class TestDatabaseSummary:
    """``LinkStateDB.summary``: entries in instance-hash order, rebuilt after
    every install."""

    def _install(self, topo, order, seqs):
        db = LinkStateDB(topo)
        for link_id, origin in order:
            db.update(LinkStateAd(link_id, origin, seqs.get((link_id, origin), 1),
                                  True, 131072, 1000.0))
        return db

    def test_same_instances_and_seqs_give_equal_bytes_in_any_order(self):
        topo = vienna_preset()
        order = [(link.id, origin) for link in topo.links for origin in (link.a, link.b)]
        seqs = {order[3]: 5, order[8]: 2}
        a = self._install(topo, order, seqs)
        b = self._install(topo, order[::-1], seqs)
        assert list(a.lsas()) != list(b.lsas())
        assert a.summary() == b.summary()
        hashes = [h for h, _ in struct.iter_unpack(">IQ", a.summary())]
        assert hashes == sorted(hashes) and len(hashes) == len(order)

    def test_one_differing_seq_gives_different_bytes(self):
        topo = vienna_preset()
        order = [(link.id, origin) for link in topo.links for origin in (link.a, link.b)]
        a = self._install(topo, order, {})
        b = self._install(topo, order, {})
        assert a.summary() == b.summary()
        a.update(LinkStateAd(*order[5], 2, True, 131072, 1000.0))
        assert a.summary() != b.summary() and len(a.summary()) == len(b.summary())

    def test_decodes_as_the_installation_order_encoding(self):
        topo = building_block_preset()
        db = saturated_db(topo)
        set_level(db, "L2", 500, seq=7)
        table = lsa_instances(topo)
        assert (decode_summary(db.summary(), table)
                == decode_summary(encode_summary(db.lsas()), table))


class TestLinkCost:
    def test_saturated_is_pure_hop_cost(self):
        db = saturated_db(building_block_preset())
        assert RouteCostParams(target_level_bytes=65536).step_cost(db.usable_levels["L5"]) == 1.0

    def test_half_depleted_costs_one_and_a_half(self):
        db = saturated_db(building_block_preset())
        params = RouteCostParams(target_level_bytes=65536)
        set_level(db, "L5", 32768)
        assert params.step_cost(db.usable_levels["L5"]) == pytest.approx(1.5)

    def test_down_end_is_unusable(self):
        db = saturated_db(building_block_preset())
        db.update(LinkStateAd("L5", "QA", 2, False, 131072, 8000.0))
        assert "L5" not in db.usable_levels
        assert not db.usable("L5")

    def test_level_at_floor_is_unusable(self):
        db = saturated_db(building_block_preset())
        set_level(db, "L5", 4096)
        assert not db.usable("L5")

    def test_zero_target_degrades_to_hop_count(self):
        db = saturated_db(building_block_preset())
        params = RouteCostParams(target_level_bytes=0)
        assert params.step_cost(db.usable_levels["L5"]) == 1.0


class TestRouteCostParams:
    @pytest.mark.parametrize("field", ["hop_cost", "scarcity_weight", "target_level_bytes"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_and_negative(self, field, value):
        with pytest.raises(ValueError):
            RouteCostParams(**{field: value})

    def test_accepts_finite_non_negative(self):
        params = RouteCostParams(hop_cost=0.0, scarcity_weight=0.0, target_level_bytes=0)
        assert params.step_cost(0) == 0.0
        assert RouteCostParams(scarcity_weight=1e300).step_cost(65536) == 1.0


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
                db.update(LinkStateAd(link_id, origin, 2, False, 0, 0.0))
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
        costs_before = {lid: params.step_cost(level) for lid, level in db.usable_levels.items()}
        assert set(costs_before) == {l.id for l in db.topology.links}
        set_level(db, "L1", 1000)        # below the floor: L1 leaves the table
        assert "L1" not in db.usable_levels
        for link_id, before in costs_before.items():
            if link_id != "L1":
                assert params.step_cost(db.usable_levels[link_id]) == before


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
        lsa = LinkStateAd("L1", "QA", 5, True, 100, 1.0)
        assert fs.accept(lsa)
        assert not fs.accept(lsa)
        assert fs.accept(LinkStateAd("L1", "QA", 6, True, 100, 1.0))
        assert not fs.accept(LinkStateAd("L1", "QA", 4, True, 100, 1.0))

    def test_stale_update_ignored_by_db(self):
        db = saturated_db(building_block_preset())
        fresh = LinkStateAd("L1", "QA", 9, False, 5, 1.0)
        assert db.update(fresh)
        assert not db.update(LinkStateAd("L1", "QA", 3, True, 131072, 8000.0))
        assert db.ads["L1"]["QA"].seq == 9


class TestPathType:
    def test_path_shape_enforced(self):
        with pytest.raises(ValueError):
            Path(nodes=("A", "B"), links=())
        with pytest.raises(ValueError):
            Path(nodes=("A", "B", "A"), links=("x", "y"))


# --- reference routing, as first written -----------------------------------
#
# The rules as first written re-derive each link's advertisement pair from ``db.ads``
# on every call, and ``_reference_shortest_path`` sorts each node's
# neighbours before expanding it. The database's per-link level table and
# the unsorted expansion in ``shortest_path`` must give identical results.

FLOOR = 4096


def _reference_pair(db, link_id):
    link = db.topology.link(link_id)
    both = db.ads.get(link_id, {})
    if link.a in both and link.b in both:
        return both[link.a], both[link.b]
    return None


def _reference_usable(db, link_id):
    pair = _reference_pair(db, link_id)
    if pair is None:
        return False
    return all(ad.up and ad.level_bytes > FLOOR for ad in pair)


def _reference_min_level(db, link_id):
    pair = _reference_pair(db, link_id)
    if pair is None:
        return 0
    return min(ad.level_bytes for ad in pair)


def _reference_link_cost(db, link_id, params=None):
    params = params or RouteCostParams()
    if not _reference_usable(db, link_id):
        return float("inf")
    target = max(1, params.target_level_bytes)  # degenerate target: hop cost only
    depletion = max(0.0, 1.0 - _reference_min_level(db, link_id) / target)
    return params.hop_cost + params.scarcity_weight * depletion


def _reference_shortest_path(
    db, src, dst, params=None, exclude_links=frozenset(), exclude_nodes=frozenset(),
):
    """``shortest_path`` as first written, with its edge costs taken from the
    reference rules above instead of the database's table."""
    if src == dst:
        raise ValueError("src and dst must differ")
    params = params or RouteCostParams()
    topo = db.topology
    # Heap entries order by (cost, node sequence): the first pop per node is
    # both cheapest and lexicographically smallest among equal costs.
    heap = [(0.0, (src,), ())]
    done = set()
    while heap:
        cost, nodes, link_ids = heappop(heap)
        at = nodes[-1]
        if at == dst:
            return Path(nodes=nodes, links=link_ids)
        if at in done:
            continue
        done.add(at)
        for neighbor, link in sorted(topo.neighbors(at), key=lambda nl: (nl[0], nl[1].id)):
            if neighbor in done or neighbor in nodes:
                continue
            if neighbor in exclude_nodes or link.id in exclude_links:
                continue
            # end-users never carry transit traffic
            if topo.kind(neighbor) is NodeKind.END_USER and neighbor != dst:
                continue
            step = _reference_link_cost(db, link.id, params)
            if step == float("inf"):
                continue
            heappush(heap, (cost + step, nodes + (neighbor,), link_ids + (link.id,)))
    raise NoRoute(f"no usable path {src} -> {dst}")


_PROFILE = DeviceProfile("p", 10000.0, 0.2, 60.0, 30.0)
# at, just above and below the floor, depleted, half and fully stocked, or
# any level, so that costs round as they fall
_LEVELS = st.one_of(
    st.sampled_from([0, FLOOR - 1, FLOOR, FLOOR + 1, 8192, 32768, 65536, 131072]),
    st.integers(0, 200_000))


@st.composite
def topologies(draw):
    """Connected topology with shuffled link order and ids, parallel
    backbone links, and end-users each on one access link."""
    n_qbb = draw(st.integers(2, 7))
    names = draw(st.permutations([f"N{i}" for i in range(n_qbb)]))
    pairs = [(names[i], names[draw(st.integers(0, i - 1))]) for i in range(1, n_qbb)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n_qbb - 1), st.integers(0, n_qbb - 1))
        .filter(lambda ab: ab[0] != ab[1]), max_size=2 * n_qbb))
    pairs += [(names[a], names[b]) for a, b in extra]  # may repeat: parallel links
    users = [(f"u{i}", draw(st.sampled_from(names))) for i in range(draw(st.integers(0, 3)))]
    ends = ([(a, b, LinkClass.QBB_FIBER) for a, b in pairs]
            + [(u, anchor, LinkClass.QAN_FIBER) for u, anchor in users])
    ids = draw(st.permutations([f"L{i:02d}" for i in range(len(ends))]))
    links = [LinkSpec(link_id, a, b, 10.0, "p", cls, 8192)
             for link_id, (a, b, cls) in zip(ids, ends)]
    links = draw(st.permutations(links))
    nodes = {n: NodeKind.QBB for n in names}
    nodes.update({u: NodeKind.END_USER for u, _ in users})
    topo = Topology(nodes=nodes, links=tuple(links), profiles={"p": _PROFILE})
    validate_topology(topo)
    return topo


_PARAMS = st.builds(
    RouteCostParams,
    hop_cost=st.sampled_from([0.0, 0.5, 1.0]),
    scarcity_weight=st.sampled_from([0.0, 0.0, 1.0, 2.5]),  # 0: all ties
    target_level_bytes=st.sampled_from([0, 65536, 100_000, 131072]),
)


@st.composite
def routing_cases(draw):
    """A database over a generated topology: ends missing, down, or at or
    below the floor; equal levels often, so equal costs often."""
    topo = draw(topologies())
    db = LinkStateDB(topo)
    uniform = draw(st.booleans())
    for link in topo.links:
        for origin in (link.a, link.b):
            if draw(st.integers(0, 9)) == 0:
                continue  # this end never advertised
            up = draw(st.integers(0, 7)) != 0
            level = 131072 if uniform else draw(_LEVELS)
            db.update(LinkStateAd(link.id, origin, 1, up, level, 1000.0))
    names = sorted(topo.nodes)
    src = draw(st.sampled_from(names))
    dst = draw(st.sampled_from([n for n in names if n != src]))
    link_ids = sorted(l.id for l in topo.links)
    exclude_links = frozenset(draw(st.lists(st.sampled_from(link_ids), max_size=3)))
    exclude_nodes = frozenset(draw(st.lists(st.sampled_from(names), max_size=2)))
    return db, src, dst, draw(_PARAMS), exclude_links, exclude_nodes


def _route(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NoRoute:
        return NoRoute


class TestRoutesMatchReference:
    @given(routing_cases())
    @settings(max_examples=400, deadline=None)
    def test_shortest_path_matches_reference(self, case):
        db, src, dst, params, exclude_links, exclude_nodes = case
        kwargs = dict(exclude_links=exclude_links, exclude_nodes=exclude_nodes)
        assert (_route(shortest_path, db, src, dst, params, **kwargs)
                == _route(_reference_shortest_path, db, src, dst, params, **kwargs))

    @given(routing_cases(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_disjoint_paths_matches_reference(self, case, k):
        db, src, dst, params, exclude_links, _ = case
        got = disjoint_paths(db, src, dst, k, params, exclude_links=exclude_links)
        with mock.patch.object(routing, "shortest_path", _reference_shortest_path):
            want = disjoint_paths(db, src, dst, k, params, exclude_links=exclude_links)
        assert got == want

    @given(routing_cases())
    @settings(max_examples=300, deadline=None)
    def test_cost_matches_networkx_dijkstra(self, case):
        db, src, dst, params, exclude_links, exclude_nodes = case
        topo = db.topology
        banned = exclude_nodes - {src}  # exclusion applies to nodes reached
        g = nx.Graph()
        g.add_nodes_from([src, dst])
        for link in topo.links:
            if not db.usable(link.id) or link.id in exclude_links:
                continue
            if {link.a, link.b} & banned:
                continue
            if any(topo.kind(n) is NodeKind.END_USER and n not in (src, dst)
                   for n in (link.a, link.b)):
                continue  # end-users other than the endpoints relay nothing
            w = params.step_cost(db.usable_levels[link.id])
            if g.has_edge(link.a, link.b):
                w = min(w, g[link.a][link.b]["weight"])  # cheapest parallel link
            g.add_edge(link.a, link.b, weight=w)
        try:
            want = nx.dijkstra_path_length(g, src, dst, weight="weight")
        except nx.NetworkXNoPath:
            want = None
        try:
            path = shortest_path(db, src, dst, params, exclude_links=exclude_links,
                                 exclude_nodes=exclude_nodes)
        except NoRoute:
            assert want is None
            return
        assert want is not None
        assert sum(params.step_cost(db.usable_levels[l]) for l in path.links) == pytest.approx(
            want, rel=1e-9, abs=1e-9)


class TestLevelTable:
    def test_shortest_path_rederives_nothing(self, monkeypatch):
        db = saturated_db(vienna_preset())
        set_level(db, "SIE-ERD", 8192)
        calls = []
        for name in ("pair", "usable", "min_level"):
            original = getattr(LinkStateDB, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(LinkStateDB, name, counted)
        path = shortest_path(db, "alice", "bob", RouteCostParams(scarcity_weight=2.0))
        assert path.nodes[0] == "alice" and path.nodes[-1] == "bob"
        assert calls == []

    @given(topologies(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_table_follows_every_update(self, topo, data):
        db = LinkStateDB(topo)
        params = data.draw(_PARAMS)
        link_ids = [l.id for l in topo.links]
        updates = data.draw(st.lists(st.tuples(
            st.sampled_from(link_ids), st.booleans(),
            st.integers(0, 3),  # small seqs: stale and duplicate installs
            st.booleans(), _LEVELS), max_size=40))
        for link_id, a_end, seq, up, level in updates:
            link = topo.link(link_id)
            origin = link.a if a_end else link.b
            held = db.ads.get(link_id, {}).get(origin)
            newer = held is None or seq > held.seq
            assert db.update(LinkStateAd(link_id, origin, seq, up, level, 1.0)) is newer
            for lid in link_ids:
                assert db.usable(lid) is _reference_usable(db, lid)
                if _reference_usable(db, lid):
                    assert db.min_level(lid) == _reference_min_level(db, lid)
                else:
                    assert lid not in db.usable_levels
                level = db.usable_levels.get(lid)
                for p in (params, RouteCostParams()):
                    want = _reference_link_cost(db, lid, p)
                    assert want == (math.inf if level is None else p.step_cost(level))


# --- route cache ------------------------------------------------------------

def _grid6_with_users():
    """Six backbone nodes as two rows of three, with an end-user on two
    corners: the harness tests' GRID6 shape."""
    backbone = [("A", "B"), ("B", "C"), ("D", "E"), ("E", "F"),
                ("A", "D"), ("B", "E"), ("C", "F")]
    ends = ([(a, b, LinkClass.QBB_FIBER) for a, b in backbone]
            + [("u0", "A", LinkClass.QAN_FIBER), ("u1", "F", LinkClass.QAN_FIBER)])
    nodes = {n: NodeKind.QBB for n in "ABCDEF"}
    nodes.update(u0=NodeKind.END_USER, u1=NodeKind.END_USER)
    topo = Topology(nodes=nodes, profiles={"p": _PROFILE}, links=tuple(
        LinkSpec(a + b, a, b, 10.0, "p", cls, 8192) for a, b, cls in ends))
    validate_topology(topo)
    return topo


_GRID6 = _grid6_with_users()


class TestRouteCache:
    """``shortest_path`` keeps each answer until the database installs an
    advertisement; a kept answer must be the one a fresh search gives."""

    # few queries, so that most repeat one already answered; some differ
    # only in their excludes or in their cost values
    QUERIES = [
        ("u0", "u1", frozenset(), frozenset(), None),
        ("u0", "u1", frozenset(), frozenset(), RouteCostParams(scarcity_weight=0.0)),
        ("u0", "u1", frozenset(), frozenset(), RouteCostParams(target_level_bytes=8192)),
        ("u0", "u1", {"BE"}, frozenset(), None),
        ("A", "F", frozenset(), frozenset(), RouteCostParams()),
        ("A", "F", frozenset(), {"E"}, RouteCostParams()),
        ("C", "D", frozenset({"AB", "EF"}), frozenset(), RouteCostParams(hop_cost=0.0)),
        ("B", "D", frozenset({"AB", "EF"}), frozenset(), RouteCostParams(hop_cost=0.0)),
        # with every cost 0 the tie-break takes A-B-C-F-E over A-B-E
        ("A", "E", frozenset(), frozenset(), RouteCostParams()),
        ("A", "E", frozenset(), frozenset(), RouteCostParams(hop_cost=0.0, scarcity_weight=0.0)),
    ]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_answers_equal_a_fresh_databases(self, data):
        topo = _GRID6
        link_ids = sorted(link.id for link in topo.links)
        db = LinkStateDB(topo)
        installed = []
        if data.draw(st.booleans(), label="start saturated"):
            installed = list(saturated_db(topo).lsas())
            for lsa in installed:
                db.update(lsa)
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            if data.draw(st.integers(0, 2), label="install") == 0:
                link = topo.link(data.draw(st.sampled_from(link_ids)))
                origin = data.draw(st.sampled_from([link.a, link.b]))
                held = db.ads.get(link.id, {}).get(origin)
                if held is not None and data.draw(st.booleans(), label="same view"):
                    # newer, but nothing usable changes
                    lsa = LinkStateAd(link.id, origin, held.seq + 1, held.up,
                                      held.level_bytes, held.rate_bps)
                else:
                    seq = data.draw(st.integers(0, 2)) + (held.seq if held is not None else 0)
                    lsa = LinkStateAd(link.id, origin, seq, data.draw(st.integers(0, 5)) != 0,
                                      data.draw(_LEVELS), 1000.0)
                db.update(lsa)
                installed.append(lsa)
                continue
            src, dst, exclude_links, exclude_nodes, params = data.draw(
                st.sampled_from(self.QUERIES), label="query")
            k = data.draw(st.integers(1, 3))
            fresh = LinkStateDB(topo)
            for lsa in installed:
                fresh.update(lsa)
            kwargs = dict(exclude_links=exclude_links, exclude_nodes=exclude_nodes)
            assert (_route(shortest_path, db, src, dst, params, **kwargs)
                    == _route(shortest_path, fresh, src, dst, params, **kwargs))
            assert (disjoint_paths(db, src, dst, k, params, exclude_links=exclude_links)
                    == disjoint_paths(fresh, src, dst, k, params, exclude_links=exclude_links))

    def test_repeated_query_is_searched_once_per_install(self, monkeypatch):
        db = saturated_db(_GRID6)
        searches = []
        search = routing._search

        def counted(*args):
            searches.append(args[1:3])
            return search(*args)

        monkeypatch.setattr(routing, "_search", counted)
        first = shortest_path(db, "u0", "u1")
        assert shortest_path(db, "u0", "u1") is first and len(searches) == 1
        # another exclude set, or other cost values, is another query
        shortest_path(db, "u0", "u1", exclude_links={"AB"})
        shortest_path(db, "u0", "u1", RouteCostParams(hop_cost=0.5))
        assert len(searches) == 3
        # an install that changes nothing usable still drops every answer
        held = db.ads["AB"]["A"]
        assert db.update(LinkStateAd("AB", "A", held.seq + 1, True, held.level_bytes,
                                     held.rate_bps))
        assert shortest_path(db, "u0", "u1") == first and len(searches) == 4

    def test_no_route_is_kept_and_raised_each_time(self, monkeypatch):
        db = LinkStateDB(_GRID6)
        searches = []
        search = routing._search
        monkeypatch.setattr(routing, "_search",
                            lambda *args: searches.append(args) or search(*args))
        for _ in range(2):
            with pytest.raises(NoRoute):
                shortest_path(db, "A", "F")
        assert len(searches) == 1
