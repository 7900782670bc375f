"""Topology model: parsing, validation, presets, scaling formulas."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from qkdnet.model import (
    LinkClass,
    NodeKind,
    ParseError,
    Topology,
    ValidationError,
    building_block_preset,
    full_mesh_link_count,
    load_topology,
    network_access_link_count,
    serialize_topology,
    vienna_preset,
)

MINIMAL = """
[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30
[node] name=A kind=qbb
[node] name=B kind=qbb
[link] id=AB a=A b=B km=20 profile=p class=qbb preshared=8192
"""


def test_minimal_config():
    topo = load_topology(MINIMAL)
    assert len(topo.nodes) == 2
    assert len(topo.links) == 1
    assert topo.link("AB").length_km == 20.0
    assert topo.nodes["A"] is NodeKind.QBB


def test_self_loop_rejected():
    bad = MINIMAL.replace("a=A b=B", "a=A b=A")
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_duplicate_link_id_rejected():
    bad = MINIMAL + "[link] id=AB a=B b=A km=5 profile=p class=qbb preshared=8192\n"
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_disconnected_rejected():
    bad = MINIMAL + "[node] name=C kind=qbb\n"
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_unknown_profile_rejected():
    bad = MINIMAL.replace("profile=p class", "profile=zzz class")
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_malformed_line_is_parse_error():
    with pytest.raises(ParseError):
        load_topology("not a section line\n")
    with pytest.raises(ParseError):
        load_topology("[link] id=AB km=oops\n")


def test_qan_link_needs_one_user_end():
    bad = MINIMAL.replace("class=qbb", "class=qan_fiber")
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_preshared_floor_enforced():
    bad = MINIMAL.replace("preshared=8192", "preshared=100")
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_roundtrip_identity():
    for topo in (vienna_preset(), building_block_preset()):
        assert load_topology(serialize_topology(topo)) == topo


def test_vienna_shape():
    topo = vienna_preset()
    qbb = topo.qbb_links()
    qan = topo.qan_links()
    assert len(qbb) == 7
    assert len(qan) == 2
    assert topo.link("BREIT-STP").length_km == 85.0
    ring = [topo.link(i).length_km for i in ("SIE-ERD", "ERD-GUD", "GUD-BREIT", "BREIT-SIE")]
    assert sorted(ring) == [15.0, 15.0, 16.0, 17.0]
    assert sum(ring) == 63.0
    assert all(l.link_class is LinkClass.QAN_FREESPACE for l in qan)


def test_vienna_core_survives_any_single_core_cut():
    """Removing any one ring or diagonal link keeps the backbone connected;
    cutting the spur isolates its leaf node."""
    topo = vienna_preset()
    core = {"SIE-ERD", "ERD-GUD", "GUD-BREIT", "BREIT-SIE", "SIE-GUD", "ERD-BREIT"}

    def connected_without(link_id):
        nodes = {n for n, k in topo.nodes.items() if k is NodeKind.QBB}
        adj = {n: set() for n in nodes}
        for l in topo.qbb_links():
            if l.id != link_id:
                adj[l.a].add(l.b)
                adj[l.b].add(l.a)
        seen, stack = {"SIE"}, ["SIE"]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen == nodes

    for link_id in core:
        assert connected_without(link_id), link_id
    assert not connected_without("BREIT-STP")


def _grid_with_users(n: int = 4, users: int = 5) -> Topology:
    """n x n backbone grid plus users on access fibres, links in shuffled
    order so no node's links sit together."""
    rng = Random(7)
    lines = ["[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30"]
    lines += [f"[node] name=N{r}{c} kind=qbb" for r in range(n) for c in range(n)]
    links = []
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < n and c2 < n:
                    links.append(f"[link] id=N{r}{c}-N{r2}{c2} a=N{r}{c} b=N{r2}{c2} "
                                 f"km=20 profile=p class=qbb preshared=8192")
    anchors = rng.sample([f"N{r}{c}" for r in range(n) for c in range(n)], users)
    for i, anchor in enumerate(anchors):
        lines.append(f"[node] name=u{i} kind=user")
        links.append(f"[link] id={anchor}-u{i} a=u{i} b={anchor} km=2 profile=p "
                     f"class=qan_fiber preshared=8192")
    rng.shuffle(links)
    return load_topology("\n".join(lines + links) + "\n")


@pytest.mark.parametrize("make", [vienna_preset, building_block_preset, _grid_with_users],
                         ids=["vienna", "building-block", "grid"])
def test_adjacency_follows_link_order(make):
    # flooding order depends on the order of a node's links
    topo = make()
    for node in topo.nodes:
        scan = [(l.b if l.a == node else l.a, l) for l in topo.links if node in (l.a, l.b)]
        assert list(topo.neighbors(node)) == scan
        assert list(topo.links_at(node)) == [l for _, l in scan]
        if topo.kind(node) is NodeKind.END_USER:
            assert topo.attachment_of(node) == scan[0]


def test_scaling_formulas():
    assert full_mesh_link_count(5) == 10
    assert full_mesh_link_count(1) == 0
    assert full_mesh_link_count(100) == 4950
    assert network_access_link_count(5) == 5
    assert network_access_link_count(1) == 1
    assert network_access_link_count(100) == 100
    with pytest.raises(ValueError):
        full_mesh_link_count(0)


@given(st.integers(min_value=3, max_value=100000))
def test_mesh_advantage_formula(n):
    # full mesh minus access network is n(n-3)/2, non-negative from n=3 up
    assert full_mesh_link_count(n) - network_access_link_count(n) == n * (n - 3) // 2
    assert full_mesh_link_count(n) >= network_access_link_count(n)


def test_mesh_equals_access_only_at_three():
    assert full_mesh_link_count(3) == network_access_link_count(3)
    assert full_mesh_link_count(2) < network_access_link_count(2)
