"""Key-aware link-state routing: flooded advertisements carry each link
end's status and the key that end can send; path costs grow as sending
pools drain, so traffic steers away from scarce links.

An end sends only from its own pool, so that pool is the level it
advertises, as an OSPF router-LSA advertises the cost out of its originating
router (RFC 2328 §12.4.1). Each link end originates an advertisement (LSA)
only when its view changes: up/down, or its store level (own pool plus the
peer's unopened pool) crossing the authentication floor or moving past the
hysteresis. LSAs are flooded with sequence-number duplicate suppression.
Flooding is made reliable the way IS-IS does it, with complete
sequence-number summaries (ISO/IEC 10589 CSNP) instead of per-LSA acks:
every ``SUMMARY_S`` and when a link is restored, each node sends each
neighbour one authenticated frame listing ``(instance hash, seq)`` for every
LSA in its database, and a node that receives one sends back every LSA the
summary lacks or holds older. That one path repairs lost LSAs, LSAs skipped
for lack of key and cuts healed by a restore, at a constant 32 bytes of
authentication key per link direction per period. A summary lists its
entries in instance-hash order, as a CSNP lists LSP IDs in order, so two
databases that hold the same LSAs give equal bytes, and a node that receives
a summary equal to its own has nothing to send back.

An advertisement is held once per run, not once per node: a node whose
frame carries the bytes of an instance's last origination (``LsaTable``)
installs the originator's own, frozen, object. Only a frame that matches
none, such as an older instance still in flight, is decoded.

Each node's database keeps one number per link beside the advertisements:
the lower of the two ends' sendable key when the link is usable, set when
an advertisement is installed. Path search reads that table and never
re-derives an advertisement pair on an edge. Everything derived from the
database (its summary and every path search's answer) is kept until the
database next installs an advertisement, as OSPF recomputes routes only
when its LSDB changes (RFC 2328 §16)."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from typing import Iterable

from .model import NodeKind, Topology
from .q3p import AUTH_RESERVE_DEFAULT

_LSA_WIRE = struct.Struct(">IQBQ")
_SUMMARY_ENTRY = struct.Struct(">IQ")


class NoRoute(Exception):
    """No usable path exists between the requested endpoints."""


@dataclass(slots=True, frozen=True)
class LinkStateAd:
    """One endpoint's advertised view of its link; frozen, because every
    database that installed an advertisement holds the same object.
    ``level_bytes`` is the key that end can send: its own pool
    (``KeyStore.pool_available``), not its store level."""

    link_id: str
    origin: str
    seq: int
    up: bool
    level_bytes: int


@cache
def lsa_instance_hash(link_id: str, origin: str) -> int:
    """32-bit identifier of one (link, advertising end) instance, computed
    once per instance."""
    return zlib.crc32(f"{link_id}/{origin}".encode())


def encode_lsa(lsa: LinkStateAd) -> bytes:
    """21-byte advertisement payload carried inside routing frames.

    Big-endian: u32 instance hash, u64 seq, u8 status, u64 level bytes.
    """
    return _LSA_WIRE.pack(
        lsa_instance_hash(lsa.link_id, lsa.origin),
        lsa.seq,
        1 if lsa.up else 0,
        lsa.level_bytes,
    )


def decode_lsa(data: bytes, instances: dict[int, tuple[str, str]]) -> LinkStateAd:
    """Decode an advertisement; ``instances`` maps hash -> (link, origin)."""
    h, seq, status, level = _LSA_WIRE.unpack(data)
    link_id, origin = instances[h]
    return LinkStateAd(link_id=link_id, origin=origin, seq=seq, up=status == 1,
                       level_bytes=level)


def encode_summary(lsas: Iterable[LinkStateAd]) -> bytes:
    """Database summary payload: one 12-byte big-endian entry per LSA, u32
    instance hash then u64 seq."""
    return b"".join(
        _SUMMARY_ENTRY.pack(lsa_instance_hash(lsa.link_id, lsa.origin), lsa.seq)
        for lsa in lsas
    )


def decode_summary(data: bytes,
                   instances: dict[int, tuple[str, str]]) -> dict[tuple[str, str], int]:
    """(link, origin) -> seq held by the summary's sender; ``instances``
    maps hash -> (link, origin)."""
    return {instances[h]: seq for h, seq in _SUMMARY_ENTRY.iter_unpack(data)}


class LsaTable:
    """One run's last origination of each (link, origin) instance, keyed by
    its wire bytes: only ``encode`` writes it, so it holds at most one entry
    per instance. ``instances`` maps hash -> (link, origin)."""

    def __init__(self, instances: dict[int, tuple[str, str]]) -> None:
        self.instances = instances
        self._ads: dict[bytes, LinkStateAd] = {}              # wire bytes -> entry
        self._wire: dict[tuple[str, str], bytes] = {}         # instance -> its entry's bytes

    def encode(self, lsa: LinkStateAd) -> bytes:
        """``encode_lsa(lsa)``, kept as its instance's entry in place of the last."""
        payload = encode_lsa(lsa)
        instance = (lsa.link_id, lsa.origin)
        self._ads.pop(self._wire.get(instance), None)
        self._wire[instance] = payload
        self._ads[payload] = lsa
        return payload

    def decode(self, payload: bytes) -> LinkStateAd:
        """The entry whose bytes equal ``payload``, else a decoded copy."""
        lsa = self._ads.get(payload)
        return lsa if lsa is not None else decode_lsa(payload, self.instances)


def lsa_instances(topo: Topology) -> dict[int, tuple[str, str]]:
    out: dict[int, tuple[str, str]] = {}
    for link in topo.links:
        for origin in (link.a, link.b):
            h = lsa_instance_hash(link.id, origin)
            if h in out:
                raise ValueError(f"LSA instance hash collision on {link.id}/{origin}")
            out[h] = (link.id, origin)
    return out


# cost of one usable link = HOP_COST + SCARCITY_WEIGHT * its key depletion,
# the shortfall of its lower end's level below TARGET_LEVEL_BYTES
HOP_COST = 1.0
SCARCITY_WEIGHT = 1.0
TARGET_LEVEL_BYTES = 65536


def step_cost(level_bytes: int) -> float:
    """Cost of one usable link whose lower end holds ``level_bytes``."""
    return HOP_COST + SCARCITY_WEIGHT * max(0.0, 1.0 - level_bytes / TARGET_LEVEL_BYTES)


class LinkStateDB:
    """Freshest advertisement from each end of each link, per node.

    ``usable_levels`` maps each usable link to the lower of its two ends'
    levels and holds no entry for any other link. ``update`` is the only
    writer of ``ads`` and sets the link's entry whenever it installs an
    advertisement, against the authentication floor ``AUTH_RESERVE_DEFAULT``.
    Every install also drops what was derived from the database before it:
    the summary payload (``summary``) and ``routes``, the answers of
    ``shortest_path`` (a ``Path``, or None for ``NoRoute``) by query.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.ads: dict[str, dict[str, LinkStateAd]] = {}
        self.usable_levels: dict[str, int] = {}
        self.routes: dict[tuple, Path | None] = {}
        self._summary: bytes | None = None

    def update(self, lsa: LinkStateAd) -> bool:
        """Install if strictly newer than the held instance; returns whether
        anything changed."""
        both = self.ads.setdefault(lsa.link_id, {})
        held = both.get(lsa.origin)
        if held is not None and lsa.seq <= held.seq:
            return False
        link = self.topology.link(lsa.link_id)
        both[lsa.origin] = lsa
        self.routes.clear()
        self._summary = None
        a, b = both.get(link.a), both.get(link.b)
        floor = AUTH_RESERVE_DEFAULT
        # usable: both ends advertise Up and hold more key than the floor
        if (a is not None and b is not None and a.up and b.up
                and a.level_bytes > floor and b.level_bytes > floor):
            self.usable_levels[lsa.link_id] = min(a.level_bytes, b.level_bytes)
        else:
            self.usable_levels.pop(lsa.link_id, None)
        return True

    def lsas(self) -> Iterable[LinkStateAd]:
        """Every held advertisement, in installation order."""
        for both in self.ads.values():
            yield from both.values()

    def summary(self) -> bytes:
        """The summary payload (``encode_summary``) of every held
        advertisement, in instance-hash order: databases holding the same
        (instance, seq) set give equal bytes. Built once per install."""
        if self._summary is None:
            self._summary = encode_summary(sorted(
                self.lsas(), key=lambda lsa: lsa_instance_hash(lsa.link_id, lsa.origin)))
        return self._summary

    def usable(self, link_id: str) -> bool:
        """A link carries traffic only if both ends advertise Up and hold
        more key than the authentication floor."""
        return link_id in self.usable_levels

    def min_level(self, link_id: str) -> int:
        """The lower advertised level of a usable link; paths hold no other."""
        return self.usable_levels[link_id]


@dataclass(frozen=True)
class Path:
    """Alternating node/link walk; consecutive links share one node."""

    nodes: tuple[str, ...]
    links: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.links) + 1:
            raise ValueError("need exactly one more node than links")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path repeats a node")

    @property
    def interior(self) -> tuple[str, ...]:
        return self.nodes[1:-1]


def shortest_path(
    db: LinkStateDB,
    src: str,
    dst: str,
    exclude_links: frozenset[str] | set[str] = frozenset(),
    exclude_nodes: frozenset[str] | set[str] = frozenset(),
) -> Path:
    """Minimum-cost usable path; ties break toward the lexicographically
    smallest node-name sequence, so identical databases always yield the
    same route.

    Each edge's cost comes from the database's per-link level table. Heap
    order alone settles ties: an entry is (cost, node sequence, link
    sequence), and no two entries are equal because each node expands once,
    so the pop order does not depend on the order neighbours are pushed in.
    The answer depends on nothing but the query and that table, so it is
    kept in ``db.routes`` until the database next installs an advertisement.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    query = (src, dst, frozenset(exclude_links), frozenset(exclude_nodes))
    try:
        path = db.routes[query]
    except KeyError:
        path = db.routes[query] = _search(db, src, dst, exclude_links, exclude_nodes)
    if path is None:
        raise NoRoute(f"no usable path {src} -> {dst}")
    return path


def _search(db: LinkStateDB, src: str, dst: str,
            exclude_links: frozenset[str] | set[str],
            exclude_nodes: frozenset[str] | set[str]) -> Path | None:
    """``shortest_path``'s search itself; None when there is no route."""
    topo = db.topology
    kinds = topo.nodes
    levels = db.usable_levels
    heap: list[tuple[float, tuple[str, ...], tuple[str, ...]]] = [(0.0, (src,), ())]
    done: set[str] = set()
    while heap:
        cost, nodes, link_ids = heappop(heap)
        at = nodes[-1]
        if at == dst:
            return Path(nodes=nodes, links=link_ids)
        if at in done:
            continue
        done.add(at)
        for neighbor, link in topo.neighbors(at):
            if neighbor in done:
                continue
            if neighbor in exclude_nodes or link.id in exclude_links:
                continue
            # end-users never carry transit traffic
            if kinds[neighbor] is NodeKind.END_USER and neighbor != dst:
                continue
            level = levels.get(link.id)
            if level is None:
                continue
            heappush(heap, (cost + step_cost(level),
                            nodes + (neighbor,), link_ids + (link.id,)))
    return None


def _collapse_user(topo: Topology, node: str) -> tuple[str, str | None]:
    """End-users hang off one backbone node; return (anchor, access link)."""
    if topo.kind(node) is NodeKind.END_USER:
        anchor, link = topo.attachment_of(node)
        return anchor, link.id
    return node, None


def disjoint_paths(
    db: LinkStateDB,
    src: str,
    dst: str,
    k: int,
    exclude_links: frozenset[str] | set[str] = frozenset(),
) -> list[Path]:
    """Up to ``k`` usable paths whose interiors share no node, by iterative
    shortest-path with interior removal, cheapest first.

    End-user endpoints are collapsed onto their backbone anchor: the single
    access link is shared by every path, and disjointness applies to the
    relay nodes strictly between the two anchors.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    topo = db.topology
    src_anchor, src_access = _collapse_user(topo, src)
    dst_anchor, dst_access = _collapse_user(topo, dst)
    if src_access is not None and not db.usable(src_access):
        return []
    if dst_access is not None and not db.usable(dst_access):
        return []

    def _expand(core: Path) -> Path:
        nodes = core.nodes
        links = core.links
        if src_access is not None:
            nodes = (src,) + nodes
            links = (src_access,) + links
        if dst_access is not None:
            nodes = nodes + (dst,)
            links = links + (dst_access,)
        return Path(nodes=nodes, links=links)

    if src_anchor == dst_anchor:
        if src == dst or (src_access is None and dst_access is None):
            raise ValueError("src and dst must differ")
        core = Path(nodes=(src_anchor,), links=())
        return [_expand(core)]

    found: list[Path] = []
    banned_nodes: set[str] = set()
    banned_links: set[str] = set(exclude_links)
    while len(found) < k:
        try:
            core = shortest_path(
                db, src_anchor, dst_anchor,
                exclude_links=frozenset(banned_links),
                exclude_nodes=frozenset(banned_nodes),
            )
        except NoRoute:
            break
        found.append(_expand(core))
        banned_nodes.update(core.interior)
        banned_links.update(core.links)
    return found


class FloodingState:
    """Per-node duplicate suppression for OSPF-style flooding: an LSA floods
    on only if it is newer than the instance the node's database holds."""

    def __init__(self, db: LinkStateDB) -> None:
        self.db = db

    def accept(self, lsa: LinkStateAd) -> bool:
        """True (and install) if this advertisement is newer than any held."""
        return self.db.update(lsa)
