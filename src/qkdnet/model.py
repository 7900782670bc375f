"""Topology data model for trusted-repeater QKD networks.

A topology is a graph of backbone (QBB) nodes and end-user nodes joined by
QKD links. Each link carries a device profile (rate law parameters) and an
initial pre-shared secret that bootstraps authentication. Topologies are
immutable after loading and safe to share across components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .q3p import AUTH_RESERVE_DEFAULT


class ParseError(Exception):
    """Raised when topology or scenario text is malformed."""


class ValidationError(Exception):
    """Raised when a parsed topology violates a structural invariant."""


class NodeKind(str, Enum):
    QBB = "qbb"
    END_USER = "user"


class LinkClass(str, Enum):
    QBB_FIBER = "qbb"
    QAN_FIBER = "qan_fiber"
    QAN_FREESPACE = "qan_freespace"


@dataclass(frozen=True)
class DeviceProfile:
    """Key-rate and operational parameters of one QKD device family.

    The secret-key rate follows exponential fiber attenuation,
    ``r0_bps * 10 ** (-alpha_db_per_km * length / 10)``, and drops to zero
    beyond ``max_length_km``. ``night_only`` devices (free-space optics)
    produce nothing during declared daytime windows.
    """

    id: str
    r0_bps: float
    alpha_db_per_km: float
    max_length_km: float
    restart_latency_s: float
    night_only: bool = False

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("profile id must be non-empty")
        if self.r0_bps <= 0:
            raise ValidationError(f"profile {self.id}: r0_bps must be > 0")
        if self.alpha_db_per_km < 0:
            raise ValidationError(f"profile {self.id}: alpha must be >= 0")
        if self.restart_latency_s < 0:
            raise ValidationError(f"profile {self.id}: restart_s must be >= 0")


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one QKD link between two nodes."""

    id: str
    a: str
    b: str
    length_km: float
    profile: str
    link_class: LinkClass
    preshared_bytes: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("link id must be non-empty")
        if self.a == self.b:
            raise ValidationError(f"link {self.id}: self-loop {self.a}")
        if self.length_km < 0:
            raise ValidationError(f"link {self.id}: negative length")
        if self.preshared_bytes < AUTH_RESERVE_DEFAULT:
            raise ValidationError(
                f"link {self.id}: preshared_bytes {self.preshared_bytes} below "
                f"authentication floor {AUTH_RESERVE_DEFAULT}"
            )


@dataclass
class Topology:
    """Validated, immutable-by-convention network graph."""

    nodes: dict[str, NodeKind]
    links: tuple[LinkSpec, ...]
    profiles: dict[str, DeviceProfile]
    _by_id: dict[str, LinkSpec] = field(init=False, repr=False, compare=False)
    _adjacent: dict[str, tuple[tuple[str, LinkSpec], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_id = {l.id: l for l in self.links}
        # node -> (neighbour, link) in link order; flooding order follows it
        adjacent: dict[str, list[tuple[str, LinkSpec]]] = {}
        for l in self.links:
            adjacent.setdefault(l.a, []).append((l.b, l))
            adjacent.setdefault(l.b, []).append((l.a, l))
        self._adjacent = {node: tuple(pairs) for node, pairs in adjacent.items()}

    def link(self, link_id: str) -> LinkSpec:
        return self._by_id[link_id]

    def has_link(self, link_id: str) -> bool:
        return link_id in self._by_id

    def profile_of(self, link: LinkSpec | str) -> DeviceProfile:
        if isinstance(link, str):
            link = self._by_id[link]
        return self.profiles[link.profile]

    def kind(self, node: str) -> NodeKind:
        return self.nodes[node]

    def links_at(self, node: str) -> tuple[LinkSpec, ...]:
        return tuple(l for _, l in self._adjacent.get(node, ()))

    def neighbors(self, node: str) -> tuple[tuple[str, LinkSpec], ...]:
        return self._adjacent.get(node, ())

    def qbb_links(self) -> list[LinkSpec]:
        return [l for l in self.links if l.link_class is LinkClass.QBB_FIBER]

    def qan_links(self) -> list[LinkSpec]:
        return [l for l in self.links if l.link_class is not LinkClass.QBB_FIBER]

    def attachment_of(self, user: str) -> tuple[str, LinkSpec]:
        """Backbone node and access link of an end-user node."""
        ((other, link),) = self._adjacent.get(user, ())
        return other, link


def _connected(nodes: set[str], edges: list[tuple[str, str]]) -> bool:
    if not nodes:
        return True
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for m in adj[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen == nodes


def validate_topology(topo: Topology) -> None:
    """Check all structural invariants; raise ValidationError on the first hit."""
    seen_ids: set[str] = set()
    for name in topo.nodes:
        if not name:
            raise ValidationError("node name must be non-empty")
    for link in topo.links:
        if link.id in seen_ids:
            raise ValidationError(f"duplicate link id {link.id}")
        seen_ids.add(link.id)
        for end in (link.a, link.b):
            if end not in topo.nodes:
                raise ValidationError(f"link {link.id}: unknown node {end}")
        if link.profile not in topo.profiles:
            raise ValidationError(f"link {link.id}: unknown profile {link.profile}")
        kinds = {topo.nodes[link.a], topo.nodes[link.b]}
        if link.link_class is LinkClass.QBB_FIBER:
            if kinds != {NodeKind.QBB}:
                raise ValidationError(f"QBB link {link.id} must join two backbone nodes")
        else:
            n_users = sum(
                1 for end in (link.a, link.b) if topo.nodes[end] is NodeKind.END_USER
            )
            if n_users != 1:
                raise ValidationError(
                    f"access link {link.id} must have exactly one end-user endpoint"
                )
    for name, kind in topo.nodes.items():
        if kind is NodeKind.END_USER:
            incident = topo.links_at(name)
            if len(incident) != 1:
                raise ValidationError(
                    f"end-user {name} must have exactly one access link, has {len(incident)}"
                )
    if not _connected(set(topo.nodes), [(l.a, l.b) for l in topo.links]):
        raise ValidationError("topology is not connected")


# --- sectioned key-value config text -------------------------------------
#
# A grammar maps each section to its table. A table maps each key to
# ``(name, convert, default)``: the name its converted value is stored
# under, the converter, and the value of an absent key, or ``REQUIRED``.

REQUIRED = object()


class ByKind(dict):
    """The table of a section whose lines choose their keys by their
    ``kind`` key: kind -> ``(tag, table)``. Such a line's row comes back
    under its kind's tag in place of the section name."""


_CLASS_NAMES = {c.value: c for c in LinkClass}
_KIND_NAMES = {"qbb": NodeKind.QBB, "user": NodeKind.END_USER}
_BOOL_NAMES = {"true": True, "1": True, "false": False, "0": False}


TOPOLOGY_GRAMMAR = {
    "node": {"name": ("name", str, REQUIRED), "kind": ("kind", _KIND_NAMES.__getitem__, REQUIRED)},
    "profile": {
        "id": ("id", str, REQUIRED),
        "r0_bps": ("r0_bps", float, REQUIRED),
        "alpha": ("alpha_db_per_km", float, REQUIRED),
        "max_km": ("max_length_km", float, REQUIRED),
        "restart_s": ("restart_latency_s", float, REQUIRED),
        "night_only": ("night_only", lambda value: _BOOL_NAMES[value.lower()], False),
    },
    "link": {
        "id": ("id", str, REQUIRED),
        "a": ("a", str, REQUIRED),
        "b": ("b", str, REQUIRED),
        "km": ("length_km", float, REQUIRED),
        "profile": ("profile", str, REQUIRED),
        "class": ("link_class", _CLASS_NAMES.__getitem__, REQUIRED),
        "preshared": ("preshared_bytes", int, REQUIRED),
    },
}


def _parse_lines(text: str) -> list[tuple[int, str, dict[str, str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        if line[0] != "[":
            raise ParseError(f"line {lineno}: expected '[section] key=value ...'")
        close = line.find("]")
        if close < 0:
            raise ParseError(f"line {lineno}: unterminated section tag")
        tokens = line[close + 1 :].split()
        fields: dict[str, str] = {}
        for tok in tokens:
            key, eq, value = tok.partition("=")
            if not eq:
                raise ParseError(f"line {lineno}: bad token {tok!r}")
            fields[key] = value
        if len(fields) < len(tokens):
            keys = [tok.partition("=")[0] for tok in tokens]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ParseError(f"line {lineno}: repeated key {repeated!r}")
        out.append((lineno, line[1:close].strip(), fields))
    return out


def read_config(text: str, grammar: dict) -> list[tuple[int, object, dict]]:
    """Read ``[section] key=value ...`` text by ``grammar``: one
    ``(lineno, section, row)`` per line, ``row`` mapping each name of the
    section's table to its converted value or its default. A section or key
    the grammar does not list, a missing required key and a value its
    converter refuses are a ``ParseError``."""
    rows = []
    for lineno, section, fields in _parse_lines(text):
        table = grammar.get(section)
        if table is None:
            raise ParseError(f"line {lineno}: unknown section [{section}]")
        if type(table) is ByKind:
            kind = fields.pop("kind", None)
            if kind not in table:
                what = "missing key 'kind'" if kind is None else f"unknown {section} kind {kind!r}"
                raise ParseError(f"line {lineno}: {what}")
            section, table = table[kind]
        matched = 0
        row = {}
        for key, (name, convert, default) in table.items():
            value = fields.get(key)
            if value is None:
                if default is REQUIRED:
                    raise ParseError(f"line {lineno}: missing key {key!r}")
                row[name] = default
                continue
            matched += 1
            if convert is not str:      # str would return the text itself
                try:
                    value = convert(value)
                except (KeyError, ValueError):
                    raise ParseError(f"line {lineno}: bad value {key}={value}") from None
            row[name] = value
        # keys are unique on a line, so a shortfall is a key the table lacks
        if matched < len(fields):
            unknown = next(key for key in fields if key not in table)
            raise ParseError(f"line {lineno}: unknown key {unknown!r}")
        rows.append((lineno, section, row))
    return rows


def load_topology(config_text: str) -> Topology:
    """Parse topology text by ``TOPOLOGY_GRAMMAR`` (order-insensitive, ``#``
    starts a comment) and validate the result."""
    nodes: dict[str, NodeKind] = {}
    profiles: dict[str, DeviceProfile] = {}
    links: list[LinkSpec] = []
    for _, section, row in read_config(config_text, TOPOLOGY_GRAMMAR):
        if section == "node":
            if row["name"] in nodes:
                raise ValidationError(f"duplicate node {row['name']}")
            nodes[row["name"]] = row["kind"]
        elif section == "profile":
            if row["id"] in profiles:
                raise ValidationError(f"duplicate profile {row['id']}")
            profiles[row["id"]] = DeviceProfile(**row)
        else:
            links.append(LinkSpec(**row))
    topo = Topology(nodes=nodes, links=tuple(links), profiles=profiles)
    validate_topology(topo)
    return topo


def serialize_topology(topo: Topology) -> str:
    """Render a topology back to config text by ``TOPOLOGY_GRAMMAR``
    (round-trips through load_topology); a key at its default is left out."""
    rows = {"node": [{"name": name, "kind": kind} for name, kind in topo.nodes.items()],
            "profile": map(vars, topo.profiles.values()), "link": map(vars, topo.links)}
    out = []
    for section, table in TOPOLOGY_GRAMMAR.items():
        for row in rows[section]:
            values = [(key, row[name]) for key, (name, _, default) in table.items()
                      if default is REQUIRED or row[name] != default]
            # an enum is written as its config name, anything else as itself
            out.append(f"[{section}] " + " ".join(
                f"{key}={getattr(value, 'value', value)}" for key, value in values))
    return "\n".join(out) + "\n"


# --- built-in presets -----------------------------------------------------

_VIENNA_CONFIG = """
# Metropolitan ring of four stations plus one long-haul spur, with the two
# ring diagonals cross-connected. Ring circumference 63 km (17+15+16+15);
# diagonal fibers run inside the ring duct, so each diagonal's length is the
# shorter way around (31 km). Profile-to-edge assignment is illustrative.
[profile] id=pp-swap      r0_bps=10000 alpha=0.2 max_km=60  restart_s=30
[profile] id=cow          r0_bps=12000 alpha=0.2 max_km=120 restart_s=30
[profile] id=decoy-bb84   r0_bps=15000 alpha=0.2 max_km=80  restart_s=45
[profile] id=entangled    r0_bps=8000  alpha=0.2 max_km=60  restart_s=60
[profile] id=cv           r0_bps=20000 alpha=0.3 max_km=40  restart_s=20
[profile] id=freespace    r0_bps=25000 alpha=1.0 max_km=5   restart_s=10 night_only=true
[profile] id=handheld     r0_bps=5000  alpha=2.0 max_km=2   restart_s=5

[node] name=SIE   kind=qbb
[node] name=ERD   kind=qbb
[node] name=GUD   kind=qbb
[node] name=BREIT kind=qbb
[node] name=STP   kind=qbb
[node] name=alice kind=user
[node] name=bob   kind=user

[link] id=SIE-ERD    a=SIE   b=ERD   km=17 profile=pp-swap    class=qbb preshared=131072
[link] id=ERD-GUD    a=ERD   b=GUD   km=15 profile=pp-swap    class=qbb preshared=131072
[link] id=GUD-BREIT  a=GUD   b=BREIT km=16 profile=pp-swap    class=qbb preshared=131072
[link] id=BREIT-SIE  a=BREIT b=SIE   km=15 profile=cv         class=qbb preshared=131072
[link] id=SIE-GUD    a=SIE   b=GUD   km=31 profile=decoy-bb84 class=qbb preshared=131072
[link] id=ERD-BREIT  a=ERD   b=BREIT km=31 profile=entangled  class=qbb preshared=131072
[link] id=BREIT-STP  a=BREIT b=STP   km=85 profile=cow        class=qbb preshared=131072
[link] id=SIE-alice  a=SIE   b=alice km=3  profile=freespace  class=qan_freespace preshared=131072
[link] id=ERD-bob    a=ERD   b=bob   km=1  profile=handheld   class=qan_freespace preshared=131072
"""

_BUILDING_BLOCK_CONFIG = """
# Universal four-node relay block: rectangle QA-QC-QB-QD with both diagonals,
# one user attached at each of the two diagonal corners. Flat rate law
# (alpha=0) keeps every core link at the same rate for composition tests.
[profile] id=relay    r0_bps=8000 alpha=0 max_km=100 restart_s=30
[profile] id=access-a r0_bps=6000 alpha=0 max_km=10  restart_s=5
[profile] id=access-b r0_bps=7000 alpha=0 max_km=10  restart_s=5

[node] name=QA kind=qbb
[node] name=QB kind=qbb
[node] name=QC kind=qbb
[node] name=QD kind=qbb
[node] name=alice kind=user
[node] name=bob   kind=user

[link] id=L1 a=QA b=QC km=20 profile=relay class=qbb preshared=131072
[link] id=L2 a=QC b=QB km=20 profile=relay class=qbb preshared=131072
[link] id=L3 a=QA b=QD km=20 profile=relay class=qbb preshared=131072
[link] id=L4 a=QD b=QB km=20 profile=relay class=qbb preshared=131072
[link] id=L5 a=QA b=QB km=28 profile=relay class=qbb preshared=131072
[link] id=L6 a=QC b=QD km=28 profile=relay class=qbb preshared=131072
[link] id=LA a=alice b=QA km=3 profile=access-a class=qan_fiber preshared=131072
[link] id=LB a=bob   b=QB km=2 profile=access-b class=qan_fiber preshared=131072
"""

PRESETS = {"vienna": _VIENNA_CONFIG, "building-block": _BUILDING_BLOCK_CONFIG}


def vienna_preset() -> Topology:
    """Five backbone stations, seven QBB links, two free-space access links."""
    return load_topology(_VIENNA_CONFIG)


def building_block_preset() -> Topology:
    """Four-node rectangle with diagonals: three interior-disjoint relay routes."""
    return load_topology(_BUILDING_BLOCK_CONFIG)


def preset(name: str) -> Topology:
    try:
        return load_topology(PRESETS[name])
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}") from None


# --- scaling formulas -----------------------------------------------------

def full_mesh_link_count(n_users: int) -> int:
    """Links needed to connect N users pairwise: N(N-1)/2."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    return n_users * (n_users - 1) // 2


def network_access_link_count(n_users: int) -> int:
    """Links needed when users share a backbone: one access link each."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    return n_users
