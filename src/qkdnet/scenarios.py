"""The scenario: its model, its grammar and parser, the checks every run
passes, and the bundled scripts.

``parse_scenario`` checks only the text. ``Engine`` calls ``check_scenario``
on every scenario, parsed or built in code, and ``Engine.inject`` checks an
event by the same per-event rule, ``check_event``. The bundled scripts run
on the vienna preset: baseline growth, failover around a cut link, a DoS
drain plus refill over alternate routes, and a three-route multipath split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import inf

from .model import REQUIRED, ByKind, ParseError, Topology, read_config


class ScenarioError(Exception):
    """Malformed or inconsistent scenario."""


class EventKind(Enum):
    PRODUCE_TICK = "produce_tick"
    MSG_ARRIVE = "msg_arrive"
    LINK_FAIL = "link_fail"
    LINK_RESTORE = "link_restore"
    DOS_DRAIN = "dos_drain"
    KEY_REQUEST = "key_request"
    DAY_WINDOW = "day_window"
    REFILL = "refill"
    TIMER = "timer"
    DEADLINE = "deadline"
    FINALIZE = "finalize"


@dataclass(slots=True)
class Event:
    time_s: float
    kind: EventKind
    payload: dict


@dataclass
class Scenario:
    duration_s: float
    seed: int = 0
    events: list[Event] = field(default_factory=list)
    loss_default: float = 0.0
    loss_per_link: dict[str, float] = field(default_factory=dict)
    jitter_ms: float = 0.0

    def loss_for(self, link_id: str) -> float:
        return self.loss_per_link.get(link_id, self.loss_default)


_AT = {"t": ("time_s", float, REQUIRED)}
_LINK = ("link", str, REQUIRED)

# an event line's row is its event's "time_s", then its payload
SCENARIO_GRAMMAR = {
    "scenario": {
        "duration": ("duration_s", float, REQUIRED),
        "seed": ("seed", int, 0),
        "loss": ("loss_default", float, 0.0),
        "jitter_ms": ("jitter_ms", float, 0.0),
    },
    "loss": {"link": _LINK, "p": ("p", float, REQUIRED)},
    "event": ByKind({
        "request": (EventKind.KEY_REQUEST, {
            **_AT, "src": ("src", str, REQUIRED), "dst": ("dst", str, REQUIRED),
            "bytes": ("n_bytes", int, REQUIRED), "k": ("multipath", int, 1),
            "deadline": ("deadline_s", float, None)}),
        "fail": (EventKind.LINK_FAIL, {**_AT, "link": _LINK}),
        "restore": (EventKind.LINK_RESTORE, {**_AT, "link": _LINK}),
        "dos": (EventKind.DOS_DRAIN, {
            **_AT, "link": _LINK, "rate": ("rate_bytes_per_s", float, REQUIRED),
            "duration": ("duration_s", float, REQUIRED)}),
        "refill": (EventKind.REFILL, {
            **_AT, "link": _LINK, "bytes": ("n_bytes", int, REQUIRED), "k": ("multipath", int, 2)}),
        "daywindow": (EventKind.DAY_WINDOW, {
            **_AT, "start": ("start", float, REQUIRED), "end": ("end", float, REQUIRED)}),
    }),
}

# the kinds a scenario (or ``Engine.inject``) may carry; the others are the
# engine's own. A tuple, most common (request, listed first) first: its
# ``in`` tests identity, while hashing an enum member runs Python code
_SCENARIO_KINDS = tuple(tag for tag, _ in SCENARIO_GRAMMAR["event"].values())
_REQUEST, _DAY_WINDOW, _REFILL, _DOS = (   # enum member lookups are slow on CPython 3.11
    EventKind.KEY_REQUEST, EventKind.DAY_WINDOW, EventKind.REFILL, EventKind.DOS_DRAIN)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text by ``SCENARIO_GRAMMAR``: one ``[scenario]`` line,
    at most one ``[loss]`` line per link, and ``[event]`` lines."""
    head: dict = {}
    loss_per_link: dict[str, float] = {}
    events: list[Event] = []
    try:
        rows = read_config(text, SCENARIO_GRAMMAR)
    except ParseError as exc:
        raise ScenarioError(str(exc)) from None
    for lineno, section, row in rows:
        if section == "loss":
            if row["link"] in loss_per_link:
                raise ScenarioError(f"line {lineno}: repeated [loss] for link {row['link']!r}")
            loss_per_link[row["link"]] = row["p"]
        elif section == "scenario":
            if head:
                raise ScenarioError(f"line {lineno}: repeated [scenario] line")
            head = row
        else:   # an event line comes back under its EventKind
            events.append(Event(row.pop("time_s"), section, row))
    if not head:
        raise ScenarioError("scenario needs a positive finite duration")
    return Scenario(events=events, loss_per_link=loss_per_link, **head)


def check_scenario(scenario: Scenario, topology: Topology) -> None:
    """Refuse a scenario that no run over ``topology`` can honour, or that
    names a link it does not have; each event by ``check_event``."""
    duration = scenario.duration_s
    # written so that NaN, which fails every comparison, is refused too
    if not 0.0 < duration < inf:
        raise ScenarioError("scenario needs a positive finite duration")
    if not 0.0 <= scenario.loss_default <= 1.0:
        raise ScenarioError(f"scenario loss {scenario.loss_default} outside [0, 1]")
    if not 0.0 <= scenario.jitter_ms < inf:
        raise ScenarioError(f"scenario jitter_ms {scenario.jitter_ms} is negative or not finite")
    for link_id, loss in scenario.loss_per_link.items():
        if not topology.has_link(link_id):
            raise ScenarioError(f"loss entry for unknown link {link_id!r}")
        if not 0.0 <= loss <= 1.0:
            raise ScenarioError(f"loss p={loss} for link {link_id!r} outside [0, 1]")
    for event in scenario.events:
        check_event(event, topology, duration)


def check_event(event: Event, topology: Topology, duration: float) -> None:
    """Refuse an event outside [0, duration], not of a scenario kind,
    lacking a payload key, naming a node or link the topology does not
    have, or carrying values no run can honour."""
    t, kind, p = event.time_s, event.kind, event.payload
    # written so that NaN, which fails every comparison, is refused too
    if not 0.0 <= t <= duration:
        raise ScenarioError(f"event at t={t} outside [0, {duration}]")
    if kind not in _SCENARIO_KINDS:
        raise ScenarioError(f"event at t={t} has non-scenario kind {kind}")
    request = kind is _REQUEST
    try:
        if request:
            deadline = p.get("deadline_s")
            if deadline is not None and not 0.0 < deadline < inf:
                raise ScenarioError(f"request at t={t} needs a finite deadline > 0")
            for end in (p["src"], p["dst"]):
                if end not in topology.nodes:
                    raise ScenarioError(f"request at t={t} names unknown node {end!r}")
            if p["src"] == p["dst"]:
                raise ScenarioError(f"request at t={t} has src == dst")
        elif kind is _DAY_WINDOW:
            if not 0.0 <= p["start"] <= p["end"]:
                raise ScenarioError(f"daywindow at t={t} needs 0 <= start <= end")
        elif not topology.has_link(p["link"]):
            raise ScenarioError(f"event at t={t} names unknown link {p['link']!r}")
        if (request or kind is _REFILL) and (p["n_bytes"] <= 0 or p["multipath"] < 1):
            raise ScenarioError(f"event at t={t} has invalid size or k")
        if kind is _DOS and not (
                0 <= p["rate_bytes_per_s"] < inf and p["duration_s"] > 0):
            raise ScenarioError(f"dos at t={t} needs a finite rate >= 0 and a duration > 0")
    except KeyError as missing:
        raise ScenarioError(f"a scenario event lacks payload key {missing}") from None


BASELINE = """\
# quiet network: stores grow, one small delivery
[scenario] duration=10 seed=42
[event] t=1.0 kind=request src=alice dst=bob bytes=4096 k=1
"""

FAILOVER = """\
# cut the direct SIE-ERD link mid-delivery; traffic reroutes and completes
[scenario] duration=12 seed=7
[event] t=1.0  kind=request src=alice dst=bob bytes=49152 k=1
[event] t=1.03 kind=fail link=SIE-ERD
[event] t=8.0  kind=restore link=SIE-ERD
"""

DOS_RECOVERY = """\
# authenticated-spam drain empties SIE-ERD, then the pre-shared secret is
# restored over the remaining links
[scenario] duration=12 seed=11
[event] t=1.0 kind=dos link=SIE-ERD rate=60000 duration=3.0
[event] t=6.0 kind=refill link=SIE-ERD bytes=8192 k=2
"""

MULTIPATH = """\
# one request spread over the three interior-disjoint SIE-ERD routes
[scenario] duration=8 seed=5
[event] t=1.0 kind=request src=alice dst=bob bytes=32768 k=3
"""

# the bundled planner parameter set; each key sets the ``plan`` option of
# its name
PLANNER_SWEEP = {"alpha": 0.2, "r0": 10000.0, "device_cost": 1.0, "distance": 100.0,
                 "geometry": "chain"}

BUNDLED = {
    "baseline": BASELINE,
    "failover": FAILOVER,
    "dos-recovery": DOS_RECOVERY,
    "multipath": MULTIPATH,
}


def bundled_scenario(name: str) -> str:
    try:
        return BUNDLED[name]
    except KeyError:
        raise KeyError(
            f"unknown bundled scenario {name!r}; have {sorted(BUNDLED)}"
        ) from None
