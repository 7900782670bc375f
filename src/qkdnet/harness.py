"""Deterministic discrete-event engine.

Runs a scenario (timed key requests, link failures, DoS drains, refills,
daylight windows) over a topology. Virtual time only; a fixed production
tick, fixed per-hop latency plus optional jitter, and one master seed split
into stable per-purpose and per-link streams make runs byte-reproducible.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from collections import Counter, defaultdict, deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, islice
from random import Random

from .links import LinkRuntime, LinkState
from .model import LinkSpec, Topology
from .q3p import (
    AUTH_RESERVE_DEFAULT,
    Channel,
    InsufficientKey,
    KeyStore,
    ProductionClock,
    Purpose,
    Q3PLink,
    ReplayDetected,
    TagMismatch,
)
from .routing import (
    FloodingState,
    LinkStateAd,
    LinkStateDB,
    LsaTable,
    NoRoute,
    Path,
    decode_summary,
    encode_lsa,
    lsa_instances,
    shortest_path,
)
from .scenarios import Event, EventKind, Scenario, ScenarioError, check_event, check_scenario
from .transport import (
    DeliveryRecord,
    DeliveryStatus,
    LOW_WATER_FACTOR,
    MAX_RETRIES,
    MTU_BYTES,
    RETRY_TIMEOUT_S,
    WINDOW_PER_PATH,
    assign_fragments,
    decode_ack,
    decode_segment,
    disjoint_paths,
    encode_ack,
    encode_segment,
    split_fragments,
)

PRODUCE_TICK_S = 0.1
HOP_LATENCY_S = 0.005
SUMMARY_S = 10.0
SAMPLE_PERIOD_S = 1.0
_SUMMARY_TICKS = round(SUMMARY_S / PRODUCE_TICK_S)
_SAMPLE_TICKS = round(SAMPLE_PERIOD_S / PRODUCE_TICK_S)
_UP, _DOWN = LinkState.UP, LinkState.DOWN  # enum member lookups are slow on CPython 3.11
SEGMENT_CLEAR_LEN = 18  # request id + seq + total + length travel unencrypted
_JOIN_BATCH = 4096      # pieces of an output file joined at a time


class TimeTravel(Exception):
    """An event was injected with a timestamp in the simulated past."""


def sub_seed(master: int, label: str) -> int:
    """Stable per-purpose seed: adding a stream never perturbs the others."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _band(level: int) -> tuple[int, int]:
    """The open band ``(lo, hi)`` of store levels that need no new LSA
    after an end advertised at store level ``level``: the level stays on the
    same side of the authentication floor and moves less than
    ``max(2048, level // 4)``. The band watches the store level, not the
    sending pool the LSA carries: a band on the pool would re-advertise
    after every few sends."""
    floor = AUTH_RESERVE_DEFAULT
    step = max(2048, level // 4)
    if level > floor:
        return max(floor, level - step), level + step
    return level - step, min(floor + 1, level + step)


@dataclass(eq=False)
class _LinkRT:
    """One link's engine state. ``advertised[side]`` is what that end's
    last LSA said and where its store level stood: ``(up, lo, hi)``, the up
    state and the band (``_band``) of the end's store level, set by
    ``NodeAgent.originate``; the tick reads the bands to decide whether the
    agents need polling. Until an end first advertises, its band is empty.

    Production is lazy. ``settle`` brings the link up to the engine's last
    tick; the link's ``KeyStream`` calls it on the first read that finds it
    behind, and hands it the bytes the missed ticks produced and how many
    of their blocks were odd; the stream derives key from its offset.
    ``index`` is the link's place in link order, the mark its spends leave
    on the engine's clock. ``tick_bytes`` bounds the bytes one tick
    can produce: at most ``rate * dt / 8`` plus one byte of carried bits, at
    the rate of the link's devices whatever its state, and one more byte
    covers rounding. ``wake`` is the earliest tick at which production alone
    could carry an end to its band's ``hi``; ``usable`` is the usability
    the engine last noted (``Engine._track_usability``). ``channel`` is the
    stream of the link's own frame loss and jitter (``Engine.send_message``)."""

    spec: LinkSpec
    runtime: LinkRuntime
    q3p: Q3PLink
    loss: float
    index: int
    min_level_seen: int = 0
    refilled_bytes: int = 0
    advertised: list[tuple[bool, int, int]] = field(
        default_factory=lambda: [(False, 0, 0), (False, 0, 0)])
    usable: bool = True
    wake: int = 0
    channel: Random | None = None
    tick_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.tick_bytes = int(self.runtime.key_rate_bps * PRODUCE_TICK_S / 8) + 2

    def settle(self) -> None:
        """Produce the ticks the link missed, in order, up to its stream's clock."""
        stream, runtime = self.q3p.stream, self.runtime
        ticks = stream.clock.ticks
        odd = runtime.odd_blocks
        n_bytes = runtime.produce(PRODUCE_TICK_S, ticks - stream.through)
        stream.through = ticks
        if n_bytes:
            stream.produce(n_bytes, runtime.odd_blocks - odd)


@dataclass
class _Drain:
    link_id: str
    rate_bytes_per_s: float
    end_s: float
    carry: list[float] = field(default_factory=lambda: [0.0, 0.0])


@dataclass
class _Request:
    """One delivery request, held once: its outcome record (id, ends, size),
    the paths asked for, the fragments received at the destination and
    failed on the way, and the source's fragments and per-path send windows."""

    record: DeliveryRecord
    multipath: int
    refill_target: str | None
    final: bool = False
    received: dict[int, bytes] = field(default_factory=dict)   # seq -> fragment
    failed: set[int] = field(default_factory=set)
    fragments: list[bytes] = field(default_factory=list)
    queues: list[deque] = field(default_factory=list)          # per path: seqs to send
    inflight: list[int] = field(default_factory=list)          # per path
    frag_path: list[int] = field(default_factory=list)         # seq -> path index

    @property
    def purpose(self) -> Purpose:
        """The key purpose of every hop: a refill spends preshared-refill key."""
        return Purpose.ENCRYPT if self.refill_target is None else Purpose.PRESHARED_REFILL

    @property
    def exclude(self) -> frozenset[str]:
        """Links no path may use: a refill does not cross the link it refills."""
        return frozenset() if self.refill_target is None else frozenset((self.refill_target,))


@dataclass(slots=True)
class _HopState:
    req: _Request
    seq: int
    fragment: bytes
    route_links: tuple[str, ...]   # from this node; empty while parked: the timer reroutes
    attempts: int = 1


def _joined(pieces: Iterable[str]) -> str:
    """Join ``pieces`` ``_JOIN_BATCH`` at a time, then join the batches: a
    file is held as short strings only one batch at a time."""
    pieces = iter(pieces)
    batches = []
    while batch := list(islice(pieces, _JOIN_BATCH)):
        batches.append("".join(batch))
    return "".join(batches)


class MetricsReport:
    """Everything observed during a run; serializes deterministically.

    Each of the three files is built from its pieces a batch at a time
    (``_joined``): formatting one holds its batches and the joined file, not
    a short string for every line or JSON token. The per-second samples stay
    in the engine's columns (``Engine._sample``) and the exposures in its
    four columns; ``samples`` and ``exposures`` rebuild their tuples when
    read."""

    def __init__(self, engine: "Engine") -> None:
        self.duration_s = engine.scenario.duration_s
        self.seed = engine.seed
        self._sample_columns = (engine.sample_times, engine.sample_links)
        self.records = [engine.requests[i].record for i in sorted(engine.requests)]
        self._exposure_columns = (engine.exposure_times, engine.exposure_nodes,
                                  engine.exposure_requests, engine.exposure_bytes)
        self.link_events = engine.link_events
        # distillation runs inside the link devices and the rate law is net
        # of its key cost: its two frames per produced block (one each way)
        # are only counted, from the settled links
        counts = Counter(engine.msg_counts)
        if distill := 2 * sum(lrt.runtime.produced_blocks for lrt in engine.links.values()):
            counts["distill"] = distill
        self.msg_counts = dict(sorted(counts.items()))
        self.link_stats = {}
        for link_id in sorted(engine.links):
            lrt = engine.links[link_id]
            a, b = lrt.q3p.stores
            self.link_stats[link_id] = {
                "preshared_bytes": lrt.spec.preshared_bytes,
                "produced_bytes": lrt.runtime.produced_bytes_total,
                "available_a": a.available_bytes,
                "available_b": b.available_bytes,
                "ledgered_a": a.ledgered_bytes,
                "ledgered_b": b.ledgered_bytes,
                "min_level_seen": lrt.min_level_seen,
            }
        self.delivered_bps: dict[str, float] = {}
        for rec in self.records:
            if rec.status is DeliveryStatus.DELIVERED:
                pair = f"{rec.src}->{rec.dst}"
                bits = rec.n_bytes * 8
                self.delivered_bps[pair] = self.delivered_bps.get(pair, 0.0) + bits / self.duration_s

    @property
    def samples(self) -> list[tuple[float, str, int, float]]:
        """Each link's level and rate once a second as ``(time, link, level,
        rate)``, links in id order at each time, rebuilt from the columns."""
        return list(self._sample_rows())

    def _sample_rows(self) -> Iterator[tuple[float, str, int, float]]:
        times, links = self._sample_columns
        for i, t in enumerate(times):
            for link_id, levels, rates in links:
                yield t, link_id, levels[i], rates[i]

    @property
    def exposures(self) -> list[tuple[float, str, int, int]]:
        """Each plaintext exposure at a relay as ``(time, node, request id,
        bytes)``, rebuilt from the engine's columns."""
        return list(zip(*self._exposure_columns))

    def metrics_csv(self) -> str:
        rows = (f"{t:.3f},{link_id},{level},{rate!r}\n"
                for t, link_id, level, rate in self._sample_rows())
        return _joined(chain(("time_s,link_id,level_bytes,rate_bps\n",), rows))

    def summary_json(self) -> str:
        # the encoder holds the document only until it has yielded its last
        # piece, so the report's request dicts are freed before the last join
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode({
            "duration_s": self.duration_s,
            "seed": self.seed,
            "requests": [rec.summary() for rec in self.records],
            "delivered_bps_per_pair": self.delivered_bps,
            "link_stats": self.link_stats,
            "link_events": [
                {"time_s": t, "link": l, "event": e} for t, l, e in self.link_events
            ],
            "message_counts": self.msg_counts,
            "exposure_count": len(self._exposure_columns[0]),   # the times column
        })
        return _joined(chain(chunks, ("\n",)))

    def audit_text(self) -> str:
        return _joined(
            f"t={t:.6f} node={node} request={req} plaintext_bytes={n}\n"
            for t, node, req, n in zip(*self._exposure_columns)
        )


class Engine:
    """Single-threaded event loop owning all link and node state."""

    def __init__(self, topology: Topology, scenario: Scenario, seed: int | None = None) -> None:
        check_scenario(scenario, topology)
        self.topology = topology
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.now = 0.0
        self._last_tick = round(scenario.duration_s / PRODUCE_TICK_S)
        self._queue: list[tuple[float, int, Event]] = []
        self._order = 0
        self.instances = lsa_instances(topology)
        self.lsa_table = LsaTable(self.instances)
        self._secrets_seed = sub_seed(self.seed, "secrets").to_bytes(8, "big")
        self.msg_counts: Counter = Counter()
        self.clock = ProductionClock()
        self.links: dict[str, _LinkRT] = {}
        for index, spec in enumerate(topology.links):
            profile = topology.profile_of(spec)
            lrt = _LinkRT(
                spec=spec,
                runtime=LinkRuntime(spec, profile),
                q3p=Q3PLink(spec.id, seed=sub_seed(self.seed, f"link:{spec.id}")),
                loss=scenario.loss_for(spec.id),
                index=index,
            )
            if lrt.loss > 0 or scenario.jitter_ms > 0:
                lrt.channel = Random(sub_seed(self.seed, f"channel:{spec.id}"))
            # the preshared secret is the link's first block of key
            lrt.q3p.stream.produce(spec.preshared_bytes, spec.preshared_bytes % 2)
            lrt.q3p.stream.attach(self.clock, index, lrt.settle)
            lrt.min_level_seen = lrt.q3p.min_level()
            self.links[spec.id] = lrt
        self._link_list = list(self.links.values())
        self._refresh_eager()
        self._wakes: defaultdict[int, set[int]] = defaultdict(set)   # tick -> link indices
        self.agents = {name: NodeAgent(self, name) for name in topology.nodes}
        self.requests: dict[int, _Request] = {}
        self._next_request_id = 0
        self._retries: deque[tuple[float, int, NodeAgent, _HopState]] = deque()   # arm order
        self._drains: list[_Drain] = []
        # per-second samples, as columns: the times, then for each link in
        # id order its id, levels and rates
        self.sample_times = array("d")
        self.sample_links = [(link_id, array("q"), array("d")) for link_id in sorted(self.links)]
        # plaintext exposures at relays, as columns: time, node, request id, bytes
        self.exposure_times = array("d")
        self.exposure_nodes: list[str] = []
        self.exposure_requests = array("q")
        self.exposure_bytes = array("q")
        self.link_events: list[tuple[float, str, str]] = []
        self._started = False
        self._finalized = False
        self._last_sample_time = None

    # -- queue ---------------------------------------------------------------

    def _schedule(self, event: Event, order: int | None = None) -> None:
        self._order += 1
        heapq.heappush(self._queue, (event.time_s, order if order is not None else self._order, event))

    def arm_retry(self, agent: "NodeAgent", hop: _HopState) -> None:
        """Start the retry timer of ``hop``, held at ``agent``. Every timer
        runs ``RETRY_TIMEOUT_S`` and ``now`` never decreases, so timers
        expire in the order they were armed: they wait in one FIFO, each
        under the order number an event of its own would take, and the
        event queue holds one TIMER entry, for the head."""
        self._order += 1
        self._retries.append((self.now + RETRY_TIMEOUT_S, self._order, agent, hop))
        if len(self._retries) == 1:
            self._queue_retry()

    def _queue_retry(self) -> None:
        due, order, _, _ = self._retries[0]
        heapq.heappush(self._queue, (due, order, Event(due, EventKind.TIMER, {})))

    def inject(self, event: Event) -> None:
        """Queue an externally supplied scenario event, checked as the
        scenario's own events are (``check_event``) and queued as ``run``
        queues them; the past is immutable."""
        check_event(event, self.topology, self.scenario.duration_s)
        p = event.payload
        first = p["start"] if event.kind is EventKind.DAY_WINDOW else event.time_s
        if first < self.now:
            raise TimeTravel(f"event at t={first} is before now={self.now}")
        self._enqueue(event)

    def _enqueue(self, event: Event) -> None:
        """Queue one scenario event in the engine's form: a request is
        submitted, a daywindow becomes its two daytime switches."""
        kind, p = event.kind, event.payload
        if kind is EventKind.KEY_REQUEST:
            self.submit_request(p, event.time_s)
        elif kind is EventKind.DAY_WINDOW:
            self._schedule(Event(p["start"], EventKind.DAY_WINDOW, {"daytime": True}))
            self._schedule(Event(p["end"], EventKind.DAY_WINDOW, {"daytime": False}))
        else:
            self._schedule(event)

    # -- requests ------------------------------------------------------------

    def submit_request(self, req_payload: dict, at: float,
                       refill_target: str | None = None) -> int:
        self._next_request_id += 1
        rid = self._next_request_id
        record = DeliveryRecord(
            request_id=rid, src=req_payload["src"], dst=req_payload["dst"],
            n_bytes=req_payload["n_bytes"],
            secret_seed=self._secrets_seed + rid.to_bytes(8, "big"), started_s=at,
        )
        self.requests[rid] = _Request(record, req_payload["multipath"], refill_target)
        self._schedule(Event(at, EventKind.KEY_REQUEST, {"request_id": rid}))
        deadline_s = req_payload.get("deadline_s")
        if deadline_s is not None:
            self._schedule(Event(at + deadline_s, EventKind.DEADLINE, {"request_id": rid}))
        return rid

    # -- messaging -----------------------------------------------------------

    def send_message(self, link_id: str, from_node: str, msg,
                     route: tuple[str, ...] = ()) -> bool:
        """Transmit over a link's classical channel: fixed latency, then loss
        and jitter drawn from its ``channel``. ``route`` is the links a
        transport segment has still to cross past the receiver, empty at its
        destination and for every other message. Returns False if dropped at
        send."""
        lrt = self.links[link_id]
        if lrt.runtime.status.state is _DOWN:
            self.msg_counts["dropped_link_down"] += 1
            return False
        if self._lost(link_id):
            return False
        latency = HOP_LATENCY_S
        if self.scenario.jitter_ms > 0:
            latency += lrt.channel.uniform(0, self.scenario.jitter_ms / 1000.0)
        to_node = lrt.spec.b if from_node == lrt.spec.a else lrt.spec.a
        self._schedule(Event(self.now + latency, EventKind.MSG_ARRIVE, {
            "link": link_id, "to": to_node, "msg": msg, "route": route,
        }))
        return True

    def _lost(self, link_id: str) -> bool:
        """One loss draw from a link's channel stream; counts the frame if lost."""
        lrt = self.links[link_id]
        if lrt.loss > 0 and lrt.channel.random() < lrt.loss:
            self.msg_counts["lost"] += 1
            return True
        return False

    # -- run loop ------------------------------------------------------------

    def run(self) -> MetricsReport:
        if self._started:
            raise ScenarioError("engine instances are single-use")
        self._started = True
        # built here, not in __init__, so it binds methods replaced on the
        # instance after construction
        tick = self._tick
        self._handlers = {
            EventKind.PRODUCE_TICK: lambda p: tick(),
            EventKind.MSG_ARRIVE: self._arrive,
            EventKind.LINK_FAIL: self._fail_link,
            EventKind.LINK_RESTORE: self._restore_link,
            EventKind.DOS_DRAIN: self._start_drain,
            EventKind.KEY_REQUEST: self._start_request,
            EventKind.DAY_WINDOW: self._set_daytime,
            EventKind.REFILL: self._start_refill,
            EventKind.TIMER: self._on_timer,
            EventKind.DEADLINE: self._on_deadline,
            EventKind.FINALIZE: self._finalize,
        }
        self._queue_tick(1)
        for ev in self.scenario.events:
            self._enqueue(ev)
        self._schedule(Event(self.scenario.duration_s, EventKind.FINALIZE, {}), order=1 << 62)
        for name in self.topology.nodes:
            self.agents[name].on_start()
        self._sample()
        while self._queue:
            when, _, event = heapq.heappop(self._queue)
            if when > self.scenario.duration_s + 1e-9:
                continue
            self.now = when
            self._dispatch(event)
            if self._finalized:
                break
        return MetricsReport(self)

    def _dispatch(self, event: Event) -> None:
        self._handlers[event.kind](event.payload)

    # -- event bodies ----------------------------------------------------------

    def _queue_tick(self, i: int) -> None:
        """Queue the run's production tick ``i``, if it has one. Order 0 puts
        it first at its time: a tick at time t covers the interval ending at
        t, so state changes scheduled at t apply to later intervals."""
        if i <= self._last_tick:
            self._schedule(Event(round(i * PRODUCE_TICK_S, 6), EventKind.PRODUCE_TICK, {}),
                           order=0)

    def _refresh_eager(self) -> None:
        """The links the tick settles at every tick, in link order, before
        the drains: the restarting ones, which come up inside ``produce`` and
        must note it at that tick; the rest settle when they are read."""
        self._eager = [lrt for lrt in self._link_list
                       if lrt.runtime.status.state is LinkState.RESTARTING]

    def _tick(self) -> None:
        """Settle the restarting links (``_refresh_eager``), apply the DoS
        drains, then examine the links whose state could have changed (``_due``):
        read each one's levels once, lower ``min_level_seen``, and check each
        end against the band its last LSA set. A link that is not examined
        was not spent since its last examination and production alone could
        not carry it to its band's ``hi``, so its ends are still inside their
        bands and on the same side of the floor: polling it, its usability
        and its minimum would all come out unchanged. Agents are polled
        (``NodeAgent.on_tick``, in node order) only when an end left its
        band or a link came up during production. Usability is judged from
        the examined levels unless an agent was polled or a summary was sent,
        either of which may have spent key since; then over all links. The
        run's last tick sends no summaries: they would arrive after the end.

        A tick with no eager link, no drain, nothing spent, no wake and no
        summary or sample due examines nothing and polls no one, so it
        returns once the drains are applied."""
        clock = self.clock
        clock.ticks = ticks = clock.ticks + 1
        self._queue_tick(ticks + 1)
        poll = False
        eager = self._eager
        for lrt in eager:
            runtime = lrt.runtime
            was_up = runtime.status.state is _UP
            lrt.settle()
            if not was_up and runtime.status.state is _UP:
                self.link_events.append((self.now, lrt.spec.id, "up"))
                poll = True
        if poll:
            self._refresh_eager()
        self._apply_drains()
        summary = ticks % _SUMMARY_TICKS == 0 and ticks < self._last_tick
        sample = ticks % _SAMPLE_TICKS == 0
        wakes = self._wakes
        if not (eager or self._drains or clock.spent or ticks in wakes or summary or sample):
            return
        examined = []
        for lrt in self._due(ticks):
            a, b = lrt.q3p.stores
            level_a, level_b = a.available_bytes, b.available_bytes
            (_, lo_a, hi_a), (_, lo_b, hi_b) = lrt.advertised
            if lo_a < level_a < hi_a and lo_b < level_b < hi_b:
                gap_a, gap_b = hi_a - level_a, hi_b - level_b
                wake = ticks - (-(gap_a if gap_a < gap_b else gap_b) // lrt.tick_bytes)
                if wake != lrt.wake:
                    stale = wakes.get(lrt.wake)
                    if stale is not None:
                        stale.discard(lrt.index)
                        if not stale:
                            del wakes[lrt.wake]
                    lrt.wake = wake
                    wakes[wake].add(lrt.index)
            else:
                poll = True
            level = level_a if level_a < level_b else level_b
            if level < lrt.min_level_seen:
                lrt.min_level_seen = level
            examined.append((lrt, level))
        if poll:
            for agent in self.agents.values():
                agent.on_tick()
        if summary:
            for agent in self.agents.values():
                agent.send_summary()
        self._track_usability(None if poll or summary else examined)
        if sample:
            self._sample()

    def _due(self, ticks: int) -> list[_LinkRT]:
        """The links tick ``ticks`` examines, in link order: each link spent,
        pushed or re-advertised since its last examination (the clock's
        marks; the agents' first LSAs mark every link for tick 1), each link
        under a DoS drain, and each link whose ``wake`` is this tick. A link
        sits in ``_wakes`` only at its current ``wake`` (``_tick`` moves it
        and drops emptied ticks): there are no stale entries."""
        links = self._link_list
        due, self.clock.spent = self.clock.spent, set()
        due.update(self._wakes.pop(ticks, ()))
        for drain in self._drains:
            due.add(self.links[drain.link_id].index)
        return [links[i] for i in sorted(due)]

    def _apply_drains(self) -> None:
        self._drains = [drain for drain in self._drains if self.now <= drain.end_s]
        for drain in self._drains:
            lrt = self.links[drain.link_id]
            for direction in (0, 1):
                want = drain.rate_bytes_per_s * PRODUCE_TICK_S / 2 + drain.carry[direction]
                n = int(want)
                drain.carry[direction] = want - n
                sender = lrt.q3p.stores[direction]
                peer = lrt.q3p.stores[1 - direction]
                n = min(n, sender.pool_available(direction), sender.available_bytes)
                if n <= 0:
                    continue
                peer.reserve_exact(sender.reserve(n, Purpose.AUTHENTICATE))

    def _settle(self, lrts) -> None:
        """Bring links up to the last tick, and mark them for the next tick
        to examine: before their rate changes, the past ticks produce at the
        old rate."""
        for lrt in lrts:
            if lrt.q3p.stream.through != self.clock.ticks:
                lrt.settle()
            self.clock.spent.add(lrt.index)

    def _fail_link(self, p: dict) -> None:
        link_id = p["link"]
        lrt = self.links[link_id]
        self._settle((lrt,))
        lrt.runtime.fail()
        self._refresh_eager()
        self.link_events.append((self.now, link_id, "fail"))
        for end in (lrt.spec.a, lrt.spec.b):
            self.agents[end].originate(link_id)
        self._track_usability()

    def _restore_link(self, p: dict) -> None:
        link_id = p["link"]
        lrt = self.links[link_id]
        if lrt.runtime.status.state is not _DOWN:     # only a cut link restarts
            return
        self._settle((lrt,))
        lrt.runtime.restore()
        self._refresh_eager()
        self.link_events.append((self.now, link_id, "restore"))
        for end in (lrt.spec.a, lrt.spec.b):
            self.agents[end].originate(link_id)
        # the two sides may have diverged while cut: exchange summaries
        for end in (lrt.spec.a, lrt.spec.b):
            self.agents[end].send_summary((lrt.spec,))
        self._track_usability()

    def _start_drain(self, p: dict) -> None:
        self._drains.append(_Drain(p["link"], p["rate_bytes_per_s"], self.now + p["duration_s"]))
        self.link_events.append((self.now, p["link"], "dos_start"))

    def _start_request(self, p: dict) -> None:
        req = self.requests[p["request_id"]]
        self.agents[req.record.src].start_delivery(req)

    def _set_daytime(self, p: dict) -> None:
        self._settle(self._link_list)
        for lrt in self._link_list:
            lrt.runtime.daytime = p["daytime"]

    def _on_timer(self, p: dict) -> None:
        """Fire the head timer, drop the timers behind it whose hop its node
        no longer holds (a stale hop stays stale), and queue the next."""
        retries = self._retries
        _, _, agent, hop = retries[0]
        agent.on_timer(hop)           # a re-arm joins the FIFO behind the head
        retries.popleft()
        while retries and not retries[0][2].holds(retries[0][3]):
            retries.popleft()
        if retries:
            self._queue_retry()

    def _on_deadline(self, p: dict) -> None:
        self._finalize_record(self.requests[p["request_id"]], reason="deadline")

    def _finalize(self, p: dict) -> None:
        """Settle every link, so the report and anything reading the stores
        afterwards sees all production, then close the open requests."""
        self._settle(self._link_list)
        self._sample()
        for req in self.requests.values():
            self._finalize_record(req, reason="scenario_end")
        self._finalized = True

    def _arrive(self, p: dict) -> None:
        link_id = p["link"]
        lrt = self.links[link_id]
        if lrt.runtime.status.state is _DOWN:
            self.msg_counts["dropped_link_down"] += 1
            return
        self.agents[p["to"]].on_message(link_id, p["msg"], p["route"])

    def _start_refill(self, p: dict) -> None:
        link = self.topology.link(p["link"])
        self.link_events.append((self.now, link.id, "refill_start"))
        self.submit_request(
            {"src": link.a, "dst": link.b, "n_bytes": p["n_bytes"],
             "multipath": p["multipath"]},
            at=self.now, refill_target=link.id,
        )

    # -- delivery bookkeeping --------------------------------------------------

    def fragment_delivered(self, req: _Request, seq: int, fragment: bytes) -> None:
        if req.final or seq in req.received:
            return
        req.received[seq] = fragment
        req.failed.discard(seq)
        rec = req.record
        rec.fragments_delivered = len(req.received)
        if rec.fragments_total and len(req.received) == rec.fragments_total:
            self._finalize_record(req, reason=None)

    def fragment_failed(self, req: _Request, seq: int, reason: str) -> None:
        rec = req.record
        if rec.failure_reason is None:
            rec.failure_reason = reason
        if seq not in req.received:          # a seq another copy delivered counts once
            req.failed.add(seq)
        if rec.fragments_total and len(req.failed) + len(req.received) >= rec.fragments_total:
            self._finalize_record(req, reason=rec.failure_reason)

    def _finalize_record(self, req: _Request, reason: str | None) -> None:
        if req.final:
            return
        rec = req.record
        frags = req.received
        if rec.fragments_total and len(frags) == rec.fragments_total:
            rec.status = DeliveryStatus.DELIVERED
            arrived = [frags[i] for i in range(rec.fragments_total)]
            secret = b"".join(arrived)
            rec.secret_dst_sha256 = hashlib.sha256(secret).digest()
            # equal ends keep only the digest: the source's secret derives again
            if arrived != req.fragments:
                rec.secret_dst_own = secret
            rec.completion_time_s = self.now
            rec.failure_reason = None   # set by a copy a relay gave up on
        elif frags:
            rec.status = DeliveryStatus.PARTIAL
            rec.failure_reason = rec.failure_reason or reason
        else:
            rec.status = DeliveryStatus.FAILED
            rec.failure_reason = rec.failure_reason or reason
        req.final = True
        # nothing reads a final request's fragments or send queues again
        req.fragments.clear()
        req.received.clear()
        req.queues = []
        if rec.status is DeliveryStatus.DELIVERED and req.refill_target:
            self._apply_refill(req.refill_target, rec.secret_at_dst)

    def _apply_refill(self, link_id: str, secret: bytes) -> None:
        lrt = self.links[link_id]
        lrt.q3p.push(secret)
        lrt.refilled_bytes += len(secret)
        self.link_events.append((self.now, link_id, "refill_done"))
        for end in (lrt.spec.a, lrt.spec.b):
            self.agents[end].originate(link_id)
        self._track_usability()

    def record_exposure(self, node: str, request_id: int, n_bytes: int) -> None:
        self.exposure_times.append(self.now)
        self.exposure_nodes.append(node)
        self.exposure_requests.append(request_id)
        self.exposure_bytes.append(n_bytes)

    # -- observation -------------------------------------------------------------

    def _track_usability(self, examined: list[tuple[_LinkRT, int]] | None = None) -> None:
        """Note each link that became usable (up, and its lower end's level
        above the authentication floor) or unusable. ``examined`` holds
        ``(link, current min level)`` in link order for the links the caller
        read; by default every link, read now."""
        floor = AUTH_RESERVE_DEFAULT
        if examined is None:
            examined = [(lrt, lrt.q3p.min_level()) for lrt in self._link_list]
        for lrt, level in examined:
            usable = lrt.runtime.status.state is _UP and level > floor
            if usable != lrt.usable:
                lrt.usable = usable
                self.link_events.append(
                    (self.now, lrt.spec.id, "usable" if usable else "unusable")
                )

    def _sample(self) -> None:
        if self._last_sample_time == self.now:
            return
        self._last_sample_time = self.now
        self.sample_times.append(self.now)
        for link_id, levels, rates in self.sample_links:
            lrt = self.links[link_id]
            levels.append(lrt.q3p.min_level())
            rates.append(lrt.runtime.rate_bps)


class NodeAgent:
    """One node module: floods link state, relays secrets hop by hop.

    ``_ends`` is built once: for each incident link, in ``incident`` order,
    the engine's link record, this node's side of the link and its key store
    there. The tick and the per-message paths read it, not the engine's maps.
    """

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.db = LinkStateDB(engine.topology)
        self.flood = FloodingState(self.db)
        self.incident = engine.topology.links_at(name)
        self._ends: dict[str, tuple[_LinkRT, int, KeyStore]] = {}
        for link in self.incident:
            lrt, side = engine.links[link.id], 0 if name == link.a else 1
            self._ends[link.id] = (lrt, side, lrt.q3p.stores[side])
        self._relays: dict[tuple[int, int], _HopState] = {}   # (request id, seq)

    # -- link-state flooding ------------------------------------------------------

    def on_start(self) -> None:
        for link in self.incident:
            self.originate(link.id)

    def originate(self, link_id: str) -> None:
        """Advertise our end's current view of one incident link: its up
        state and the key our end can send, our own pool. Note on the link's
        record the up state and the band of store levels that need no new
        LSA."""
        lrt, side, store = self._ends[link_id]
        held = self.db.ads.get(link_id, {}).get(self.name)    # our last one
        lsa = LinkStateAd(
            link_id=link_id,
            origin=self.name,
            seq=held.seq + 1 if held is not None else 1,
            up=lrt.runtime.status.state is _UP,
            level_bytes=store.pool_available(side),
        )
        self.flood.accept(lsa)
        lrt.advertised[side] = (lsa.up, *_band(store.available_bytes))
        self.engine.clock.spent.add(lrt.index)       # its band moved: examine it
        self._flood_out(self.engine.lsa_table.encode(lsa), arrived_on=None)

    def _flood_out(self, payload: bytes, arrived_on: str | None) -> None:
        """Send one encoded LSA on every incident link but the one it came on."""
        for link in self.incident:
            if link.id != arrived_on:
                self._send_routing(link.id, Channel.ROUTING, payload)

    def send_summary(self, links: tuple[LinkSpec, ...] = ()) -> None:
        """Send each neighbour (over ``links``, default all incident links)
        one authenticated frame listing every LSA this node holds."""
        payload = self.db.summary()
        for link in links or self.incident:
            self._send_routing(link.id, Channel.LSDB_SUMMARY, payload)

    def _on_summary(self, link_id: str, held: dict[tuple[str, str], int]) -> None:
        """Send the neighbour every LSA its summary lacks or holds older."""
        for lsa in self.db.lsas():
            if held.get((lsa.link_id, lsa.origin), 0) < lsa.seq:
                self._send_routing(link_id, Channel.ROUTING, encode_lsa(lsa))

    def _send_routing(self, link_id: str, channel: Channel, payload: bytes) -> None:
        """Authenticate one routing frame onto a link that is not down; a
        frame the link's key cannot tag is skipped (the next summary
        repairs what it would have carried)."""
        lrt, side, _ = self._ends[link_id]
        if lrt.runtime.status.state is _DOWN:
            return
        counts = self.engine.msg_counts
        try:
            msg = lrt.q3p.seal(side, channel, payload, encrypt=False)
        except InsufficientKey:
            counts["flood_skipped_no_key"] += 1
            return
        counts["routing_sent" if channel is Channel.ROUTING else "lsdb_summaries_sent"] += 1
        self.engine.send_message(link_id, self.name, msg)

    def on_tick(self) -> None:
        """Originate on change only: for each incident link whose up state
        differs from our last LSA's, or whose level at our end left that
        LSA's band (a crossing of the authentication floor, or a move past
        the hysteresis). The engine calls this only in ticks where some end
        left its band or some link came up."""
        for link_id, (lrt, side, store) in self._ends.items():
            up, lo, hi = lrt.advertised[side]
            if (lrt.runtime.status.state is _UP) is not up or not lo < store.available_bytes < hi:
                self.originate(link_id)

    # -- message handling -----------------------------------------------------------

    def on_message(self, link_id: str, msg, route: tuple[str, ...]) -> None:
        """Handle one arrival: an ack frame (bytes, keyless) or a Q3P message."""
        if isinstance(msg, bytes):
            ack = decode_ack(msg)        # a malformed frame is ignored
            if ack is not None:
                self._on_ack(*ack)
            return
        lrt, side, _ = self._ends[link_id]
        try:
            payload = lrt.q3p.open(side, msg)
        except TagMismatch:
            self.engine.msg_counts["tag_failures"] += 1
            return
        except ReplayDetected:
            self.engine.msg_counts["replay_drops"] += 1
            return
        if msg.channel == Channel.ROUTING:
            if self.flood.accept(self.engine.lsa_table.decode(payload)):
                self._flood_out(payload, arrived_on=link_id)
        elif msg.channel == Channel.LSDB_SUMMARY:
            # a summary equal to our own lacks nothing we hold
            if payload != self.db.summary():
                self._on_summary(link_id, decode_summary(payload, self.engine.instances))
        elif msg.channel == Channel.TRANSPORT:
            self._on_segment(link_id, payload, route)

    # -- transport: source side -------------------------------------------------------

    def start_delivery(self, req: _Request) -> None:
        rec = req.record
        fragments = split_fragments(rec.secret_at_src, MTU_BYTES)
        rec.fragments_total = len(fragments)
        paths = disjoint_paths(self.db, rec.src, rec.dst, req.multipath, exclude_links=req.exclude)
        if not paths:
            rec.failure_reason = "no_route"
            self.engine._finalize_record(req, reason="no_route")
            return
        rec.paths_used = paths
        weights = [
            min(self.db.min_level(l) for l in p.links) for p in paths
        ]
        req.fragments = fragments
        req.frag_path = assign_fragments(len(fragments), weights)
        req.queues = [deque() for _ in paths]
        req.inflight = [0] * len(paths)
        for seq, path_idx in enumerate(req.frag_path):
            req.queues[path_idx].append(seq)
        for path_idx in range(len(paths)):
            self._pump(req, path_idx)

    def _pump(self, req: _Request, path_idx: int) -> None:
        if req.final:
            return
        path = req.record.paths_used[path_idx]
        while req.inflight[path_idx] < WINDOW_PER_PATH and req.queues[path_idx]:
            seq = req.queues[path_idx].popleft()
            req.inflight[path_idx] += 1
            self._send_hop(_HopState(req, seq, req.fragments[seq], path.links))

    # -- transport: hop machinery ---------------------------------------------------------

    def _eligible(self, link_id: str, payload_len: int) -> bool:
        lrt, side, store = self._ends[link_id]
        if lrt.runtime.status.state is not _UP:
            return False
        if store.available_bytes < LOW_WATER_FACTOR * AUTH_RESERVE_DEFAULT:
            return False
        return lrt.q3p.can_seal(side, payload_len)

    def _reroute(self, hop: _HopState) -> Path | None:
        """Recompute a route from here, skipping first hops this node locally
        knows it cannot feed (the flooded database may not know yet)."""
        exclude = set(hop.req.exclude)
        for link in self.incident:
            if not self._eligible(link.id, len(hop.fragment)):
                exclude.add(link.id)
        try:
            return shortest_path(self.db, self.name, hop.req.record.dst,
                                 exclude_links=frozenset(exclude))
        except NoRoute:
            return None

    def _send_hop(self, hop: _HopState) -> None:
        """Seal one fragment onto the next link of its route; on any local
        obstacle try one reroute, otherwise park it for the retry timer."""
        out_link = hop.route_links[0] if hop.route_links else None
        if out_link is None or not self._eligible(out_link, len(hop.fragment)):
            new_path = self._reroute(hop)
            if new_path is None or not new_path.links:
                self._park(hop)
                return
            hop.route_links = new_path.links
            out_link = hop.route_links[0]
        lrt, side, _ = self._ends[out_link]
        req = hop.req
        payload = encode_segment(req.record.request_id, hop.seq, req.record.fragments_total,
                                 hop.fragment)
        try:
            msg = lrt.q3p.seal(
                side, Channel.TRANSPORT, payload,
                encrypt=True, purpose=req.purpose,
                clear_len=SEGMENT_CLEAR_LEN,
            )
        except InsufficientKey:
            self._park(hop)
            return
        consumed = req.record.per_link_consumed
        consumed[out_link] = consumed.get(out_link, 0) + msg.key_cost_bytes
        self.engine.msg_counts["transport_sent"] += 1
        self.engine.send_message(out_link, self.name, msg, hop.route_links[1:])
        self._arm_retry(hop)

    def _park(self, hop: _HopState) -> None:
        """No way forward right now; hold the fragment and reroute on timer."""
        hop.route_links = ()
        self._arm_retry(hop)

    def _arm_retry(self, hop: _HopState) -> None:
        """Hold a fragment at this node and start its retry timer
        (``Engine.arm_retry``). A hop is re-armed only by its own timer, so
        it has one timer at most; a newer hop held for the fragment
        supersedes it."""
        self._relays[(hop.req.record.request_id, hop.seq)] = hop
        self.engine.arm_retry(self, hop)

    def holds(self, hop: _HopState) -> bool:
        """Whether ``hop`` is the one this node holds for its fragment."""
        return self._relays.get((hop.req.record.request_id, hop.seq)) is hop

    def on_timer(self, hop: _HopState) -> None:
        if not self.holds(hop):
            return
        key = (hop.req.record.request_id, hop.seq)
        if hop.req.final:
            del self._relays[key]
            return
        if hop.attempts > MAX_RETRIES:
            del self._relays[key]
            self.engine.msg_counts["retry_limit_exceeded"] += 1
            self.engine.fragment_failed(hop.req, hop.seq, "retry_limit_exceeded")
            self._free_window(hop)
            return
        hop.attempts += 1
        if not hop.route_links:
            path = self._reroute(hop)
            if path is None:
                self._arm_retry(hop)
                return
            hop.route_links = path.links
        self.engine.msg_counts["retransmissions"] += 1
        self._send_hop(hop)

    def _on_ack(self, request_id: int, seq: int) -> None:
        hop = self._relays.pop((request_id, seq), None)
        if hop is None:
            return
        self._free_window(hop)

    def _free_window(self, hop: _HopState) -> None:
        """At the source, let the next fragment onto the path this one took."""
        req = hop.req
        if req.record.src != self.name:
            return
        path_idx = req.frag_path[hop.seq]
        req.inflight[path_idx] = max(0, req.inflight[path_idx] - 1)
        self._pump(req, path_idx)

    def _on_segment(self, link_id: str, payload: bytes, route: tuple[str, ...]) -> None:
        request_id, seq, _, fragment = decode_segment(payload)
        # ack unconditionally so the upstream sender stops retransmitting;
        # an ack is a bare frame that spends no key and bypasses Q3P
        self.engine.msg_counts["acks_sent"] += 1
        self.engine.send_message(link_id, self.name, encode_ack(request_id, seq))
        req = self.engine.requests[request_id]
        if not route:
            self.engine.fragment_delivered(req, seq, fragment)
            return
        # trusted-node relay: the fragment exists in plaintext here between
        # open and re-seal; make that observable
        self.engine.record_exposure(self.name, request_id, len(fragment))
        self._send_hop(_HopState(req, seq, fragment, route))
