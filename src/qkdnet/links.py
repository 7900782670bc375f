"""Per-link secret-key sources: rate-vs-distance law, status machine, and
bit-exact key production with a fractional-carry accumulator.

A link runtime counts the whole bytes each step produces, and the blocks
and odd-sized blocks they came in; it makes no key. The link's ``KeyStream``
derives the bytes at an offset from the offset. Production itself may run
late: the engine advances a link by all the steps it missed when something
first reads the link's key, and the counts are the same as stepping it at
every tick."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import DeviceProfile, LinkSpec

DEPLOYMENT_SPAN_KM = 25.0
DEPLOYMENT_MIN_RATE_BPS = 1000.0
DEPLOYMENT_MAX_RESTART_S = 60.0


def key_rate(profile: DeviceProfile, length_km: float) -> float:
    """Net secret-key rate in bits/s at the given fiber length.

    Exponential attenuation, zero beyond the device's operating limit. The
    rate is already net of distillation and authentication overheads.
    """
    if length_km < 0:
        raise ValueError("length_km must be >= 0")
    if length_km > profile.max_length_km:
        return 0.0
    return profile.r0_bps * 10.0 ** (-profile.alpha_db_per_km * length_km / 10.0)


def qualifies_for_deployment(profile: DeviceProfile) -> bool:
    """Backbone acceptance gate: above 1 kbit/s at 25 km and a restart
    latency of at most one minute."""
    return (
        key_rate(profile, DEPLOYMENT_SPAN_KM) > DEPLOYMENT_MIN_RATE_BPS
        and profile.restart_latency_s <= DEPLOYMENT_MAX_RESTART_S
    )


class LinkState(Enum):
    UP = "up"
    DOWN = "down"
    RESTARTING = "restarting"


_UP, _DOWN = LinkState.UP, LinkState.DOWN  # enum member lookups are slow on CPython 3.11


@dataclass
class LinkStatus:
    state: LinkState
    remaining_s: float = 0.0


class LinkRuntime:
    """Mutable per-link production state, owned by the simulation loop.

    Production accumulates fractional bits (< 1) and sub-byte whole bits
    (< 8) across timesteps so that total output over any partition of an
    interval stays within one bit of rate * T. The rate law is evaluated
    once, into ``key_rate_bps``; ``rate_bps`` and ``produce`` apply the status
    and the daytime blackout on top of it.
    """

    def __init__(self, spec: LinkSpec, profile: DeviceProfile) -> None:
        self.spec = spec
        self.profile = profile
        self.status = LinkStatus(LinkState.UP)
        self.fractional_bits = 0.0
        self.pending_bits = 0
        self.daytime = False
        self.produced_bytes_total = 0
        self.produced_blocks = 0                     # steps that yielded bytes
        self.odd_blocks = 0                          # of them, those of an odd size
        self.key_rate_bps = key_rate(profile, spec.length_km)

    @property
    def rate_bps(self) -> float:
        """Current production rate; zero when not up or blacked out."""
        if self.status.state is not LinkState.UP or (self.daytime and self.profile.night_only):
            return 0.0
        return self.key_rate_bps

    def fail(self) -> None:
        self.status = LinkStatus(LinkState.DOWN)

    def restore(self) -> None:
        """Restart a DOWN link; a link that is not down is left as it is."""
        if self.status.state is not _DOWN:
            return
        if self.profile.restart_latency_s <= 0:
            self.status = LinkStatus(LinkState.UP)
        else:
            self.status = LinkStatus(LinkState.RESTARTING, self.profile.restart_latency_s)

    def produce(self, dt_s: float, ticks: int = 1) -> int:
        """Advance the link by ``ticks`` steps of ``dt_s`` each and count the
        whole bytes of fresh key.

        Returns the number of bytes produced for BOTH endpoint stores, 0 when
        the steps yielded less than a byte or the link is not producing. Each
        step that yielded bytes is one block: it adds to ``produced_blocks``,
        and to ``odd_blocks`` when its count is odd. This is the one copy of
        the recurrence: advancing ``n`` steps at once runs the same
        arithmetic, in the same order, as ``n`` calls of one step, so the
        counts are the same to the bit.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        first = dt_s                                 # producing time of the first step
        status = self.status
        while status.state is not _UP:               # a restart counts down step by step
            if status.state is _DOWN or ticks <= 0:
                return 0
            if dt_s < status.remaining_s - 1e-12:
                status.remaining_s -= dt_s
                ticks -= 1
                continue
            first = dt_s - status.remaining_s        # up for the rest of this step
            self.status = status = LinkStatus(LinkState.UP)
            if first <= 0:                           # up at the step's end: no key yet
                first = dt_s
                ticks -= 1
        rate = self.key_rate_bps
        if ticks <= 0 or rate <= 0.0 or (self.daytime and self.profile.night_only):
            return 0
        step_bits = rate * dt_s
        bits = rate * first
        frac, pending = self.fractional_bits, self.pending_bits
        produced = blocks = odd = 0
        for _ in range(ticks):
            total = bits + frac
            whole = int(total)                       # the floor, as total >= 0
            frac = total - whole
            n_bytes, pending = divmod(pending + whole, 8)
            if n_bytes:
                produced += n_bytes
                blocks += 1
                odd += n_bytes & 1
            bits = step_bits
        self.fractional_bits, self.pending_bits = frac, pending
        self.produced_bytes_total += produced
        self.produced_blocks += blocks
        self.odd_blocks += odd
        return produced
