"""End-to-end secret transport over trusted relays.

The source derives a fresh secret, slices it into MTU-sized fragments, and
relays each fragment hop by hop: sealed (OTP + tag) on one link, opened at
the next node, re-sealed on the following link. The event-driven mechanics
(acks, retransmission with fresh key, rerouting) live in the harness; this
module holds the data types, the fragment codec, the path-assignment policy,
and the series-parallel rate calculation, whose link rates come from the
rate law (``links.key_rate``), not from the flooded advertisements.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum

from .links import key_rate
from .routing import LinkStateDB, Path, disjoint_paths

MTU_BYTES = 1024
MAX_RETRIES = 5          # retransmissions per fragment hop, then give up
RETRY_TIMEOUT_S = 0.12
WINDOW_PER_PATH = 8      # unacked fragments in flight per path
LOW_WATER_FACTOR = 2     # pause sends below this multiple of the auth reserve

_SEGMENT_HEAD = struct.Struct(">QIIH")
_ACK_WIRE = struct.Struct(">BQI")
_ACK_TYPE = 0x01


class DeliveryStatus(Enum):
    DELIVERED = "delivered"
    PARTIAL = "partial"
    FAILED = "failed"


@dataclass
class DeliveryRecord:
    """Outcome of one end-to-end delivery.

    No secret bytes are stored. ``secret_at_src`` derives the source's secret
    on every read from ``secret_seed`` (counter-mode KDF: SHAKE128 of the
    run's secrets sub-seed and the request id, 8 bytes each). The destination
    keeps the sha256 of the bytes that arrived, and those bytes only when
    they differ from the source's.
    """

    request_id: int
    src: str
    dst: str
    n_bytes: int
    secret_seed: bytes
    status: DeliveryStatus = DeliveryStatus.FAILED
    secret_dst_sha256: bytes | None = None   # of the arrived bytes; None unless all arrived
    secret_dst_own: bytes | None = None      # the arrived bytes, only when they differ
    per_link_consumed: dict[str, int] = field(default_factory=dict)
    paths_used: list[Path] = field(default_factory=list)
    started_s: float = 0.0
    completion_time_s: float | None = None
    fragments_total: int = 0
    fragments_delivered: int = 0
    failure_reason: str | None = None

    @property
    def secret_at_src(self) -> bytes:
        """The source's secret, derived again on every read."""
        return hashlib.shake_128(self.secret_seed).digest(self.n_bytes)

    @property
    def secret_at_dst(self) -> bytes | None:
        """The secret as it arrived at the destination; None unless every
        fragment arrived."""
        if self.secret_dst_sha256 is None:
            return None
        return self.secret_at_src if self.secret_dst_own is None else self.secret_dst_own

    def summary(self) -> dict:
        return {
            "request_id": self.request_id,
            "src": self.src,
            "dst": self.dst,
            "n_bytes": self.n_bytes,
            "status": self.status.value,
            "secret_src_sha256": hashlib.sha256(self.secret_at_src).hexdigest(),
            "secret_dst_sha256": (
                self.secret_dst_sha256.hex() if self.secret_dst_sha256 is not None else None
            ),
            "ends_match": self.secret_dst_sha256 is not None and self.secret_dst_own is None,
            "per_link_consumed": dict(sorted(self.per_link_consumed.items())),
            "paths_used": [list(p.links) for p in self.paths_used],
            "started_s": self.started_s,
            "completion_time_s": self.completion_time_s,
            "fragments_total": self.fragments_total,
            "fragments_delivered": self.fragments_delivered,
            "failure_reason": self.failure_reason,
        }


def encode_segment(request_id: int, seq: int, total: int, fragment: bytes) -> bytes:
    """Transport payload: u64 request id, u32 seq, u32 total, u16 length, data."""
    if len(fragment) > 0xFFFF:
        raise ValueError("fragment too large")
    return _SEGMENT_HEAD.pack(request_id, seq, total, len(fragment)) + fragment


def decode_segment(data: bytes) -> tuple[int, int, int, bytes]:
    request_id, seq, total, flen = _SEGMENT_HEAD.unpack_from(data)
    fragment = data[_SEGMENT_HEAD.size : _SEGMENT_HEAD.size + flen]
    if len(fragment) != flen:
        raise ValueError("truncated segment")
    return request_id, seq, total, fragment


def encode_ack(request_id: int, seq: int) -> bytes:
    return _ACK_WIRE.pack(_ACK_TYPE, request_id, seq)


def decode_ack(data: bytes) -> tuple[int, int] | None:
    if len(data) != _ACK_WIRE.size:
        return None
    kind, request_id, seq = _ACK_WIRE.unpack(data)
    if kind != _ACK_TYPE:
        return None
    return request_id, seq


def split_fragments(secret: bytes, mtu: int = MTU_BYTES) -> list[bytes]:
    return [secret[i : i + mtu] for i in range(0, len(secret), mtu)] or [b""]


def assign_fragments(n_fragments: int, weights: list[int]) -> list[int]:
    """Largest-remainder proportional assignment of fragment counts to paths.

    Returns, per fragment index, the path index it rides. Zero or negative
    weights get nothing unless everything is zero (then split evenly).
    """
    if not weights:
        raise ValueError("no paths")
    w = [max(0, x) for x in weights]
    if sum(w) == 0:
        w = [1] * len(weights)
    total = sum(w)
    exact = [n_fragments * x / total for x in w]
    counts = [int(e) for e in exact]
    short = n_fragments - sum(counts)
    # hand out remainders, biggest fraction first; index breaks ties
    order = sorted(range(len(w)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    out: list[int] = []
    for path_idx, c in enumerate(counts):
        out.extend([path_idx] * c)
    return out


def aggregate_rate(
    db: LinkStateDB,
    src: str,
    dst: str,
    k: int,
) -> float:
    """Rated end-to-end rate over up to ``k`` interior-disjoint paths.

    The paths, and so which links count, come from the database's usable
    links. Each link's rate is its rated one, ``key_rate`` of its profile at
    its length, so a link paused by a daytime window keeps its rate here.
    Parallel sections add; series sections bottleneck. Links shared by every
    path (the access links of end-user endpoints) sit in series with the sum
    of the disjoint cores.
    """
    topo = db.topology

    def rate(link_id: str) -> float:
        link = topo.link(link_id)
        return key_rate(topo.profile_of(link), link.length_km)

    paths = disjoint_paths(db, src, dst, k)
    if not paths:
        return 0.0
    if len(paths) == 1:
        return min(rate(l) for l in paths[0].links)
    shared = set(paths[0].links)
    for p in paths[1:]:
        shared &= set(p.links)
    parallel = 0.0
    for p in paths:
        core = [l for l in p.links if l not in shared]
        parallel += min(rate(l) for l in core)
    if not shared:
        return parallel
    return min(parallel, min(rate(l) for l in shared))
