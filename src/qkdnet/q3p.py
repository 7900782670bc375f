"""Point-to-point key layer: per-link key stores, one-time-pad encryption,
information-theoretic message authentication, and the authenticated header.

Every QKD link feeds an identical stream of secret bytes to a key store at
each endpoint. The stream is held once per link (``KeyStream``) and both
stores read it; a store holds only its consumption state. Because both ends
read the same stream, the two stores stay level-equal as long as they see
the same message history. Production may be counted late: a stream behind
its ``ProductionClock`` is settled by the first read of a level, a pool
length or key bytes, so no reader sees the difference. Produced key bytes
are a function of their offset, derived from the link's key seed when a
reservation reads them, so a stream holds no produced key beyond a small
cache. A link's preshared secret, which bootstraps authentication, is the
first block of its production: the engine produces it before any tick.

To let both endpoints send concurrently without ever assigning the same key
bytes twice, each key block is split in half: the first half is appended to
pool 0, which fuels messages from endpoint ``a`` to ``b``, the second half to
pool 1, the reverse direction. Key is addressed by a span ``(pool, start,
end)`` in pool offsets. The sender allocates sequentially from its own pool,
so every reservation is one span, ledgered by the sender alone; the receiver
burns the exact same span when it opens the message (spans ride along
in-memory, standing in for the key-synchronization dialogue of a real
deployment). ``reserve`` returns a span and ``reserve_exact`` takes one;
neither reads key bytes, so a caller that needs them reads
``stream.read(span)``, and a spend that needs none (a DoS drain) derives
none. Messages may arrive in any order: ``reserve_exact`` refusing key
already consumed is the one replay check.

Every message is keyed and tagged, and spends one span: its first bytes pad
the encrypted part of the payload, if any, and its last 32 key the tag. The
sender reserves the span once and the receiver checks and burns it in one
``reserve_exact`` call. The sender's ledger still accounts one part per
purpose, the pad part and the tag part, as adjacent sub-spans of that one
reservation. It is stored as two columns, each part's end offset and its
purpose, because each part starts where the one before it ended; it is read
as records (``KeyStore.ledger``), rebuilt from the columns. Frames that need
no key, such as transport acks, do not pass through this layer.

The span is also the message's identity. The authenticated header carries
it: magic, version, channel, pool, start, end and payload length. The
span's length less the 32 tag bytes is the encrypted length, and a span
moved, trimmed or stretched in flight fails the tag.

The receiver reads key only for a message that changed in flight. ``seal``
keeps a record, not on the wire, of the wire fields it produced (channel,
span, payload, tag) and of the plaintext. ``open`` burns the span, and when
every wire field of the message as received equals the record, it returns
the kept plaintext. Both ends read the one stream, and a byte reads the same
whenever it is read, so a full check of such a message would read the
sealing key, rebuild the sealed bytes and accept them. Any other message
takes the full path: read the span's key, hash, compare the tag, decrypt.
"""

from __future__ import annotations

import hmac
import struct
from array import array
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from hashlib import shake_128
from operator import itemgetter

AUTH_KEY_BYTES = 32          # key budget per authenticated message
TAG_BYTES = 16               # tag carried on the wire
AUTH_RESERVE_DEFAULT = 4096  # floor held back for authentication only

FRAME_MAGIC = 0x51335021     # "Q3P!"
FRAME_VERSION = 1

_HEADER = struct.Struct(">IBBBQQI")     # magic, version, channel, span, payload length

CHUNK_BYTES = 4096                      # produced key is derived a chunk at a time
_CHUNK_ID = struct.Struct(">BQ")        # pool, chunk index
_OFFSET = itemgetter(0)

_POLY_PRIME = (1 << 128) - 159  # largest 128-bit prime
_MASK_128 = (1 << 128) - 1
# smallest data folded eight blocks per step: the measured break-even of
# that fold against the two-block loop in CPython 3.11 lies at 350-384 B
_FOLD8_MIN_BYTES = 384


class Q3PError(Exception):
    """Base class for key-layer failures."""


class InsufficientKey(Q3PError):
    """Not enough unconsumed key; the caller should back off or reroute."""


class LengthMismatch(Q3PError):
    """Key length does not match the data length."""


class TagMismatch(Q3PError):
    """Authentication tag failed to verify."""


class ReplayDetected(Q3PError):
    """The message's key is already consumed at the receiver: it was opened
    before. ``KeyStore.reserve_exact`` is the replay check; arrival order is
    free."""


class KeyReuseError(Q3PError):
    """A byte range was consumed twice; the one-time-pad invariant was violated."""


class Channel(IntEnum):
    ROUTING = 1
    TRANSPORT = 2
    LSDB_SUMMARY = 4


class Purpose(str, Enum):
    ENCRYPT = "encrypt"
    AUTHENTICATE = "authenticate"
    PRESHARED_REFILL = "preshared_refill"


# Purposes that must not dip the store below its authentication reserve.
_GENERAL_PURPOSES = (Purpose.ENCRYPT, Purpose.PRESHARED_REFILL)

# A ledger part's purpose is stored as its index in ``_PURPOSES``.
_PURPOSES = tuple(Purpose)
_PURPOSE_CODE = {purpose: code for code, purpose in enumerate(_PURPOSES)}


# A span ``(pool, start, end)``: bytes ``[start, end)`` of one direction
# pool. A plain tuple, so it hashes and compares equal at both ends.
Span = tuple[int, int, int]


@dataclass(slots=True)
class LedgerRecord:
    """One part of a reservation from a store's own pool: the span it spent
    and on what. ``KeyStore.ledger`` builds these from its columns."""

    ranges: Span
    purpose: Purpose

    @property
    def n_bytes(self) -> int:
        return self.ranges[2] - self.ranges[1]


class _IntervalSet:
    """Sorted disjoint half-open intervals with overlap rejection; adjacent
    intervals merge, so spans added in order stay one interval."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        """Add ``[start, end)``: ``KeyReuseError`` if it shares a byte with
        an interval in the set, else ``ValueError`` if it is empty."""
        starts, ends = self._starts, self._ends
        i = bisect_right(ends, start)
        if i < len(starts) and starts[i] < end:
            raise KeyReuseError(f"byte range [{start},{end}) overlaps consumed key")
        if end <= start:
            raise ValueError("empty interval")
        if i > 0 and ends[i - 1] == start:
            if i < len(starts) and starts[i] == end:     # fills the gap between two
                ends[i - 1] = ends.pop(i)
                del starts[i]
            else:
                ends[i - 1] = end
        elif i < len(starts) and starts[i] == end:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)

    def __iter__(self):
        return iter(zip(self._starts, self._ends))


class ProductionClock:
    """The production tick that a set of key streams is settled against,
    and the streams spent or pushed since their owner last examined them.

    A stream is current when its ``through`` equals ``ticks``; any read of
    a level, a pool length or key bytes that finds it behind first calls
    the stream's ``settle``, which adds the production of the ticks it
    missed. A reservation or push adds the stream's ``index`` to ``spent``.
    A stream made on its own has a clock of its own that never moves.
    """

    __slots__ = ("ticks", "spent")

    def __init__(self) -> None:
        self.ticks = 0
        self.spent: set[int] = set()


class KeyStream:
    """One link's key stream, held once and read by both endpoint stores.

    Each block splits in half: the first half, the larger of an odd block,
    goes to pool 0 (a to b), the second to pool 1 (b to a), and a span
    ``(pool, start, end)`` addresses a pool's bytes. Produced key is a
    function of its offset, as in a counter-mode KDF (NIST SP 800-108):
    chunk ``j`` of pool ``p`` is the first ``CHUNK_BYTES`` of
    ``shake_128(seed || p || j)``. ``produce`` only grows the pools'
    ``lengths`` and ``appended_bytes``, the latter a counter because every
    level reads it. ``read`` derives the chunks a span covers and keeps the
    last one it derived in each pool: a pool is read at its sender's
    cursor, which only moves forward (a receiver reads key only to open an
    altered message). Pushed blocks are real key: each half
    is kept at the offset where it landed, consecutive pushes as one run,
    and ``read`` lays the runs over the derived bytes. So a byte reads the
    same whenever it is read, and a stream holds only its runs and cached
    chunks.

    Production may also be counted late: ``attach`` ties the stream to a
    shared ``ProductionClock`` and a ``settle`` callback, and each read of
    a level, a length or bytes first settles a stream that is behind the
    clock. The check is an inline compare of ``through`` with the clock, so
    a current stream pays no call. Reservations and pushes mark the stream
    on the clock's ``spent`` set.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.lengths = [0, 0]
        self.appended_bytes = 0
        self._seed = None if seed is None else seed.to_bytes(8, "big")
        self._cache: tuple[dict[int, bytes], ...] = ({}, {})      # chunk index -> chunk
        self._runs: tuple[list[tuple[int, bytearray]], ...] = ([], [])  # (offset, pushed)
        self.clock = ProductionClock()
        self.index = 0
        self.through = 0                         # the clock tick produced through

    def attach(self, clock: ProductionClock, index: int,
               settle: Callable[[], None]) -> None:
        """Settle against ``clock``, through ``settle``, and mark spends as
        ``index``; the stream is current as of the clock's present tick."""
        self.clock, self.index, self.through = clock, index, clock.ticks
        self.settle = settle

    def settle(self) -> None:
        """Bring the stream up to its clock; a stream with no producer
        attached has missed nothing."""
        self.through = self.clock.ticks

    def _chunk(self, pool: int, j: int) -> bytes:
        cache = self._cache[pool]
        if j not in cache:
            cache.clear()
            cache[j] = shake_128(self._seed + _CHUNK_ID.pack(pool, j)).digest(CHUNK_BYTES)
        return cache[j]

    def produce(self, n_bytes: int, n_odd: int) -> None:
        """Add ``n_bytes`` of produced key, in blocks of which ``n_odd`` have
        an odd size."""
        if self._seed is None or n_bytes <= 0 or not 0 <= n_odd <= n_bytes or (n_bytes - n_odd) % 2:
            raise ValueError("production needs a key seed, a positive count and its odd blocks")
        self.lengths[0] += (n_bytes + n_odd) // 2
        self.lengths[1] += (n_bytes - n_odd) // 2
        self.appended_bytes += n_bytes

    def push(self, data: bytes) -> None:
        """Append a block of key bytes after all production so far."""
        if not data:
            raise ValueError("a pushed block must be non-empty")
        if self.through != self.clock.ticks:
            self.settle()
        self.clock.spent.add(self.index)
        half = (len(data) + 1) // 2
        for pool, part in enumerate((data[:half], data[half:])):
            runs, at = self._runs[pool], self.lengths[pool]
            if runs and runs[-1][0] + len(runs[-1][1]) == at:
                runs[-1][1].extend(part)
            elif part:
                runs.append((at, bytearray(part)))
            self.lengths[pool] = at + len(part)
        self.appended_bytes += len(data)

    def check(self, span: Span) -> None:
        """Settle, and refuse a span beyond the stream: spans come from the peer."""
        if self.through != self.clock.ticks:
            self.settle()
        pool, start, end = span
        if pool not in (0, 1) or start < 0 or end > self.lengths[pool]:
            raise InsufficientKey(f"span {span} beyond stream")

    def read(self, span: Span) -> bytes:
        """The key bytes of ``span``, checked."""
        self.check(span)
        pool, start, end = span
        if end <= start:
            return b""
        first, lo = divmod(start, CHUNK_BYTES)
        hi = lo + end - start
        runs = self._runs[pool]
        if not runs and hi <= CHUNK_BYTES:       # the common span: one chunk, nothing pushed
            chunk = self._cache[pool].get(first) or self._chunk(pool, first)
            return chunk[lo:hi]
        i = bisect_right(runs, start, key=_OFFSET) - 1    # the last run from at or before start
        if i >= 0 and end <= runs[i][0] + len(runs[i][1]):
            at, run = runs[i]
            return bytes(run[start - at : end - at])
        last = first + (hi - 1) // CHUNK_BYTES
        out = bytearray(b"".join([self._chunk(pool, j) for j in range(first, last + 1)])[lo:hi])
        for at, run in runs[max(i, 0):]:          # lay the pushed runs over it
            if at >= end:
                break
            a, b = max(start, at), min(end, at + len(run))
            if a < b:
                out[a - start : b - start] = run[a - at : b - at]
        return bytes(out)


class KeyStore:
    """One endpoint's consumption state over its link's shared key stream.

    The stream is held once per link (``KeyStream``); both stores are given
    it and read it. ``side`` 0 sits at the link's ``a`` endpoint and spends
    pool 0 (a to b); side 1 spends pool 1. A store holds each spent span once: its own pool
    is consumed below its cursor and its ledger accounts each reservation,
    one part per purpose; the peer's pool is consumed where the store
    opened the peer's messages, one merged span set plus its byte count.

    The ledger is stored as two columns that ``reserve`` appends: each
    part's end offset in the own pool (``array("q")``) and its purpose code
    (``bytearray``), about 9 B per part. The parts tile the consumed prefix
    in order, the first from 0, so the end offsets fix every span.
    ``ledger`` reads them as ``LedgerRecord``s.

    Every read of a level first settles a stream that is behind its clock
    (``ProductionClock``), written inline so that a current stream costs one
    compare; every reservation marks the stream as spent on that clock.
    """

    def __init__(self, link_id: str, stream: KeyStream, side: int = 0,
                 auth_reserve: int = AUTH_RESERVE_DEFAULT) -> None:
        if side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        self.link_id = link_id
        self.side = side
        self.auth_reserve = auth_reserve
        self.stream = stream
        self._part_ends = array("q")             # ledger: each part's end in pool ``side``
        self._part_purposes = bytearray()        # ledger: each part's purpose code
        self._cursor = 0                         # next offset to reserve in pool ``side``
        self._opened = _IntervalSet()            # spans of the peer's pool opened here
        self._opened_bytes = 0

    # -- levels -------------------------------------------------------------

    @property
    def appended_bytes(self) -> int:
        stream = self.stream
        if stream.through != stream.clock.ticks:
            stream.settle()
        return stream.appended_bytes

    @property
    def ledgered_bytes(self) -> int:
        """Bytes consumed at this end, over both pools."""
        return self._cursor + self._opened_bytes

    @property
    def available_bytes(self) -> int:
        stream = self.stream
        if stream.through != stream.clock.ticks:
            stream.settle()
        return stream.appended_bytes - self._cursor - self._opened_bytes

    def pool_available(self, pool: int) -> int:
        stream = self.stream
        if stream.through != stream.clock.ticks:
            stream.settle()
        spent = self._cursor if pool == self.side else self._opened_bytes
        return stream.lengths[pool] - spent

    @property
    def ledger(self) -> list[LedgerRecord]:
        """One record per reserved part, in order, rebuilt from the columns:
        each part starts where the one before it ended, the first at 0."""
        side, start, records = self.side, 0, []
        for end, code in zip(self._part_ends, self._part_purposes):
            records.append(LedgerRecord((side, start, end), _PURPOSES[code]))
            start = end
        return records

    # -- reservation --------------------------------------------------------

    def refusal(self, general_bytes: int, total_bytes: int) -> str | None:
        """Why this store cannot reserve ``total_bytes`` of which
        ``general_bytes`` are for a general purpose (encryption, refill), or
        None if it can. General-purpose key may not dip the level below the
        authentication reserve; authentication key may spend the reserve
        itself. The whole span must fit the direction pool, and so the store,
        whose level is this pool's unspent bytes plus the peer pool's unopened
        ones."""
        stream, cursor = self.stream, self._cursor
        if stream.through != stream.clock.ticks:
            stream.settle()
        if general_bytes and (stream.appended_bytes - cursor - self._opened_bytes
                              - general_bytes < self.auth_reserve):
            return (f"{general_bytes} B would breach the {self.auth_reserve} B "
                    "authentication reserve")
        if stream.lengths[self.side] - cursor < total_bytes:
            return f"direction pool {self.side} exhausted"
        return None

    def reserve(self, n_bytes: int, purpose: Purpose,
                auth_bytes: int = 0) -> Span:
        """Claim the next ``n_bytes + auth_bytes`` of this store's own pool as
        one span: ``n_bytes`` for ``purpose``, then ``auth_bytes`` of
        authentication key. Returns the span; it reads no key bytes, so a
        caller that needs them reads ``stream.read(span)``.

        The ledger gets one part per purpose, as adjacent sub-spans. A
        reservation is taken whole or not at all; ``refusal`` says when not.
        """
        if n_bytes <= 0 or auth_bytes < 0:
            raise ValueError("n_bytes must be positive and auth_bytes non-negative")
        refused = self.refusal(n_bytes if purpose in _GENERAL_PURPOSES else 0,
                               n_bytes + auth_bytes)
        if refused is not None:
            raise InsufficientKey(f"{self.link_id}/{self.side}: {refused}")
        side, start = self.side, self._cursor
        mid = start + n_bytes
        self._cursor = end = mid + auth_bytes
        self._part_ends.append(mid)
        self._part_purposes.append(_PURPOSE_CODE[purpose])
        if auth_bytes:
            self._part_ends.append(end)
            self._part_purposes.append(_PURPOSE_CODE[Purpose.AUTHENTICATE])
        stream = self.stream
        stream.clock.spent.add(stream.index)
        return side, start, end

    def reserve_exact(self, span: Span) -> None:
        """Burn an explicit span of the peer's pool, mirroring the peer's
        allocation. It reads no key bytes: a caller that needs them reads
        ``stream.read(span)``. The one replay check: any byte consumed here
        already (below the cursor, or opened) is a ``KeyReuseError``. A span
        beyond the stream is ``InsufficientKey``; an empty one, or a fresh one
        in this store's own pool, ``ValueError``."""
        stream = self.stream
        stream.check(span)
        pool, start, end = span
        if pool == self.side:
            if start < self._cursor:
                raise KeyReuseError(f"byte range [{start},{end}) overlaps consumed key")
            raise ValueError(f"span {span} lies in this store's own pool")
        self._opened.add(start, end)
        self._opened_bytes += end - start
        stream.clock.spent.add(stream.index)

    def consumed_ranges(self) -> list[Span]:
        """The own pool's consumed prefix and the peer's opened spans, by pool."""
        own = [(self.side, 0, self._cursor)] if self._cursor else []
        opened = [(1 - self.side, start, end) for start, end in self._opened]
        return sorted(own + opened)


# --- one-time pad and authentication ---------------------------------------

def _xor(data: bytes, key: bytes) -> bytes:
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(key, "big")).to_bytes(n, "big")


def _pad(key: bytes, data: bytes) -> bytes:
    if len(key) != len(data):
        raise LengthMismatch(f"pad key holds {len(key)} B, data is {len(data)} B")
    return _xor(data, key)


def otp_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """XOR the plaintext with key bytes of exactly its length."""
    return _pad(key, plaintext)


def otp_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of otp_encrypt (XOR is an involution)."""
    return _pad(key, ciphertext)


def _poly_tag(key: bytes, data: bytes) -> bytes:
    """Polynomial universal hash over GF(2^128 - 159), masked output.

    The 32-byte key splits into a 16-byte evaluation point ``r`` and a
    16-byte one-time mask. Each 16-byte block is lifted to an integer with a
    length-encoding top byte (poly1305 style) and folded into
    ``acc = (acc + block) * r mod p``; the tag is ``acc XOR mask`` truncated
    to 128 bits. Deterministic, and unconditionally secure as long as each
    key is used for a single message.

    Data of at least ``_FOLD8_MIN_BYTES`` first folds whole 128-byte groups,
    eight blocks per step:
    ``acc = (acc * r^8 + sum(block_j * r^(8-j)) + pad) mod p`` for j = 0..7,
    from one integer per group. Below that size the powers of ``r`` cost
    more than the step saves. Then two blocks ``hi, lo`` fold in one step,
    ``acc = ((acc + hi) * r^2 + lo * r) mod p``: whole 32-byte pairs with
    their two length bits collected in a constant, then a last pair whose
    ``lo`` may be short, or a last single block.
    """
    r = int.from_bytes(key[:16], "big") % _POLY_PRIME
    mask = int.from_bytes(key[16:32], "big")
    r2 = r * r % _POLY_PRIME
    n = len(data)
    acc = 0
    grouped = 0
    if n >= _FOLD8_MIN_BYTES:
        r3 = r2 * r % _POLY_PRIME
        r4 = r2 * r2 % _POLY_PRIME
        r5 = r4 * r % _POLY_PRIME
        r6 = r4 * r2 % _POLY_PRIME
        r7 = r4 * r3 % _POLY_PRIME
        r8 = r4 * r4 % _POLY_PRIME
        pad8 = (r + r2 + r3 + r4 + r5 + r6 + r7 + r8) % _POLY_PRIME << 128
        grouped = n - n % 128
        m = _MASK_128
        for i in range(0, grouped, 128):
            x = int.from_bytes(data[i : i + 128], "big")
            acc = ((acc + (x >> 896)) * r8 + (x >> 768 & m) * r7 + (x >> 640 & m) * r6
                   + (x >> 512 & m) * r5 + (x >> 384 & m) * r4 + (x >> 256 & m) * r3
                   + (x >> 128 & m) * r2 + (x & m) * r + pad8) % _POLY_PRIME
    pad = (r2 + r) << 128
    paired = n - n % 32
    for i in range(grouped, paired, 32):
        pair = int.from_bytes(data[i : i + 32], "big")
        acc = ((acc + (pair >> 128)) * r2 + (pair & _MASK_128) * r + pad) % _POLY_PRIME
    rest = data[paired:]
    if len(rest) > 16:
        lo = rest[16:]
        hi_block = int.from_bytes(rest[:16], "big") + (1 << 128)
        lo_block = int.from_bytes(lo, "big") + (1 << (8 * len(lo)))
        acc = ((acc + hi_block) * r2 + lo_block * r) % _POLY_PRIME
    elif rest:
        acc = (acc + int.from_bytes(rest, "big") + (1 << (8 * len(rest)))) * r % _POLY_PRIME
    return ((acc ^ mask) & _MASK_128).to_bytes(TAG_BYTES, "big")


def authenticate(data: bytes, key: bytes) -> bytes:
    """The 16-byte tag of ``data`` under a 32-byte one-time key."""
    if len(key) != AUTH_KEY_BYTES:
        raise LengthMismatch(f"authentication needs {AUTH_KEY_BYTES} key bytes")
    return _poly_tag(key, data)


def verify(data: bytes, tag: bytes, key: bytes) -> bool:
    """Whether ``tag`` is the tag of ``data`` under the mirrored key."""
    return hmac.compare_digest(authenticate(data, key), tag)


# --- messages -----------------------------------------------------------------

@dataclass(slots=True)
class Q3PMessage:
    """A sealed message plus the one key span its opener must mirror-consume.

    The span is the message's identity: it holds the encryption key of the
    encrypted part, if any, followed by the 32 tag key bytes, so its length
    less 32 is the encrypted length. ``seal`` always sets ``span`` and
    ``tag``; ``open`` refuses a message without them. The tag covers
    ``header_bytes()`` (magic, version, channel, span, payload length)
    followed by the payload, so a span moved, trimmed or stretched in
    flight fails the tag. ``_sealed`` is not on the wire: it keeps the
    sealing end's ``(channel, span, payload, tag, plaintext)`` until the
    message is opened, so the receiver need read no key for a message whose
    wire fields all still equal what ``seal`` produced.
    """

    sender_side: int
    channel: Channel
    payload: bytes                                   # ciphertext when encrypted
    tag: bytes | None
    span: Span | None = None
    _sealed: tuple[Channel, Span, bytes, bytes, bytes] | None = field(
        default=None, repr=False, compare=False)

    @property
    def key_cost_bytes(self) -> int:
        span = self.span
        return 0 if span is None else span[2] - span[1]

    def header_bytes(self) -> bytes:
        return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(self.channel), *self.span,
                            len(self.payload))


class Q3PLink:
    """The mirrored pair of key stores at the two ends of one link.

    ``seal`` runs at the sending store, ``open`` at the receiving store;
    both burn identical spans, so levels stay equal under loss-free
    histories. Every message is keyed and tagged, on every channel.
    Messages may be opened in any order: the receiver's opened spans reject
    replays. ``seed`` is the link's key seed: produced key is derived from
    it and its offset, the preshared block first (see ``KeyStream``). The
    stream starts empty.
    """

    def __init__(self, link_id: str, auth_reserve: int = AUTH_RESERVE_DEFAULT,
                 seed: int | None = None) -> None:
        self.link_id = link_id
        self.stream = KeyStream(seed)
        self.stores = (
            KeyStore(link_id, self.stream, 0, auth_reserve),
            KeyStore(link_id, self.stream, 1, auth_reserve),
        )

    def push(self, data: bytes) -> None:
        """Append a block of key bytes (a refill) to the stream both endpoint
        stores read, after all key produced so far."""
        self.stream.push(data)

    def min_level(self) -> int:
        a, b = self.stores
        return min(a.available_bytes, b.available_bytes)

    def can_seal(self, side: int, encrypt_len: int) -> bool:
        """Whether ``seal`` at ``side`` would find the key for a message that
        encrypts ``encrypt_len`` bytes (0: a tag only)."""
        return self.stores[side].refusal(encrypt_len, encrypt_len + AUTH_KEY_BYTES) is None

    def seal(
        self,
        side: int,
        channel: Channel,
        payload: bytes,
        encrypt: bool = True,
        purpose: Purpose = Purpose.ENCRYPT,
        clear_len: int = 0,
    ) -> Q3PMessage:
        """Reserve one key span, encrypt and tag the payload, and emit the message.

        The first ``clear_len`` payload bytes are framing metadata and stay
        unencrypted (still covered by the tag). The span is the encrypted
        length of ``purpose`` key followed by the 32-byte tag key; a message
        makes one reservation, so it spends all of its key or none.
        """
        n_enc = len(payload) - clear_len if encrypt else 0
        if n_enc > 0:
            if purpose not in _GENERAL_PURPOSES:
                raise ValueError(f"purpose {purpose.value} does not permit encryption")
            span = self.stores[side].reserve(n_enc, purpose, AUTH_KEY_BYTES)
        else:
            n_enc = 0
            span = self.stores[side].reserve(AUTH_KEY_BYTES, Purpose.AUTHENTICATE)
        key = self.stream.read(span)
        body = payload
        if n_enc:
            body = payload[:clear_len] + otp_encrypt(key[:n_enc], payload[clear_len:])
        msg = Q3PMessage(side, channel, body, None, span)
        msg.tag = authenticate(msg.header_bytes() + body, key[n_enc:])
        msg._sealed = (channel, span, body, msg.tag, payload)
        return msg

    def open(self, side: int, msg: Q3PMessage) -> bytes:
        """Verify, mirror-consume, and decrypt a message at the receiving end.

        A message makes one ``reserve_exact`` call on its span, which checks
        it for replay and burns it in one step; a replay (key already spent
        here) reserves nothing. The span is burned before the tag is judged,
        so a forged or corrupted message costs the receiver the bytes it
        names. A message with no span or no tag, or with a span that is not
        the peer's key or holds fewer than 32 B or more than 32 B past the
        payload's length, fails as a tag mismatch on every channel. A message
        whose channel, span, payload and tag all equal the sealing end's
        record returns the sealed plaintext and reads no key; any other is
        checked in full, and the tag covers the span, so any change to it
        fails the tag. The record is cleared either way.
        """
        if side == msg.sender_side:
            raise ValueError("open must run at the opposite end from seal")
        sealed, msg._sealed = msg._sealed, None
        span, payload = msg.span, msg.payload
        if span is None:
            raise TagMismatch(f"{self.link_id}: a message names no key span")
        store = self.stores[side]
        try:
            store.reserve_exact(span)
        except KeyReuseError as err:
            raise ReplayDetected(f"{self.link_id}: span {span} spends consumed key") from err
        except (ValueError, InsufficientKey) as err:
            raise TagMismatch(f"{self.link_id}: span {span} is not the peer's key") from err
        n_enc = span[2] - span[1] - AUTH_KEY_BYTES
        if not 0 <= n_enc <= len(payload):
            raise TagMismatch(f"{self.link_id}: span {span} does not fit its payload")
        if sealed is not None and sealed[:4] == (msg.channel, span, payload, msg.tag):
            return sealed[4]
        key = store.stream.read(span)
        tag = _poly_tag(key[n_enc:], msg.header_bytes() + payload)
        if msg.tag is None or not hmac.compare_digest(tag, msg.tag):
            raise TagMismatch(f"{self.link_id}: tag mismatch on span {span}")
        if not n_enc:
            return payload
        clear = len(payload) - n_enc
        return payload[:clear] + otp_decrypt(key[:n_enc], payload[clear:])
