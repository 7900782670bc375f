"""Key layer: stores, ledger discipline, OTP, authentication, the header."""

import struct
import tracemalloc
from hashlib import shake_128
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qkdnet import q3p
from qkdnet.q3p import (
    AUTH_KEY_BYTES,
    CHUNK_BYTES,
    Channel,
    InsufficientKey,
    KeyReuseError,
    KeyStore,
    KeyStream,
    LedgerRecord,
    LengthMismatch,
    Purpose,
    Q3PLink,
    Q3PMessage,
    ReplayDetected,
    TagMismatch,
    _poly_tag,
    authenticate,
    otp_decrypt,
    otp_encrypt,
    verify,
)

from keyref import derived_pool, produce_halves, push_halves, reference_pools

RNG = Random(99)


def _link(data=b"", reserve=0, seed=None):
    """A link whose stream begins with the block ``data``, pushed."""
    link = Q3PLink("L", auth_reserve=reserve, seed=seed)
    if data:
        link.push(data)
    return link


def store(preshared=0, reserve=0, side=0):
    data = RNG.randbytes(preshared) if preshared else b""
    return _link(data, reserve).stores[side]


def spent(store, span):
    """Whether any byte of ``span`` is consumed at ``store``."""
    pool, start, end = span
    return any(p == pool and s < end and start < e for p, s, e in store.consumed_ranges())


class TestPush:
    def test_empty_store_push_400(self):
        s = store()
        s.stream.push(RNG.randbytes(400))
        assert s.available_bytes == 400

    def test_additivity(self):
        s = store()
        s.stream.push(RNG.randbytes(400))
        s.stream.push(RNG.randbytes(400))
        assert s.available_bytes == 800
        with pytest.raises(ValueError):
            s.stream.push(b"")
        assert s.available_bytes == 800

    def test_link_push_holds_each_block_compactly(self):
        # the stream keeps a block as its bytes: pushes with no production
        # between them extend one run per pool, with no index per half and
        # no Python object per half or per end
        link = _link()
        n_blocks = 20000
        data = Random(7).randbytes(40 * n_blocks)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n_blocks):
                link.push(data[40 * i : 40 * i + 40])
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert link.stores[1].appended_bytes == 40 * n_blocks
        assert used / n_blocks < 64
        assert [len(runs) for runs in link.stream._runs] == [1, 1]
        assert link.stream.read((1, 0, 40)) == data[20:40] + data[60:80]


class TestReserve:
    def test_encrypt_respects_reserve_floor(self):
        s = store(1000, reserve=256)
        s.reserve(500, Purpose.ENCRYPT)
        assert s.available_bytes == 500

    def test_encrypt_breaching_floor_fails(self):
        s = store(300, reserve=256)
        with pytest.raises(InsufficientKey):
            s.reserve(100, Purpose.ENCRYPT)

    def test_authenticate_may_spend_the_floor(self):
        s = store(300, reserve=256)
        s.reserve(100, Purpose.AUTHENTICATE)
        assert s.available_bytes == 200

    def test_accounting_exact_after_every_operation(self):
        s = store(2048, reserve=64)
        for n in (100, 32, 7, 300):
            s.reserve(n, Purpose.AUTHENTICATE)
            assert s.appended_bytes - s.ledgered_bytes == s.available_bytes
        s.stream.push(RNG.randbytes(512))
        assert s.appended_bytes - s.ledgered_bytes == s.available_bytes

    def test_ledger_ranges_never_overlap(self):
        s = store(4096, reserve=0)
        for n in (64, 32, 640, 1, 17):
            s.reserve(n, Purpose.ENCRYPT)
        spans = sorted(rec.ranges for rec in s.ledger)
        assert all(start < end for _, start, end in spans)
        for (p1, s1, e1), (p2, s2, e2) in zip(spans, spans[1:]):
            assert p1 != p2 or e1 <= s2

    def test_ledger_holds_each_part_in_under_40_bytes(self):
        # 10,000 reservations of a pad part and a 32 B tag part each, made
        # twice: the measured store keeps nothing else, and the spans the
        # other store returns rebuild the records its ledger must read back
        data = RNG.randbytes(1_600_000)
        measured, kept = _link(data).stores[0], _link(data).stores[0]
        sizes = [40 + i % 7 for i in range(10_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in sizes:
                measured.reserve(n, Purpose.ENCRYPT, AUTH_KEY_BYTES)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert used / (2 * len(sizes)) < 40
        spans = [kept.reserve(n, Purpose.ENCRYPT, AUTH_KEY_BYTES) for n in sizes]
        want = []
        for side, start, end in spans:
            mid = end - AUTH_KEY_BYTES
            want += [LedgerRecord((side, start, mid), Purpose.ENCRYPT),
                     LedgerRecord((side, mid, end), Purpose.AUTHENTICATE)]
        assert kept.ledger == want
        assert measured.ledger == want

    def test_mirror_consumption_is_range_exact(self):
        a, b = _link(RNG.randbytes(1024), 0).stores
        span = a.reserve(100, Purpose.ENCRYPT)
        key = a.stream.read(span)
        b.reserve_exact(span)
        assert b.stream.read(span) == key
        assert a.available_bytes == b.available_bytes

    def test_double_exact_consumption_raises_key_reuse(self):
        s = store(1024)
        span = s.reserve(64, Purpose.AUTHENTICATE)
        with pytest.raises(KeyReuseError):
            s.reserve_exact(span)

    def test_reservation_is_one_span_of_its_own_pool(self):
        data, block = RNG.randbytes(1000), RNG.randbytes(301)
        pool = (data[:500] + block[:151], data[500:] + block[151:])
        for side in (0, 1):
            s = _link(data).stores[side]
            s.stream.push(block)
            first = s.reserve(100, Purpose.ENCRYPT)
            second = s.reserve(500, Purpose.AUTHENTICATE)   # crosses into block 1's half
            assert (first, second) == ((side, 0, 100), (side, 100, 600))
            assert s.stream.read(first) + s.stream.read(second) == pool[side][:600]
            assert [rec.n_bytes for rec in s.ledger] == [100, 500]

    def test_overlap_in_either_pool_raises_key_reuse(self):
        # both ends spend their own pool from offset 0: only the pool tells
        # the two spans apart
        a, b = _link(RNG.randbytes(1024), 0).stores
        for sender, receiver in ((a, b), (b, a)):
            span = sender.reserve(64, Purpose.ENCRYPT)
            pool, start, end = span
            assert not spent(receiver, span)
            receiver.reserve_exact(span)
            for store in (sender, receiver):
                assert spent(store, (pool, end - 1, end + 8))
                assert not spent(store, (pool, end, end + 8))
                with pytest.raises(KeyReuseError):
                    store.reserve_exact((pool, end - 1, end + 8))
        assert a.ledgered_bytes == b.ledgered_bytes == 128

    def test_own_pool_span_beyond_the_cursor_is_refused(self):
        # a peer never allocates in this store's own pool, so a span there
        # at or past the cursor is refused without moving or ledgering anything
        data = RNG.randbytes(100)
        s = _link(data).stores[0]
        first = s.reserve(10, Purpose.ENCRYPT)
        for span in ((0, 10, 20), (0, 30, 40)):
            with pytest.raises(ValueError):
                s.reserve_exact(span)
        assert s.ledgered_bytes == 10 and [r.ranges for r in s.ledger] == [first]
        span = s.reserve(30, Purpose.ENCRYPT)
        assert span == (0, 10, 40)
        assert s.stream.read(span) == data[10:40]
        assert s.consumed_ranges() == [(0, 0, 40)]

    def test_span_beyond_stream_or_empty_is_refused(self):
        s = store(100)
        for span in ((0, 40, 51), (1, -1, 4), (2, 0, 4)):
            with pytest.raises(InsufficientKey):
                s.reserve_exact(span)
        with pytest.raises(ValueError):
            s.reserve_exact((0, 8, 8))
        with pytest.raises(ValueError):                 # a stream with no key at all
            _link().stores[0].reserve_exact((1, 0, 0))
        with pytest.raises(ValueError):
            s.reserve(0, Purpose.ENCRYPT)
        assert s.ledgered_bytes == 0 and s.ledger == []


class TestOtp:
    def test_zero_plaintext_reveals_key(self):
        s = store(1024, reserve=0)
        key = s.stream.read(s.reserve(64, Purpose.ENCRYPT))
        assert otp_encrypt(key, bytes(64)) == key

    def test_involution(self):
        s = store(4096, reserve=0)
        plaintext = RNG.randbytes(500)
        key = s.stream.read(s.reserve(500, Purpose.ENCRYPT))
        ct = otp_encrypt(key, plaintext)
        assert otp_decrypt(key, ct) == plaintext

    def test_length_mismatch(self):
        s = store(1024, reserve=0)
        key = s.stream.read(s.reserve(16, Purpose.ENCRYPT))
        with pytest.raises(LengthMismatch):
            otp_encrypt(key, bytes(17))

    def test_purpose_and_length_are_checked_before_use(self):
        # an encryption under authentication key is refused before any key
        # is reserved; the primitives refuse key of the wrong length
        link = make_link()
        with pytest.raises(ValueError):
            link.seal(0, Channel.TRANSPORT, b"m" * 32, purpose=Purpose.AUTHENTICATE)
        assert link.stores[0].ledgered_bytes == 0 and link.stores[0].ledger == []
        key = RNG.randbytes(AUTH_KEY_BYTES)
        for use in (lambda: otp_encrypt(key, bytes(31)),
                    lambda: otp_decrypt(key, bytes(33)),
                    lambda: authenticate(b"m", key[:16]),
                    lambda: verify(b"m", bytes(16), key + b"x")):
            with pytest.raises(LengthMismatch):
                use()


def _reference_tag(key, data):
    """The tag as first written, one 16-byte block per step: the reference
    the paired folding in ``_poly_tag`` must match bit for bit."""
    p = (1 << 128) - 159
    r = int.from_bytes(key[:16], "big") % p
    mask = int.from_bytes(key[16:32], "big")
    acc = 0
    for i in range(0, len(data), 16):
        chunk = data[i : i + 16]
        block = int.from_bytes(chunk, "big") + (1 << (8 * len(chunk)))
        acc = (acc + block) * r % p
    return ((acc ^ mask) & ((1 << 128) - 1)).to_bytes(16, "big")


class TestAuthentication:
    def test_round_trip(self):
        msg = b"link state: all good"
        link = make_link()
        span = link.stores[0].reserve(AUTH_KEY_BYTES, Purpose.AUTHENTICATE)
        tag = authenticate(msg, link.stores[0].stream.read(span))
        link.stores[1].reserve_exact(span)
        mirror = link.stores[1].stream.read(span)
        assert verify(msg, tag, mirror)
        assert not verify(msg + b"!", tag, mirror)

    def test_bit_flips_rejected(self):
        key = RNG.randbytes(32)
        msg = RNG.randbytes(200)
        tag = _poly_tag(key, msg)
        rejected = 0
        for trial in range(1000):
            flipped = bytearray(msg)
            bit = RNG.randrange(len(msg) * 8)
            flipped[bit // 8] ^= 1 << (bit % 8)
            if _poly_tag(key, bytes(flipped)) != tag:
                rejected += 1
        assert rejected == 1000

    def test_key_reuse_blocked_by_ledger(self):
        s = store(1024, reserve=0)
        span = s.reserve(AUTH_KEY_BYTES, Purpose.AUTHENTICATE)
        authenticate(b"first", s.stream.read(span))
        with pytest.raises(KeyReuseError):
            s.reserve_exact(span)
        assert s.reserve(AUTH_KEY_BYTES, Purpose.AUTHENTICATE)[1] == span[2]

    def test_paired_folding_matches_one_block_reference(self):
        p = (1 << 128) - 159
        points = [bytes(16), p.to_bytes(16, "big"), (p + 1).to_bytes(16, "big"), b"\xff" * 16]
        keys = [Random(k).randbytes(32) for k in range(3)]
        keys += [r + Random(9).randbytes(16) for r in points] + [b"\xff" * 32]
        for n in [*range(200), 255, 256, 293, 383, 384, 385, 1061, 1747, 4096]:
            data = RNG.randbytes(n)
            for key in keys:
                assert _poly_tag(key, data) == _reference_tag(key, data), (n, key)

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=50)
    def test_tag_deterministic(self, payload):
        key = bytes(range(32))
        assert _poly_tag(key, payload) == _poly_tag(key, payload)
        assert len(_poly_tag(key, payload)) == 16


def make_link(preshared=65536, reserve=4096):
    return _link(Random(5).randbytes(preshared), reserve)


# one changed value for each wire field of a sealed message
_TAMPERS = {
    "channel": lambda m: Channel.ROUTING if m.channel != Channel.ROUTING else Channel.TRANSPORT,
    "span": lambda m: (m.span[0], m.span[1] + 1, m.span[2]),     # trimmed from the front
    "payload": lambda m: m.payload[:-1] + bytes([m.payload[-1] ^ 1]),
    "tag": lambda m: bytes([m.tag[0] ^ 1]) + m.tag[1:],
}


def _equal_copy(value):
    """An equal value that is not the same object, where the type allows."""
    if isinstance(value, Channel):
        return int(value)
    if isinstance(value, tuple):
        return tuple(list(value))
    if isinstance(value, bytes):
        return bytes(bytearray(value))
    return value


class TestSealOpen:
    def test_encrypt_auth_costs_payload_plus_32(self):
        link = make_link()
        before = link.stores[0].available_bytes
        msg = link.seal(0, Channel.TRANSPORT, RNG.randbytes(100))
        assert msg.key_cost_bytes == 132
        assert before - link.stores[0].available_bytes == 132
        link.open(1, msg)
        assert link.stores[1].available_bytes == link.stores[0].available_bytes

    def test_auth_only_costs_32(self):
        link = make_link()
        before = link.stores[0].available_bytes
        msg = link.seal(0, Channel.ROUTING, RNG.randbytes(50), encrypt=False)
        assert before - link.stores[0].available_bytes == 32
        assert link.open(1, msg) == msg.payload

    def test_round_trip_every_channel_with_and_without_encryption(self):
        link = make_link()
        payload = RNG.randbytes(300)
        for channel in Channel:
            for encrypt in (False, True):
                msg = link.seal(0, channel, payload, encrypt=encrypt)
                assert msg.tag is not None
                assert msg.key_cost_bytes == (len(payload) if encrypt else 0) + AUTH_KEY_BYTES
                assert link.open(1, msg) == payload

    def test_replay_detected(self):
        link = make_link()
        msg = link.seal(0, Channel.TRANSPORT, b"x" * 10)
        link.open(1, msg)
        with pytest.raises(ReplayDetected):
            link.open(1, msg)

    def test_reordered_messages_open_and_replays_spend_nothing(self):
        link = make_link()
        m1 = link.seal(0, Channel.TRANSPORT, b"first" * 8)
        m2 = link.seal(0, Channel.TRANSPORT, b"second" * 8)
        assert link.open(1, m2) == b"second" * 8
        assert link.open(1, m1) == b"first" * 8
        receiver = link.stores[1]
        ledgered, ranges = receiver.ledgered_bytes, receiver.consumed_ranges()
        for msg in (m1, m2):
            with pytest.raises(ReplayDetected):
                link.open(1, msg)
        assert receiver.ledgered_bytes == ledgered == link.stores[0].ledgered_bytes
        assert receiver.consumed_ranges() == ranges

    def test_partial_replay_is_detected_and_spends_nothing(self):
        # a span that starts one byte inside an opened message's span and
        # ends in fresh key is a replay, refused whole: none of its fresh
        # bytes is burned
        link = make_link()
        m1 = link.seal(0, Channel.TRANSPORT, b"first" * 8)
        m2 = link.seal(0, Channel.TRANSPORT, b"second" * 8)
        link.open(1, m1)
        receiver = link.stores[1]
        ledgered, ranges = receiver.ledgered_bytes, receiver.consumed_ranges()
        pool, _, end = m1.span
        m2.span = (pool, end - 1, m2.span[2])
        with pytest.raises(ReplayDetected):
            link.open(1, m2)
        assert receiver.ledgered_bytes == ledgered
        assert receiver.consumed_ranges() == ranges

    def test_tampered_message_fails_tag(self):
        # the tag covers the payload and every header field, the span among
        # them. A span moved, shortened at its end or lengthened also keys
        # the tag with other bytes; a span trimmed from the front keys it
        # with the sealed tag key, and only the header tells it apart
        tampers = {
            "payload byte": lambda m: setattr(
                m, "payload", m.payload[:-1] + bytes([m.payload[-1] ^ 1])),
            "channel": lambda m: setattr(m, "channel", Channel.ROUTING),
            "tag": lambda m: setattr(m, "tag", bytes([m.tag[0] ^ 1]) + m.tag[1:]),
            "span moved": lambda m: setattr(  # the next unspent span of the pool
                m, "span", (0, m.span[2], 2 * m.span[2])),
            "span shortened": lambda m: setattr(m, "span", (0, 0, m.span[2] - 1)),
            "span lengthened": lambda m: setattr(m, "span", (0, 0, m.span[2] + 1)),
            "span trimmed from the front": lambda m: setattr(m, "span", (0, 1, m.span[2])),
        }
        for encrypt in (False, True):
            for name, tamper in tampers.items():
                link = make_link()
                msg = link.seal(0, Channel.TRANSPORT, b"y" * 40, encrypt=encrypt)
                cost = msg.key_cost_bytes
                tamper(msg)
                with pytest.raises(TagMismatch):
                    link.open(1, msg)
                # the failed message costs the sender its whole key and the
                # receiver the span it names: the same bytes, unless the span
                # was shortened or lengthened in flight
                a, b = link.stores
                assert a.ledgered_bytes == cost, (encrypt, name)
                assert b.ledgered_bytes == msg.key_cost_bytes, (encrypt, name)
                assert a.consumed_ranges() == [(0, 0, cost)], (encrypt, name)
                assert b.consumed_ranges() == [msg.span], (encrypt, name)

    def test_open_lets_only_tag_and_replay_failures_escape(self):
        # the node agent catches only these two; a span outside the peer's
        # pool or at odds with the payload's length must not raise anything
        # else, and a forged message is never accepted: with a tag it fails
        # the tag, without one it fails for want of a tag
        pool_len = make_link().stream.lengths[0]
        spans = [None, (0, 0, 40), (0, 0, 72), (0, 10, 72), (1, 0, 40), (2, 0, 40),
                 (-1, 0, 40), (0, 50, 50), (0, 60, 50), (0, pool_len - 10, pool_len + 10),
                 (0, 0, 3), (0, 0, 31), (0, 0, 73), (0, 0, 500)]
        for encrypt in (False, True):
            for tagged in (False, True):
                for span in spans:
                    link = make_link(reserve=0)
                    msg = link.seal(0, Channel.TRANSPORT, b"z" * 40, encrypt=encrypt)
                    sealed_span = msg.span
                    if (msg.span, tagged) == (span, True):
                        continue
                    msg.span = span
                    if not tagged:
                        msg.tag = None
                    try:
                        link.open(1, msg)
                    except (TagMismatch, ReplayDetected):
                        continue
                    pytest.fail(f"forged {span=} {tagged=} opened; sealed {sealed_span}")

    def test_every_channel_needs_a_tag(self):
        # a message that shortens its span to leave out the tag key, or
        # drops its tag, is refused on every channel and costs the receiver
        # the span it names, like any forged tag; one that names no span at
        # all costs nothing
        for channel in Channel:
            link = make_link(reserve=0)
            msg = link.seal(0, channel, b"t" * 40)
            start = msg.span[1]
            msg.span = (0, start, start + 31)
            with pytest.raises(TagMismatch):
                link.open(1, msg)
            assert link.stores[1].consumed_ranges() == [(0, start, start + 31)], channel
            untagged = link.seal(0, channel, b"u" * 40)
            untagged.tag = None
            with pytest.raises(TagMismatch):
                link.open(1, untagged)
            assert spent(link.stores[1], untagged.span), channel
            ledgered = link.stores[1].ledgered_bytes
            with pytest.raises(TagMismatch):
                link.open(1, Q3PMessage(0, channel, b"ack", bytes(16)))
            assert link.stores[1].ledgered_bytes == ledgered, channel

    def test_one_reservation_and_one_mirror_per_keyed_message(self, monkeypatch):
        # a message reserves its one span once; the opener checks and
        # mirror-consumes it in one call
        calls = []
        for name in ("reserve", "reserve_exact"):
            original = getattr(KeyStore, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(KeyStore, name, counting)
        link = make_link()
        for encrypt in (True, False):
            for side in (0, 1):
                del calls[:]
                msg = link.seal(side, Channel.TRANSPORT, RNG.randbytes(100), encrypt=encrypt)
                assert calls == ["reserve"]
                del calls[:]
                link.open(1 - side, msg)
                assert calls == ["reserve_exact"]

    @pytest.mark.parametrize("field", sorted(_TAMPERS))
    def test_tampered_payload_fails_tag(self, field):
        # any one wire field changed in flight takes the full check and
        # fails the tag; the failed message costs the receiver the span it
        # names, and its whole key when that span is the sealed one
        link = make_link()
        msg = link.seal(0, Channel.TRANSPORT, b"y" * 40)
        setattr(msg, field, _TAMPERS[field](msg))
        with pytest.raises(TagMismatch):
            link.open(1, msg)
        a, b = link.stores
        assert a.consumed_ranges() == [(0, 0, 40 + AUTH_KEY_BYTES)]
        assert b.consumed_ranges() == [msg.span]
        if field != "span":
            assert b.ledgered_bytes == 40 + AUTH_KEY_BYTES

    @pytest.mark.parametrize("field", sorted(_TAMPERS))
    def test_a_field_replaced_by_an_equal_copy_still_opens(self, field):
        link = make_link()
        msg = link.seal(0, Channel.TRANSPORT, b"y" * 40)
        setattr(msg, field, _equal_copy(getattr(msg, field)))
        assert link.open(1, msg) == b"y" * 40
        assert link.stores[1].ledgered_bytes == 40 + AUTH_KEY_BYTES

    def test_an_unaltered_message_opens_without_reading_key(self, monkeypatch):
        # the receiver burns the span and returns the sealed plaintext: no
        # key read, so no chunk derived, though the cache no longer holds it
        link = _link(seed=1)
        link.stream.produce(4 * CHUNK_BYTES, 0)
        msg = link.seal(0, Channel.TRANSPORT, b"p" * 100)
        tampered = link.seal(0, Channel.TRANSPORT, b"q" * 100)
        tampered.tag = _TAMPERS["tag"](tampered)
        reads, derived = [], []
        read = KeyStream.read

        def counted_read(self, span):
            reads.append(span)
            return read(self, span)

        def counted_derivation(data):
            derived.append(data)
            return shake_128(data)

        monkeypatch.setattr(KeyStream, "read", counted_read)
        monkeypatch.setattr(q3p, "shake_128", counted_derivation)
        for cache in link.stream._cache:
            cache.clear()
        assert link.open(1, msg) == b"p" * 100
        assert (reads, derived) == ([], [])
        assert link.stores[1].consumed_ranges() == [msg.span]
        # a changed message is checked in full: it reads its span's key
        with pytest.raises(TagMismatch):
            link.open(1, tampered)
        assert reads == [tampered.span] and len(derived) == 1

    def test_each_authenticated_message_is_hashed_once(self, monkeypatch):
        # the sealing end hashes; the receiver of an unaltered message does not
        calls = []

        def counting(key, data):
            calls.append(len(data))
            return _poly_tag(key, data)

        monkeypatch.setattr(q3p, "_poly_tag", counting)
        link = make_link()
        n = 25
        for side in (0, 1):
            before = len(calls)
            for i in range(n):
                payload = RNG.randbytes(30 + i)
                msg = link.seal(side, Channel.TRANSPORT, payload, encrypt=i % 2 == 0)
                assert link.open(1 - side, msg) == payload
            assert len(calls) - before == n

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_corrupted_message_costs_only_its_own_key(self, data):
        link = make_link()
        sent = []
        for _ in range(data.draw(st.integers(1, 12), label="messages")):
            side = data.draw(st.integers(0, 1))
            payload = data.draw(st.binary(max_size=200))
            msg = link.seal(side, Channel.TRANSPORT, payload, encrypt=data.draw(st.booleans()))
            corrupt = data.draw(st.booleans())
            if corrupt:
                # one byte of what travels after the header: payload, then tag
                wire = bytearray(msg.payload + msg.tag)
                wire[data.draw(st.integers(0, len(wire) - 1))] ^= data.draw(st.integers(1, 255))
                cut = len(msg.payload)
                msg.payload, msg.tag = bytes(wire[:cut]), bytes(wire[cut:])
            sent.append((msg, payload, corrupt))
        for i in data.draw(st.permutations(range(len(sent))), label="open order"):
            msg, payload, corrupt = sent[i]
            if corrupt:
                with pytest.raises(TagMismatch):
                    link.open(1 - msg.sender_side, msg)
            else:
                assert link.open(1 - msg.sender_side, msg) == payload
        a, b = link.stores
        assert a.ledgered_bytes == b.ledgered_bytes
        for side in (0, 1):
            assert link.open(1 - side, link.seal(side, Channel.TRANSPORT, b"fresh")) == b"fresh"

    def test_mirror_symmetry_bidirectional(self):
        link = make_link()
        for i in range(20):
            side = i % 2
            msg = link.seal(side, Channel.TRANSPORT, RNG.randbytes(64 + i))
            link.open(1 - side, msg)
        a, b = link.stores
        assert a.available_bytes == b.available_bytes
        assert sorted(a.consumed_ranges()) == sorted(b.consumed_ranges())

    def test_lossless_link_holds_one_span_per_pool_at_each_end(self):
        # the own pool is a prefix, and in-order opened spans merge into one
        link = make_link()
        for i in range(100):
            side = i % 2
            msg = link.seal(side, Channel.TRANSPORT, RNG.randbytes(20 + i),
                            encrypt=i % 3 != 0)
            link.open(1 - side, msg)
        a, b = link.stores
        assert len(a.consumed_ranges()) == len(b.consumed_ranges()) == 2
        assert a.consumed_ranges() == b.consumed_ranges()
        assert [span[:2] for span in a.consumed_ranges()] == [(0, 0), (1, 0)]

    def test_insufficient_key_signals_backoff(self):
        link = _link(Random(6).randbytes(8192), 4096)
        with pytest.raises(InsufficientKey):
            link.seal(0, Channel.TRANSPORT, RNG.randbytes(8000))

    def test_auth_only_works_below_the_reserve(self):
        # routing keeps flooding even on a link drained under its floor
        link = _link(Random(6).randbytes(2048), 4096)
        msg = link.seal(0, Channel.ROUTING, b"lsa" * 10, encrypt=False)
        assert link.open(1, msg) == b"lsa" * 10

    def test_reserve_guarantees_a_message_budget(self):
        # once encryption is refused, the floor still funds at least
        # auth_reserve / 32 authenticated messages across the two directions
        link = _link(Random(8).randbytes(12288), 4096)
        side = 0
        while True:
            try:
                msg = link.seal(side, Channel.TRANSPORT, RNG.randbytes(1024))
                link.open(1 - side, msg)
            except InsufficientKey:
                break
        sent = 0
        while True:
            try:
                msg = link.seal(side, Channel.ROUTING, b"keepalive", encrypt=False)
                link.open(1 - side, msg)
                sent += 1
                side = 1 - side
            except InsufficientKey:
                if side == 1:
                    break
                side = 1
        assert sent >= 4096 // 32

    def test_can_seal_and_seal_share_one_admission_rule(self):
        # can_seal says yes exactly when seal finds the key, and a refusal
        # names the rule that failed: the reserve floor or the direction pool
        link = _link(Random(6).randbytes(12288), 4096)
        reasons = set()
        for step in range(600):
            # varied sizes until the floor stops encryption, then tags only
            side, n_enc = step % 2, (step * 37) % 1500 if step < 100 else 0
            admitted = link.can_seal(side, n_enc)
            try:
                msg = link.seal(side, Channel.TRANSPORT, RNG.randbytes(n_enc),
                                encrypt=n_enc > 0)
            except InsufficientKey as err:
                assert not admitted, (step, n_enc)
                reasons.add("reserve" if "authentication reserve" in str(err)
                            else "pool" if f"direction pool {side} exhausted" in str(err)
                            else str(err))
                continue
            assert admitted, (step, n_enc)
            link.open(1 - side, msg)
        assert reasons == {"reserve", "pool"}

    def test_partial_encryption_keeps_header_clear(self):
        link = make_link()
        payload = b"HEADER" + RNG.randbytes(64)
        msg = link.seal(0, Channel.TRANSPORT, payload, clear_len=6)
        assert msg.payload[:6] == b"HEADER"
        assert msg.key_cost_bytes == 64 + 32
        assert link.open(1, msg) == payload


_HISTORY = st.lists(
    st.one_of(
        # (seal, side, size, clear bytes, encrypt?, channel)
        st.tuples(st.just("seal"), st.integers(0, 1), st.integers(0, 120),
                  st.integers(0, 30), st.booleans(), st.sampled_from(Channel)),
        # (open, which sealed message, what to change, how): reopening a
        # message is a replay; "copy" swaps every wire field for an equal copy
        st.tuples(st.just("open"), st.integers(0, 30),
                  st.sampled_from([None, None, "copy", "channel", "span", "payload", "tag"]),
                  st.integers(0, 1 << 16)),
    ),
    max_size=40,
)


def _changed(msg, field, how):
    """A drawn replacement for one wire field: it may equal the old value."""
    if field == "channel":
        return list(Channel)[how % len(Channel)]
    if field == "span":
        pool, start, end = msg.span
        d = how // 4 % 81 - 40
        return ((pool, start + d, end), (pool, start, end + d),
                (pool, start + d, end + d), (1 - pool, start, end))[how % 4]
    if field == "payload":
        if not msg.payload or how % 3 == 0:
            return msg.payload + bytes([how % 256])
        wire = bytearray(msg.payload)
        wire[how % len(wire)] ^= how // len(wire) % 255 + 1
        return bytes(wire[: len(wire) - how % 3 + 1])     # flipped, maybe cut short
    if how % 3 == 0:
        return None
    return bytes([msg.tag[0] ^ (how % 255 + 1)]) + msg.tag[1:]


class TestOpenWithoutKey:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 3), history=_HISTORY)
    def test_the_sealed_record_opens_as_the_full_check_would(self, seed, history):
        # two twin links see the same history; on the second every message
        # is opened with its sealed record dropped, so it takes the full
        # check: read the key, hash, compare the tag, decrypt
        twins = (_link(seed=seed), _link(seed=seed))
        for link in twins:
            link.stream.produce(9000, 0)
        sent = []
        for op in history:
            if op[0] == "seal":
                _, side, size, clear, encrypt, channel = op
                payload = Random(size).randbytes(size)
                pair = [link.seal(side, channel, payload, encrypt=encrypt,
                                  clear_len=min(clear, size)) for link in twins]
                assert pair[0] == pair[1]
                pair[1]._sealed = None
                sent.append([pair, payload, False])
                continue
            _, which, field, how = op
            if not sent:
                continue
            pair, payload, changed = entry = sent[which % len(sent)]
            if field == "copy":
                for name in _TAMPERS:
                    setattr(pair[0], name, _equal_copy(getattr(pair[0], name)))
            elif field is not None and pair[0].tag is not None:
                value = _changed(pair[0], field, how)
                entry[2] = changed = changed or value != getattr(pair[0], field)
                for msg in pair:
                    setattr(msg, field, value)
            outcomes = []
            for link, msg in zip(twins, pair):
                try:
                    outcomes.append(link.open(1 - msg.sender_side, msg))
                except q3p.Q3PError as err:
                    outcomes.append(type(err))
            assert outcomes[0] == outcomes[1]
            if not changed and outcomes[0] is not ReplayDetected:
                assert outcomes[0] == payload
            state = [[(s.consumed_ranges(), s.ledgered_bytes, s.available_bytes)
                      for s in link.stores] for link in twins]
            assert state[0] == state[1]


class TestRandomOperationSequences:
    def test_invariants_hold_under_random_traffic(self):
        # arbitrary interleaving of pushes and bidirectional seals: the
        # ledger never overlaps and accounting stays exact at both ends
        for seed in range(10):
            rng = Random(1000 + seed)
            link = _link(rng.randbytes(16384), 1024)
            pushed = 0
            for _ in range(120):
                op = rng.random()
                if op < 0.3:
                    n = rng.randint(1, 900)
                    link.push(rng.randbytes(n))
                    pushed += n
                else:
                    side = rng.randint(0, 1)
                    size = rng.randint(1, 700)
                    encrypt = rng.random() < 0.7
                    try:
                        msg = link.seal(side, Channel.TRANSPORT, rng.randbytes(size),
                                        encrypt=encrypt)
                    except InsufficientKey:
                        continue
                    link.open(1 - side, msg)
                for store in link.stores:
                    assert store.appended_bytes == 16384 + pushed
                    assert store.appended_bytes - store.ledgered_bytes == store.available_bytes
                    spans = sorted(rec.ranges for rec in store.ledger)
                    for (p1, s1, e1), (p2, s2, e2) in zip(spans, spans[1:]):
                        assert p1 != p2 or e1 <= s2
            a, b = link.stores
            assert a.available_bytes == b.available_bytes


_CURSOR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(1, 40)),
        # (reserve, direction, end exactly on a chunk boundary?, boundaries
        # to skip when it does, size when it does not)
        st.tuples(st.just("reserve"), st.integers(0, 1), st.booleans(),
                  st.integers(0, 2), st.integers(1, 60)),
    ),
    max_size=60,
)


class TestReserveCursor:
    @settings(max_examples=200, deadline=None)
    @given(preshared=st.integers(0, 9), ops=_CURSOR_OPS)
    def test_reservations_are_the_next_bytes_of_their_pool(self, preshared, ops):
        # reference model: each pool is its blocks' halves concatenated, and
        # reservations slice it at a running offset
        data = Random(preshared).randbytes(preshared)
        stores = _link(data).stores
        pools = [bytearray(), bytearray()]
        chunk_ends = [[], []]
        offset = [0, 0]

        def add(block):
            half = (len(block) + 1) // 2
            for d, part in enumerate((block[:half], block[half:])):
                if part:
                    pools[d] += part
                    chunk_ends[d].append(len(pools[d]))

        add(data)
        next_id = 1
        for op in ops:
            if op[0] == "push":
                block = Random(next_id).randbytes(op[1])
                stores[0].stream.push(block)
                add(block)
                next_id += 1
                continue
            _, d, to_chunk_end, skip, size = op
            if to_chunk_end:
                ahead = [e for e in chunk_ends[d] if e > offset[d]]
                if not ahead:
                    continue
                size = ahead[min(skip, len(ahead) - 1)] - offset[d]
            if size > len(pools[d]) - offset[d]:
                continue
            want = bytes(pools[d][offset[d] : offset[d] + size])
            span = stores[d].reserve(size, Purpose.AUTHENTICATE)
            assert span == (d, offset[d], offset[d] + size)
            assert stores[d].stream.read(span) == want
            stores[1 - d].reserve_exact(span)
            assert stores[1 - d].stream.read(span) == want
            offset[d] += size


_LINK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(1, 80)),
        # (seal, side, size, lost?)
        st.tuples(st.just("seal"), st.integers(0, 1), st.integers(1, 90), st.booleans()),
    ),
    max_size=50,
)


class TestLinkStream:
    @settings(max_examples=150, deadline=None)
    @given(preshared=st.integers(0, 120), ops=_LINK_OPS)
    def test_both_ends_spend_the_one_stream_in_step(self, preshared, ops):
        # reference model: each pool is its blocks' halves concatenated, and
        # a sender takes the next bytes of its pool as one span; lost
        # messages are never opened
        data = Random(preshared).randbytes(preshared)
        link = _link(data)
        pools = [bytearray(), bytearray()]
        offset = [0, 0]
        ledgered = [0, 0]
        lost_from = [0, 0]
        opened = []

        def add(block):
            half = (len(block) + 1) // 2
            pools[0] += block[:half]
            pools[1] += block[half:]

        def take(d, n):
            start, end = offset[d], offset[d] + n
            offset[d] = end
            return (d, start, end), bytes(pools[d][start:end])

        add(data)
        next_id = 1
        for op in ops:
            if op[0] == "push":
                block = Random(next_id).randbytes(op[1])
                link.push(block)
                add(block)
                next_id += 1
                continue
            _, side, size, lost = op
            tag_len = AUTH_KEY_BYTES
            payload = Random(size).randbytes(size)
            if size + tag_len > len(pools[side]) - offset[side]:
                with pytest.raises(InsufficientKey):
                    link.seal(side, Channel.TRANSPORT, payload)
                continue
            msg = link.seal(side, Channel.TRANSPORT, payload)
            span, key = take(side, size + tag_len)
            assert msg.span == span
            assert msg.payload == bytes(x ^ k for x, k in zip(payload, key[:size]))
            assert msg.tag == _poly_tag(key[size:], msg.header_bytes() + msg.payload)
            # one span, ledgered per purpose as adjacent sub-spans
            _, start, end = span
            want = [((side, start, start + size), Purpose.ENCRYPT),
                    ((side, start + size, end), Purpose.AUTHENTICATE)]
            assert [(r.ranges, r.purpose) for r in link.stores[side].ledger[-len(want):]] == want
            ledgered[side] += size + tag_len
            if not lost:
                assert link.open(1 - side, msg) == payload
                ledgered[1 - side] += size + tag_len
                opened.append(msg)
            else:
                lost_from[side] += 1
        for s, store in enumerate(link.stores):
            assert store.appended_bytes == len(pools[0]) + len(pools[1])
            assert store.ledgered_bytes == ledgered[s]
            assert store.appended_bytes - store.ledgered_bytes == store.available_bytes
            # the opened spans merge: each lost message leaves at most one hole
            opened_spans = [span for span in store.consumed_ranges() if span[0] != s]
            assert len(opened_spans) <= 1 + lost_from[1 - s]
        for msg in opened:
            for store in link.stores:
                with pytest.raises(KeyReuseError):
                    store.reserve_exact(msg.span)


_LAZY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("produce"), st.integers(1, 60)),
        st.tuples(st.just("refill"), st.integers(1, 40)),
        # (reserve, side, size): the next bytes of that side's own pool,
        # then mirrored at the other end
        st.tuples(st.just("reserve"), st.integers(0, 1), st.integers(1, 70)),
        # (read, pool, start, length), clipped to the pool's logical length
        st.tuples(st.just("read"), st.integers(0, 1), st.integers(0, 400),
                  st.integers(0, 60)),
    ),
    max_size=60,
)


class TestLazyStream:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 3), preshared=st.integers(0, 40), ops=_LAZY_OPS)
    def test_lazy_stream_reads_what_an_eager_one_holds(self, seed, preshared, ops):
        # reference: each whole pool built independently from the chunk
        # function, with every push laid over it where it landed
        data = Random(preshared).randbytes(preshared)
        link = _link(data, seed=seed)
        stream = link.stream
        lengths, pushed = [0, 0], []
        push_halves(lengths, data, pushed)
        next_id = 1
        for op in ops:
            if op[0] == "produce":
                stream.produce(op[1], op[1] % 2)
                produce_halves(lengths, op[1])
            elif op[0] == "refill":
                block = Random(1000 + next_id).randbytes(op[1])
                link.push(block)
                push_halves(lengths, block, pushed)
                next_id += 1
            elif op[0] == "reserve":
                _, side, size = op
                sender, receiver = link.stores[side], link.stores[1 - side]
                if size > sender.pool_available(side):
                    with pytest.raises(InsufficientKey):
                        sender.reserve(size, Purpose.AUTHENTICATE)
                    continue
                span = sender.reserve(size, Purpose.AUTHENTICATE)
                key = sender.stream.read(span)
                _, start, end = span
                pools = reference_pools(seed, lengths, pushed)
                assert key == bytes(pools[side][start:end])
                receiver.reserve_exact(span)
                assert receiver.stream.read(span) == key
            else:
                _, pool, start, length = op
                start = min(start, lengths[pool])
                end = min(start + length, lengths[pool])
                pools = reference_pools(seed, lengths, pushed)
                assert stream.read((pool, start, end)) == bytes(pools[pool][start:end])
            assert stream.lengths == lengths
            assert stream.appended_bytes == sum(lengths)
            assert all(len(cache) <= 2 for cache in stream._cache)
        pools = reference_pools(seed, lengths, pushed)
        for pool in (0, 1):
            n = lengths[pool]
            assert stream.read((pool, 0, n)) == bytes(pools[pool])
            with pytest.raises(InsufficientKey):
                stream.read((pool, 0, n + 1))

    def test_production_needs_a_source_and_a_positive_count(self):
        # the source of produced key is the stream's seed; a block count
        # must match the byte count's parity
        for seed, n_bytes, n_odd in ((None, 10, 0), (1, 0, 0), (1, 5, 0), (1, 4, 1),
                                     (1, 3, 5), (1, 3, -1)):
            with pytest.raises(ValueError):
                KeyStream(seed).produce(n_bytes, n_odd)
        stream = KeyStream(1)
        stream.produce(7, 3)                     # e.g. blocks of 1, 3 and 3 bytes
        assert stream.lengths == [5, 2]


# (pushed?, size): the blocks that fill a stream, large enough to cross
# several 4 KiB chunks of both pools
_BLOCKS = st.lists(st.tuples(st.booleans(), st.integers(1, 6000)), min_size=1, max_size=6)


def _filled(seed, blocks):
    """A stream keyed by ``seed`` filled by ``blocks``, and its reference
    lengths and pushes."""
    stream, lengths, pushed = KeyStream(seed), [0, 0], []
    for i, (is_push, size) in enumerate(blocks):
        if is_push:
            block = Random(i).randbytes(size)
            stream.push(block)
            push_halves(lengths, block, pushed)
        else:
            stream.produce(size, size % 2)
            produce_halves(lengths, size)
    return stream, lengths, pushed


def _span_near_boundary(lengths, pool, boundary, back, length):
    """A span of ``pool`` that starts ``back`` bytes before a chunk boundary,
    clipped to the pool."""
    start = max(0, min(lengths[pool], CHUNK_BYTES * boundary - back))
    return (pool, start, min(lengths[pool], start + length))


class TestOffsetKey:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 3), blocks=_BLOCKS, pool=st.integers(0, 1),
           boundary=st.integers(1, 3), back=st.integers(0, 100),
           length=st.integers(1, 9000), cuts=st.lists(st.integers(0, 9000), max_size=6))
    def test_a_span_read_whole_equals_its_pieces(self, seed, blocks, pool, boundary, back,
                                                 length, cuts):
        stream, lengths, pushed = _filled(seed, blocks)
        span = _span_near_boundary(lengths, pool, boundary, back, length)
        _, start, end = span
        points = sorted({start, end, *(start + c for c in cuts if start + c < end)})
        pieces = [stream.read((pool, a, b)) for a, b in zip(points, points[1:])]
        whole = stream.read(span)
        assert whole == b"".join(pieces)
        assert whole == bytes(reference_pools(seed, lengths, pushed)[pool][start:end])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 3), blocks=_BLOCKS, more=_BLOCKS, pool=st.integers(0, 1),
           boundary=st.integers(1, 3), back=st.integers(0, 100), length=st.integers(1, 9000),
           reads=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 20000),
                                    st.integers(1, 5000)), max_size=8))
    def test_a_byte_reads_the_same_whenever_it_is_read(self, seed, blocks, more, pool,
                                                       boundary, back, length, reads):
        stream, lengths, _ = _filled(seed, blocks)
        span = _span_near_boundary(lengths, pool, boundary, back, length)
        before = stream.read(span)
        for i, (is_push, size) in enumerate(more):
            if is_push:
                stream.push(Random(100 + i).randbytes(size))
            else:
                stream.produce(size, size % 2)
        for other, start, n in reads:            # other reads move the chunk cache
            start = min(start, stream.lengths[other])
            stream.read((other, start, min(stream.lengths[other], start + n)))
        assert stream.read(span) == before

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 3), produced=st.integers(0, 2 * CHUNK_BYTES + 200),
           size=st.integers(1, 3000))
    def test_a_pushed_block_reads_back_exactly(self, seed, produced, size):
        # a block pushed after ``produced`` bytes; either half may straddle
        # a chunk boundary of its pool
        stream = KeyStream(seed)
        if produced:
            stream.produce(produced, produced % 2)
        at = list(stream.lengths)
        block = Random(size).randbytes(size)
        stream.push(block)
        half = (size + 1) // 2
        assert stream.read((0, at[0], at[0] + half)) == block[:half]
        assert stream.read((1, at[1], at[1] + size - half)) == block[half:]
        for pool in (0, 1):                      # the produced key around it is untouched
            derived = derived_pool(seed, pool, at[pool])
            assert stream.read((pool, 0, stream.lengths[pool])) == \
                derived + (block[:half] if pool == 0 else block[half:])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 3), blocks=_BLOCKS,
           sizes=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 5000)), max_size=8))
    def test_both_stores_get_the_same_bytes_for_a_span(self, seed, blocks, sizes):
        stream, lengths, pushed = _filled(seed, blocks)
        stores = (KeyStore("L", stream, 0, 0), KeyStore("L", stream, 1, 0))
        pools = reference_pools(seed, lengths, pushed)
        for side, size in sizes:
            sender, receiver = stores[side], stores[1 - side]
            if size > sender.pool_available(side):
                continue
            span = sender.reserve(size, Purpose.ENCRYPT)
            key = sender.stream.read(span)
            _, start, end = span
            assert key == bytes(pools[side][start:end])
            receiver.reserve_exact(span)
            assert receiver.stream.read(span) == key


class TestKeyAccounting:
    def test_distinct_spans_of_both_ends_are_the_senders_reservations(self):
        # bench/child.py's sending_key_bytes counts a link's sending-side key
        # as the distinct ledger spans over both of its stores. Both ends
        # seal equal sizes, so the two pools are spent at equal offsets and
        # only a span's pool keeps a's spend apart from b's.
        link = make_link()
        for i in range(12):
            for side in (0, 1):
                msg = link.seal(side, Channel.TRANSPORT, Random(i).randbytes(40 + i),
                                encrypt=i % 3 != 2)
                link.open(1 - side, msg)
        a, b = link.stores
        own = sorted((rec.ranges, rec.purpose) for s in (a, b) for rec in s.ledger
                     if rec.ranges[0] == s.side)
        assert [span[1:] for span, _ in own if span[0] == 0] == \
            [span[1:] for span, _ in own if span[0] == 1]
        seen, distinct = set(), []
        for store in (a, b):
            for rec in store.ledger:
                if rec.ranges not in seen:
                    seen.add(rec.ranges)
                    distinct.append((rec.ranges, rec.purpose))
        assert sorted(distinct) == own
        assert sum(span[2] - span[1] for span, _ in distinct) == a.ledgered_bytes


class TestWireFrame:
    def test_golden_layout(self):
        # magic, version, channel, the span (pool, start, end), payload length
        msg = Q3PMessage(0, Channel.TRANSPORT, b"ab", bytes(range(16)), (1, 7, 41))
        header = msg.header_bytes()
        assert header == struct.pack(">IBBBQQI", 0x51335021, 1, 2, 1, 7, 41, 2)
        assert header[:4] == b"Q3P!"
        assert header[6:23] == bytes([1]) + (7).to_bytes(8, "big") + (41).to_bytes(8, "big")
        assert len(header) == 27
        # the channel byte on the wire, which every tag covers
        assert len(Channel) == 3
        for channel, byte in ((Channel.ROUTING, 1), (Channel.TRANSPORT, 2),
                              (Channel.LSDB_SUMMARY, 4)):
            assert Q3PMessage(0, channel, b"", None, (0, 0, 32)).header_bytes()[5] == byte

    def test_tag_covers_the_header(self):
        # an encrypted message, so that a span one byte shorter at either
        # end still fits its payload and is refused by the tag alone
        tampers = {
            "span start": lambda m: setattr(m, "span", (0, m.span[1] + 1, m.span[2])),
            "span end": lambda m: setattr(m, "span", (0, m.span[1], m.span[2] - 1)),
            "channel": lambda m: setattr(m, "channel", Channel.ROUTING),
        }
        for name, tamper in tampers.items():
            link = make_link()
            msg = link.seal(0, Channel.TRANSPORT, b"h" * 20)
            tamper(msg)
            with pytest.raises(TagMismatch, match="tag mismatch"):
                link.open(1, msg)
