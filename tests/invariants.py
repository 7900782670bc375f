"""Run-wide invariants of the key layer and the delivery records, checked
after ``Engine.run`` on any scenario.

The drift of one link end against the other (bytes the sender spent that
the receiver never opened) is not checked: a lost keyed message still leaves
that gap today (ROADMAP item 6).
"""

import hashlib

from qkdnet.transport import DeliveryStatus


def _cursor(store) -> int:
    """The end of the store's consumed prefix of its own pool."""
    return next((end for pool, _, end in store.consumed_ranges() if pool == store.side), 0)


def check_run(engine, report) -> None:
    """Assert, for every link end and every request of a finished run:

    - key is conserved: ``available == preshared + produced + refilled -
      ledgered``, and the report says the same;
    - the store's ledger spans are disjoint, lie in its own pool below its
      cursor and cover it;
    - the spans it opened of the peer's pool lie below the peer's cursor;
    - a DELIVERED record's secret is the same at both ends, and the source's
      secret, derived again, has the digest the destination took of the
      bytes that arrived;
    - a PARTIAL or FAILED record names a failure reason.
    """
    for link_id, lrt in engine.links.items():
        stores = lrt.q3p.stores
        stats = report.link_stats[link_id]
        supplied = (lrt.spec.preshared_bytes + lrt.runtime.produced_bytes_total
                    + lrt.refilled_bytes)
        assert stats["produced_bytes"] == lrt.runtime.produced_bytes_total, link_id
        for side, store in enumerate(stores):
            where = (link_id, side)
            assert store.available_bytes == supplied - store.ledgered_bytes, where
            label = "ab"[side]
            assert stats[f"available_{label}"] == store.available_bytes, where
            assert stats[f"ledgered_{label}"] == store.ledgered_bytes, where
            cursor = _cursor(store)
            reached = 0
            for pool, start, end in sorted(record.ranges for record in store.ledger):
                assert pool == side and reached <= start < end <= cursor, (where, start, end)
                reached = end
            assert sum(record.n_bytes for record in store.ledger) == cursor, where
            peer_cursor = _cursor(stores[1 - side])
            for pool, start, end in store.consumed_ranges():
                if pool != side:
                    assert end <= peer_cursor, (where, start, end)
    for rec in report.records:
        if rec.status is DeliveryStatus.DELIVERED:
            assert rec.secret_at_dst == rec.secret_at_src, rec.request_id
            assert (hashlib.sha256(rec.secret_at_src).digest()
                    == rec.secret_dst_sha256), rec.request_id
        else:
            assert rec.failure_reason is not None, rec.request_id
