"""An independent reference for a link's key pools.

Pool ``p`` of a link keyed by ``seed`` is built whole, chunk after chunk:
chunk ``j`` is the first 4096 bytes of ``shake_128(seed || p || j)``, with
the seed as 8 bytes, ``p`` as 1 and ``j`` as 8, big-endian. Pushed blocks
are then laid over it at the offsets where they landed. Nothing here goes
through ``KeyStream``'s cache or its pushed runs.
"""

import hashlib

CHUNK = 4096


def derived_pool(seed: int, pool: int, n: int) -> bytearray:
    """The first ``n`` produced bytes of ``pool``."""
    prefix = seed.to_bytes(8, "big") + bytes([pool])
    chunks = [hashlib.shake_128(prefix + j.to_bytes(8, "big")).digest(CHUNK)
              for j in range(-(-n // CHUNK))]
    return bytearray(b"".join(chunks)[:n])


def reference_pools(seed, lengths, pushed) -> list[bytearray]:
    """Both pools at ``lengths``, with each ``(pool, offset, data)`` of
    ``pushed`` laid over the produced bytes."""
    pools = [derived_pool(seed, pool, lengths[pool]) for pool in (0, 1)]
    for pool, offset, data in pushed:
        pools[pool][offset : offset + len(data)] = data
    return pools


def push_halves(lengths, block, pushed) -> None:
    """Record where a pushed ``block``'s halves land, and grow ``lengths``:
    the first, larger half at the end of pool 0, the second at pool 1's."""
    half = (len(block) + 1) // 2
    for pool, part in enumerate((block[:half], block[half:])):
        pushed.append((pool, lengths[pool], part))
        lengths[pool] += len(part)


def produce_halves(lengths, n_bytes) -> None:
    """Grow ``lengths`` by one produced block of ``n_bytes``."""
    lengths[0] += (n_bytes + 1) // 2
    lengths[1] += n_bytes // 2
