"""The benchmark's key metric reads the stores' ledgers
(``bench/child.py:sending_key_bytes``, behind ``key_B_per_secret_B``). Its
total must be exactly the key the stores spent from their own pools, so a
change to what the ledgers hold cannot shift the metric unnoticed."""

import importlib.util
from pathlib import Path

from qkdnet import parse_scenario
from qkdnet.harness import Engine
from qkdnet.model import vienna_preset

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"

SCENARIO = """\
[scenario] duration=8 seed=4 loss=0.03 jitter_ms=3
[event] t=0.5 kind=request src=alice dst=bob bytes=2048 k=1
[event] t=1.0 kind=dos link=SIE-ERD rate=60000 duration=2.0
[event] t=3.5 kind=refill link=SIE-ERD bytes=8192 k=2
[event] t=5.0 kind=request src=bob dst=alice bytes=4096 k=2
"""


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sending_key_bytes_is_the_stores_own_pool_spend():
    child = _load_child()
    eng = Engine(vienna_preset(), parse_scenario(SCENARIO))
    rep = eng.run()
    assert rep.msg_counts["lost"] > 0
    key_bytes = child.sending_key_bytes(eng)
    # per purpose, so a ledger that files tag key under encryption shows
    assert key_bytes == {"encrypt": 15360, "authenticate": 133696, "preshared_refill": 16384}
    # the logical pool length: a stream draws its bytes only when first read
    own_spend = sum(
        store.stream.lengths[store.side] - store.pool_available(store.side)
        for lrt in eng.links.values() for store in lrt.q3p.stores
    )
    assert sum(key_bytes.values()) == own_spend
