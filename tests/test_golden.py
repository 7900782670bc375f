"""Golden outputs: pinned sha256 of every output file of fixed runs.

Any change to what a run writes shows up here. A change that alters the
outputs on purpose records the new digests and says in CHANGES.md what
changed and why.
"""

import hashlib

import pytest

from qkdnet.cli import main

# bundled-style run with classical-channel loss, multipath, no jitter
LOSSY = """\
[scenario] duration=10 seed=3 loss=0.05
[event] t=1.0 kind=request src=alice dst=bob bytes=16384 k=2
[event] t=2.0 kind=request src=SIE dst=GUD bytes=8192 k=2
"""

# jitter reorders same-instant segments on every hop; pins the outcome of
# opening messages out of order
JITTERED = "[scenario] duration=30 seed=3 jitter_ms=0.5\n" + "".join(
    f"[event] t={t} kind=request src=SIE dst=GUD bytes=16384 k=2\n" for t in range(1, 18, 2)
)

WRITTEN = {"lossy": LOSSY, "jittered": JITTERED}

GOLDEN = {
    "baseline": {
        "metrics.csv": "a9d11d6e7bcd6aa800070f41e4926c9c5b65baff43c58343af61117ec7ed5344",
        "summary.json": "e667bdf5cf4289ed7a135428f45f37a5cb6f6b3f0ddac236fdbeb13bdd8cd7cf",
        "audit.log": "6f67237a049a1964260f478e49f4911a41cfc11ce0ba855073bdff7af5fc2ed1",
    },
    "failover": {
        "metrics.csv": "e05da4a66886c6dba4f01ab63201147cba5b5810a6fe397d2a5a1ca5b28e459b",
        "summary.json": "42fa2bb499e637c095daa9f3f3fe277d03e16cfc96fe3b38d297c6d7ccb01a09",
        "audit.log": "d4b792523b56667d38ac249c06839f5a9217a22c42590d1cd92de827204fd797",
    },
    "dos-recovery": {
        "metrics.csv": "30215b24270f71018fd84aeb6d4adcef1afea053794685b4d46e7c9e5f188bb5",
        "summary.json": "babcc48510b53cebda37c45f4eb08093a76ccfd683ec4e199fd7dc159f7d1193",
        "audit.log": "1cf09643dc7e5c7e5d0312d42a0732f1dd27d6b182cae37ffe41c2a251533379",
    },
    "multipath": {
        "metrics.csv": "550e8ce7301b4c92b65f52a1a4f33de9bb3a097a6d7f0540f8d0a6c302e4a042",
        "summary.json": "35afb8603780c80cc5ce27d5e4dfe6faffdc1a0e5d7b86d4f7d8838291026143",
        "audit.log": "67c40bb200413d0e49e42de190da9d12baab74234f6ccd442b35468c7d899ea5",
    },
    "jittered": {
        "metrics.csv": "cccc9d96065e72677dfb15b909d6b034dbc6c4720d94e4d7375d658fc11cfe63",
        "summary.json": "d93e5a79cd0158fdb2338702919c15f3c8e5df8ee45aa547c7af1a981905ab33",
        "audit.log": "b7f03b672dd6e1ce23ee0503176c9740d3aa8a342d03fd07abc67beb68171867",
    },
    "lossy": {
        "metrics.csv": "f886acc406db0c938ac1eed6302b4e79b7ebd46671964cc9451d1748a35a8152",
        "summary.json": "edeed9b2e8f41f0267e98927c711fe9022949c1a74ed15b2a5508277341bc6cd",
        "audit.log": "584a751f86f2f991b688f9722b6d624ffb96b92b0c9173a14b38ea4c11074185",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_pinned_digests(name, tmp_path, capsys):
    scenario = name
    if name in WRITTEN:
        scenario = tmp_path / f"{name}.txt"
        scenario.write_text(WRITTEN[name])
    out = tmp_path / "out"
    assert main(["run", "--preset", "vienna", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        fname: hashlib.sha256((out / fname).read_bytes()).hexdigest()
        for fname in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
