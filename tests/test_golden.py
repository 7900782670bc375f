"""Golden outputs: pinned sha256 of every output file of fixed runs.

Any change to what a run writes shows up here. A change that alters the
outputs on purpose records the new digests and says in CHANGES.md what
changed and why. Run as a script, this file prints the current digest of
every golden run in ``GOLDEN``'s layout, ready to paste over it:

    python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":          # as a script: find the package as pytest does
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invariants import check_run

from qkdnet import cli, harness
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

# a daytime blackout of the night-only SIE-alice, and a fail/restore of
# ERD-bob whose 5 s restart ends mid-run (RESTARTING -> UP)
DAYLIGHT_RESTART = """\
[scenario] duration=20 seed=4
[event] t=1 kind=request src=alice dst=bob bytes=4096 k=1
[event] t=2 kind=daywindow start=3.05 end=9.5
[event] t=4 kind=request src=alice dst=GUD bytes=4096 k=1
[event] t=5 kind=fail link=ERD-bob
[event] t=7.05 kind=restore link=ERD-bob
[event] t=14 kind=request src=bob dst=alice bytes=4096 k=1
"""

WRITTEN = {"lossy": LOSSY, "jittered": JITTERED, "daylight-restart": DAYLIGHT_RESTART}

GOLDEN = {
    "baseline": {
        "metrics.csv": "f37950a87c8131b4f7a2249d860109a1c5fc565c0e4592c4bb928e990ec2a406",
        "summary.json": "c697d9f3bd91c709af7aaf340b6ec5aa6d8a6afb2ad549be4349a981354b522d",
        "audit.log": "6f67237a049a1964260f478e49f4911a41cfc11ce0ba855073bdff7af5fc2ed1",
    },
    "failover": {
        "metrics.csv": "49be7c67ba94203dddf6f11f8bd368d6725e3b4dc0bfff1ab4c3f7cfc3ab806b",
        "summary.json": "d2597cb291a82e74f3c3845e1ffc76ffc436d79ca01e160bac7c7be337d90cb7",
        "audit.log": "d4b792523b56667d38ac249c06839f5a9217a22c42590d1cd92de827204fd797",
    },
    "daylight-restart": {
        "metrics.csv": "2b534166219533f236288e2fab9c18c7799316e4302fce35a1cc5ef65abae805",
        "summary.json": "21d0e7a7bcaeb04c131abb218b2d0e44436433d495d0a5acf6ea4c77a6ed1182",
        "audit.log": "b553eff446e5d3b2b7504a418ebefec1167b443b454c6cc8a91a9a51fbe520e7",
    },
    "dos-recovery": {
        "metrics.csv": "e02a5830af1d0066496c84bd0046b2d32b7ccaec56ed09c9a0613a686dfbe23e",
        "summary.json": "08ef261cda764d011fb4f4cb3f2e192ee41248b69d7871133765c4ab8c86c262",
        "audit.log": "1cf09643dc7e5c7e5d0312d42a0732f1dd27d6b182cae37ffe41c2a251533379",
    },
    "multipath": {
        "metrics.csv": "550e8ce7301b4c92b65f52a1a4f33de9bb3a097a6d7f0540f8d0a6c302e4a042",
        "summary.json": "29bf962e04817b94055a483ad80313e09d93d49e8e04adba35253e3dca515bb8",
        "audit.log": "67c40bb200413d0e49e42de190da9d12baab74234f6ccd442b35468c7d899ea5",
    },
    "jittered": {
        "metrics.csv": "4b5a616c73d19f26db2fb82462e2050aa3db827a2a2fc1ad2b80ee81eb7c9f4b",
        "summary.json": "1dc410a3d561bc792eae5727e5e35bd65c4128a87545cecdc37429c01028caba",
        "audit.log": "5705fade6159d4b2d9b3136c45159041150ea8f9a3087357c006db33db7e4934",
    },
    "lossy": {
        "metrics.csv": "0333c80952f4b5525b2741b6f661516c154827c33694be3e9447ad55f15bdde4",
        "summary.json": "b26d7d00d7e6a85784696c0c42d88bec0d6318aacb2623bd093afba444efb2ea",
        "audit.log": "4c451983b39516eeb02ef6804ed3692c0ecaacda748073a05de6bc31bc6c9fbe",
    },
}


OUTPUT_FILES = ("metrics.csv", "summary.json", "audit.log")


def run_golden(name: str, tmp_dir: Path):
    """Run golden scenario ``name`` on the vienna preset in ``tmp_dir``.
    Returns the sha256 of each output file, the engine and its report."""
    runs = []

    class Recorded(cli.Engine):
        def run(self):
            report = super().run()
            runs.append((self, report))
            return report

    scenario = name
    if name in WRITTEN:
        scenario = tmp_dir / f"{name}.txt"
        scenario.write_text(WRITTEN[name])
    out = tmp_dir / "out"
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "Engine", Recorded)
        assert main(["run", "--preset", "vienna", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
    digests = {fname: hashlib.sha256((out / fname).read_bytes()).hexdigest()
               for fname in OUTPUT_FILES}
    (engine, report), = runs
    return digests, engine, report


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_pinned_digests(name, tmp_path):
    digests, engine, report = run_golden(name, tmp_path)
    assert digests == GOLDEN[name]
    check_run(engine, report)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_do_not_depend_on_key_byte_values(name, tmp_path, monkeypatch):
    # every link's key source, preshared block included, drawn from another
    # seed: no output may depend on the values of key bytes
    seeded = harness.sub_seed
    monkeypatch.setattr(harness, "sub_seed", lambda master, label: seeded(
        master, "other " + label if label.startswith("link:") else label))
    digests, _, _ = run_golden(name, tmp_path)
    assert digests == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in GOLDEN:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            digests, _, _ = run_golden(name, run_dir)
            print(f'    "{name}": {{')
            for fname, digest in digests.items():
                print(f'        "{fname}": "{digest}",')
            print("    },")
        print("}")
