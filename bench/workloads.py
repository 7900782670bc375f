"""Seeded workload generators for the benchmark.

Each generator turns a seed (and optionally a shorter simulated duration for
smoke runs) into the topology text and scenario text that ``qkdnet run``
would read from files. The simulator sees only that text. Requests arrive on
a fixed simulated-time schedule whatever the engine's speed, so every
workload is an open loop in simulated time.

Every workload has a fixed shape drawn once from its own shape seed. The
``seed`` argument always sets the scenario seed (loss draws, key and secret
bytes) and, where noted, draws more of the input. What stays fixed was
chosen by measurement: user placement and the failure schedule decide which
users get cut off, so drawing them per seed moved grid-churn's failed share
between 3% and 14% over four seeds, and relay-bulk runs near its key
capacity, where link lengths or request pairs drawn per seed moved its
failed share between 2% and 55%.

No workload uses jitter: under the message-reorder defect (ROADMAP item 3)
any ``jitter_ms`` > 0 makes most requests fail, and the work done would then
depend on that defect.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    scenario: str

    def digests(self) -> dict[str, str]:
        """sha256 of the input texts, so two sets of runs can prove they used
        identical inputs."""
        return {
            "topology_sha256": hashlib.sha256(self.topology.encode()).hexdigest(),
            "scenario_sha256": hashlib.sha256(self.scenario.encode()).hexdigest(),
        }


def _vienna_text() -> str:
    from qkdnet.model import PRESETS

    return PRESETS["vienna"]


def vienna_steady(seed: int, duration_s: float = 600.0) -> Workload:
    """The 600 s steady run: the ``vienna`` preset, one 1 KiB SIE->GUD
    request per simulated second (k=1), no loss. Key stores accumulate for
    the whole run. The seed only sets the scenario seed, which changes key
    and secret bytes but not control flow; seed 1 is the ROADMAP's run."""
    lines = [f"[scenario] duration={duration_s:g} seed={seed}"]
    for t in range(1, int(duration_s)):
        lines.append(f"[event] t={t} kind=request src=SIE dst=GUD bytes=1024 k=1")
    return Workload("vienna-steady", _vienna_text(), "\n".join(lines) + "\n")


def _grid(prefix: str, n: int, rng: random.Random, km: tuple[float, float],
          profile: str, preshared: int) -> tuple[list[str], list[str], list[str]]:
    """Backbone n x n grid: node lines, link lines, link ids."""
    nodes = [f"{prefix}{r}{c}" for r in range(n) for c in range(n)]
    node_lines = [f"[node] name={name} kind=qbb" for name in nodes]
    link_lines, link_ids = [], []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < n and c + dc < n:
                    a, b = f"{prefix}{r}{c}", f"{prefix}{r + dr}{c + dc}"
                    link_id = f"{a}-{b}"
                    length = round(rng.uniform(*km), 1)
                    link_lines.append(
                        f"[link] id={link_id} a={a} b={b} km={length} "
                        f"profile={profile} class=qbb preshared={preshared}"
                    )
                    link_ids.append(link_id)
    return node_lines, link_lines, link_ids


def _users(count: int, backbone: list[str], rng: random.Random, km: float,
           profile: str) -> tuple[list[str], list[str], list[str]]:
    """``count`` users on access fibres at distinct random backbone nodes."""
    anchors = rng.sample(backbone, count)
    users = [f"u{i:02d}" for i in range(count)]
    node_lines = [f"[node] name={u} kind=user" for u in users]
    link_lines = [
        f"[link] id={anchor}-{u} a={anchor} b={u} km={km} profile={profile} "
        f"class=qan_fiber preshared=131072"
        for u, anchor in zip(users, anchors)
    ]
    return users, node_lines, link_lines


def grid_churn(seed: int, duration_s: float = 60.0) -> Workload:
    """6x6 backbone grid (12-25 km, 10 kbit/s, alpha 0.2 dB/km, 30 s
    restart) with twelve users on 2 km access fibres. Every 50 ms two random
    users exchange a 256 B rekey secret (k=2). A backbone link fails about
    every 2 s and is restored 2-5 s later, then restarts for 30 s. One DoS
    drain and one pre-shared refill on a link that never churns. The seed
    draws link lengths and request pairs; user placement, the failure
    schedule and the DoS link are fixed."""
    rng = random.Random(f"grid-churn:{seed}")
    shape = random.Random("grid-churn:shape")
    profile = "[profile] id=bb r0_bps=10000 alpha=0.2 max_km=60 restart_s=30"
    node_lines, link_lines, link_ids = _grid("N", 6, rng, (12.0, 25.0), "bb", 131072)
    backbone = [f"N{r}{c}" for r in range(6) for c in range(6)]
    users, user_nodes, user_links = _users(12, backbone, shape, 2, "bb")
    topology = "\n".join([profile] + node_lines + user_nodes + link_lines + user_links) + "\n"

    lines = [f"[scenario] duration={duration_s:g} seed={seed}"]
    dos_link = shape.choice(link_ids)
    churnable = [l for l in link_ids if l != dos_link]
    out_until: dict[str, float] = {}
    t = 3.0
    while t < duration_s - 1.0:
        up = [l for l in churnable if out_until.get(l, 0.0) <= t]
        link = shape.choice(up)
        restore = round(t + shape.uniform(2.0, 5.0), 2)
        lines.append(f"[event] t={t:.2f} kind=fail link={link}")
        if restore < duration_s:
            lines.append(f"[event] t={restore:.2f} kind=restore link={link}")
        out_until[link] = restore + 30.0
        t = round(t + shape.uniform(1.5, 2.5), 2)
    lines.append(f"[event] t={duration_s / 3:.2f} kind=dos link={dos_link} "
                 f"rate=60000 duration={duration_s / 20:g}")
    lines.append(f"[event] t={duration_s / 2:.2f} kind=refill link={dos_link} bytes=8192 k=2")
    for i in range(40, round(duration_s / 0.05)):
        src, dst = rng.sample(users, 2)
        lines.append(
            f"[event] t={i * 0.05:.2f} kind=request src={src} dst={dst} bytes=256 k=2"
        )
    return Workload("grid-churn", topology, "\n".join(lines) + "\n")


def relay_bulk(seed: int, duration_s: float = 30.0) -> Workload:
    """3x3 backbone grid of 1 Mbit/s-class devices, six users on 2 Mbit/s
    access links, one 64 KiB k=2 request every 0.5 s between random users,
    1% classical-channel loss. The relay path (OTP, tags, acks,
    retransmissions) dominates; 20-30 km backbone links cannot keep up, so
    stores drain to their low-water mark. The seed sets only the scenario
    seed (which messages are lost); topology and request pairs are fixed."""
    shape = random.Random("relay-bulk:shape")
    profiles = [
        "[profile] id=bulk r0_bps=1000000 alpha=0.2 max_km=60 restart_s=30",
        "[profile] id=access r0_bps=2000000 alpha=0.2 max_km=10 restart_s=5",
    ]
    node_lines, link_lines, _ = _grid("R", 3, shape, (20.0, 30.0), "bulk", 131072)
    backbone = [f"R{r}{c}" for r in range(3) for c in range(3)]
    users, user_nodes, user_links = _users(6, backbone, shape, 2, "access")
    topology = "\n".join(profiles + node_lines + user_nodes + link_lines + user_links) + "\n"

    lines = [f"[scenario] duration={duration_s:g} seed={seed} loss=0.01"]
    for i in range(2, round(duration_s / 0.5) - 2):
        src, dst = shape.sample(users, 2)
        lines.append(
            f"[event] t={i * 0.5:.1f} kind=request src={src} dst={dst} bytes=65536 k=2"
        )
    return Workload("relay-bulk", topology, "\n".join(lines) + "\n")


GENERATORS = {
    "vienna-steady": vienna_steady,
    "grid-churn": grid_churn,
    "relay-bulk": relay_bulk,
}


def generate(name: str, seed: int, duration_s: float | None = None) -> Workload:
    gen = GENERATORS[name]
    return gen(seed) if duration_s is None else gen(seed, duration_s)
