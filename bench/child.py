"""One repeat of one workload, in a fresh process so that ``ru_maxrss`` is
this run's peak.

Follows the library path of ``qkdnet run``: ``load_topology`` ->
``parse_scenario`` -> ``Engine(...).run()`` -> write ``metrics.csv``,
``summary.json`` and ``audit.log``. Prints one JSON object as its last line.

    python3 bench/child.py <input dir> <output dir> --setup-reps N [--trace]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
OUTPUT_FILES = ("metrics.csv", "summary.json", "audit.log")
TICK_S = 0.01
CALIBRATION_LOOPS = 1000
REFERENCE_CALIBRATION_S = 65e-6   # the loop's time on the idle 2-vCPU baseline VM


def _calibration_loop() -> int:
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return s


class SpeedClock:
    """A host clock corrected for how fast the machine runs right now.

    Other tenants of a shared VM slow every process on it by up to 1.8x, in
    bursts of 0.1 s to minutes (README.md). A timer signal every 10 ms times
    a fixed pure-Python loop in the main thread and samples the attached
    engine's public ``now`` (no hook in the program). Each 10 ms interval,
    less the loop itself, counts as ``interval * REFERENCE_CALIBRATION_S /
    loop time`` reference seconds. A signal, not a sampler thread: a thread
    cost 10-40% of host time here, because each sample moved the interpreter
    lock between CPUs.
    """

    def __init__(self) -> None:
        self.engine = None
        self.ticks: list[tuple[float, float, float]] = []   # host time, loop s, engine.now

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _calibration_loop()
        t1 = time.perf_counter()
        self.ticks.append((t1, t1 - t0, self.engine.now if self.engine is not None else 0.0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds between host times ``a`` < ``b``; time before the
        first or after the last tick takes the nearest tick's speed."""
        total, prev_end, factor = 0.0, float("-inf"), 1.0
        for host, loop_s, _ in self.ticks:
            factor = REFERENCE_CALIBRATION_S / loop_s
            lo, hi = max(a, prev_end), min(b, host - loop_s)
            if hi > lo:
                total += (hi - lo) * factor
            prev_end = host
            if prev_end >= b:
                return total
        return total + max(0.0, b - max(a, prev_end)) * factor


def crossing(points: list[tuple[float, float]], sim_t: float) -> float:
    """Host time at which simulated time reached ``sim_t``, interpolated
    between the (host time, simulated time) points around it."""
    prev = points[0]
    for host, now in points:
        if now >= sim_t:
            if now <= prev[1]:
                return host
            return prev[0] + (sim_t - prev[1]) / (now - prev[1]) * (host - prev[0])
        prev = (host, now)
    raise ValueError(f"simulated time never reached {sim_t}")


def sending_key_bytes(engine) -> Counter:
    """Key bytes ledgered at the sending stores, by purpose.

    Every consumed range starts at a sender's reservation; the receiver's
    mirror record repeats the same ranges. So the distinct range tuples over
    both ends of a link are exactly the sending side's records.
    """
    by_purpose: Counter = Counter()
    for lrt in engine.links.values():
        seen: set = set()
        for store in lrt.q3p.stores:
            for rec in store.ledger:
                if rec.ranges not in seen:
                    seen.add(rec.ranges)
                    by_purpose[rec.purpose.value] += rec.n_bytes
    return by_purpose


def outcome(report, engine, scenario, out_dir: Path) -> dict:
    """Output checks plus the deterministic outcome of one run."""
    from qkdnet.harness import EventKind
    from qkdnet.transport import DeliveryStatus

    problems = []
    submitted = sum(
        1 for ev in scenario.events if ev.kind in (EventKind.KEY_REQUEST, EventKind.REFILL)
    )
    status = Counter(rec.status.value for rec in report.records)
    if sum(status.values()) != submitted:
        problems.append(f"status counts {dict(status)} do not add up to {submitted} submitted")
    delivered = [r for r in report.records if r.status is DeliveryStatus.DELIVERED]
    for rec in delivered:
        if rec.secret_at_src != rec.secret_at_dst:
            problems.append(f"request {rec.request_id}: secret_at_src != secret_at_dst")
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    latencies = sorted(r.completion_time_s - r.started_s for r in delivered)
    key_bytes = sending_key_bytes(engine)
    delivered_b = sum(r.n_bytes for r in delivered)
    stats = report.link_stats.values()
    return {
        "problems": problems,
        "digest": digest.hexdigest(),
        "submitted": submitted,
        "status": dict(status),
        "delivered_B": delivered_b,
        "latencies": latencies,
        "key_B": dict(key_bytes),
        "max_drift_B": max(abs(s["ledgered_a"] - s["ledgered_b"]) for s in stats),
        "produced_B": sum(s["produced_bytes"] for s in stats),
        "ledger_records": sum(len(s.ledger) for l in engine.links.values() for s in l.q3p.stores),
        "msg_counts": report.msg_counts,
        "fragments": [sum(r.fragments_delivered for r in report.records),
                      sum(r.fragments_total for r in report.records)],
    }


def run_once(in_dir: Path, out_dir: Path, setup_reps: int, trace: bool) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qkdnet import Engine, load_topology, parse_scenario

    topology_text = (in_dir / "topology.txt").read_text()
    scenario_text = (in_dir / "scenario.txt").read_text()
    tracer = None
    if trace:
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    clock = None if tracer is not None else SpeedClock()
    if clock is not None:
        clock.start()
    setups = []
    engine = None
    for _ in range(setup_reps):
        engine = None
        gc.collect()   # engines hold reference cycles; free the last one untimed
        t0 = time.perf_counter()
        topo = load_topology(topology_text)
        t1 = time.perf_counter()
        scenario = parse_scenario(scenario_text)
        engine = Engine(topo, scenario)
        setups.append((t0, time.perf_counter()))
    load_topology_s = t1 - t0

    def write_outputs(report) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.csv").write_text(report.metrics_csv())
        (out_dir / "summary.json").write_text(report.summary_json())
        (out_dir / "audit.log").write_text(report.audit_text())

    def run_and_write():
        report = engine.run()
        t_run_end = time.perf_counter()
        write_outputs(report)
        return report, t_run_end

    duration = scenario.duration_s
    if tracer is not None:
        tracer.engine = engine
        tracer.quarter_s = (duration / 4, duration * 3 / 4)
        write_outputs = tracer.span("harness.report", write_outputs)
        run_and_write = tracer.span(ROOT, run_and_write)
    else:
        clock.engine = engine
    t_start = time.perf_counter()
    try:
        report, t_run_end = run_and_write()
    finally:
        if clock is not None:
            clock.stop()
    t_written = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "ok": True,
        "sim_s": duration,
        "host_s": t_written - t_start,
        "peak_rss_mb": peak_rss_mb,
    }
    if clock is not None:
        # host seconds spent on the first and on the last quarter of simulated time
        points = ([(t_start, 0.0)]
                  + [(host, now) for host, _, now in clock.ticks if t_start < host < t_run_end]
                  + [(t_run_end, duration)])
        t_q1, t_q3 = crossing(points, duration / 4), crossing(points, duration * 3 / 4)
        result.update({
            "ref_s": clock.reference_s(t_start, t_written),
            "setup_ref_s": [clock.reference_s(a, b) for a, b in setups],
            "quarters_ref_s": [clock.reference_s(t_start, t_q1),
                               clock.reference_s(t_q3, t_run_end)],
        })
    result.update(outcome(report, engine, scenario, out_dir))
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out_dir / "spans.csv.gz")
        result["trace"] = {
            "load_topology_s": load_topology_s,
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "nbytes": dict(tracer.nbytes),
            "true_count": dict(tracer.true_count),
            "kinds": dict(tracer.kinds),
            "rejects": tracer.rejects,
            "reserve_quarters": tracer.reserve_q,
            "missing": tracer.missing,
            "spans": len(tracer.start),
        }
    if result["problems"]:
        result["ok"] = False
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("in_dir", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--setup-reps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_once(args.in_dir, args.out_dir, max(1, args.setup_reps), args.trace)
    except Exception as exc:  # a raising run (e.g. KeyReuseError) counts as failed
        traceback.print_exc()
        result = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
