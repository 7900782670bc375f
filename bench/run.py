"""qkdnet benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload grid-churn --seed 7 --seconds 25 --trace 0

``--trace 0`` repeats the workload, each repeat in a fresh process, until
``--seconds`` have passed and prints the end-to-end metrics (medians over
repeats). ``--trace 1`` is the diagnostic run: one untraced and one traced
repeat, which give the per-layer metrics and the tracing overhead, and the
run-length sweep of the vienna-steady shape. Both print every metric by name
with its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GENERATORS, generate, vienna_steady

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = BENCH / "baseline.json"

SETUP_REPS = 15                       # set-ups timed in each repeat
MIN_REPEATS = 2
SWEEP_LENGTHS_S = (75, 150, 300, 600)
SWEEP_NAMES = ("eighth", "quarter", "half", "full")
DEADLINE_S = 170                      # the whole command ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s_per_host_s": "sim_s/s",
    "delivered_B_per_host_s": "B/s",
    "host_cost_growth": "ratio",
    "peak_rss_mb": "MB",
    "request_fail_share": "ratio",
    "sim_latency_p50_s": "sim_s",
    "sim_latency_tail_s": "sim_s",
    "key_B_per_secret_B": "ratio",
}

# span metrics reported with call counts and self time; then self time only
_SPANS_WITH_CALLS = (
    "model.neighbors", "links.produce", "q3p.push", "q3p.reserve", "q3p.reserve_exact",
    "q3p.seal", "q3p.open", "q3p.auth", "routing.shortest_path", "routing.disjoint_paths",
    "harness.send_message",
)
_SPANS_SELF_ONLY = ("q3p.otp", "routing.lsa_codec", "transport.codec", "harness.on_tick")
LAYERS = {
    "model": ("model.neighbors",),
    "links": ("links.produce",),
    "q3p": ("q3p.push", "q3p.reserve", "q3p.reserve_exact", "q3p.seal", "q3p.open",
            "q3p.auth", "q3p.otp"),
    "routing": ("routing.shortest_path", "routing.disjoint_paths", "routing.lsa_codec"),
    "transport": ("transport.codec",),
    "harness": ("harness.send_message", "harness.on_tick", "harness.report", "harness"),
}

PER_LAYER_UNITS = {"model.load_topology.s": "s"}
for _span in _SPANS_WITH_CALLS:
    PER_LAYER_UNITS[f"{_span}.calls"] = "count"
    PER_LAYER_UNITS[f"{_span}.self_s"] = "s"
for _span in _SPANS_SELF_ONLY:
    PER_LAYER_UNITS[f"{_span}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "links.produced_B": "B",
    "q3p.reserve.us_first_q": "us",
    "q3p.reserve.us_last_q": "us",
    "q3p.ledger_records": "count",
    "q3p.auth.B": "B",
    "q3p.otp.B": "B",
    "q3p.key_B.encrypt": "B",
    "q3p.key_B.authenticate": "B",
    "q3p.key_B.preshared_refill": "B",
    "q3p.open_rejects": "count",
    "q3p.max_drift_B": "B",
    "routing.lsa.originated": "count",
    "routing.lsa.sent": "count",
    "routing.lsa.accept_ratio": "ratio",
    "routing.lsa.skipped_no_key": "count",
    "transport.segments_sent": "count",
    "transport.retransmissions": "count",
    "transport.first_try_ratio": "ratio",
    "transport.acks_sent": "count",
    "transport.lost": "count",
    "transport.fragment_delivery_ratio": "ratio",
    "harness.events": "count",
    "harness.events.msg_arrive": "count",
    "harness.events.timer": "count",
    "harness.events.produce_tick": "count",
    "harness.report.s": "s",
    "harness.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
})
for _name in SWEEP_NAMES:
    PER_LAYER_UNITS[f"sweep.ms_per_sim_s.{_name}"] = "ms/sim_s"


class Runner:
    """Runs children for one workload and seed, within one deadline."""

    def __init__(self, name: str, seed: int) -> None:
        self.dir = OUT / f"{name}-{seed}"
        self.started = time.monotonic()
        self.results: list[dict] = []

    def write_inputs(self, workload, label: str) -> Path:
        in_dir = self.dir / label
        in_dir.mkdir(parents=True, exist_ok=True)
        (in_dir / "topology.txt").write_text(workload.topology)
        (in_dir / "scenario.txt").write_text(workload.scenario)
        return in_dir

    def child(self, in_dir: Path, label: str, setup_reps: int = 1, trace: bool = False) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), str(in_dir), str(self.dir / label),
               "--setup-reps", str(setup_reps)] + (["--trace"] if trace else [])
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, remaining))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            result = {"ok": False, "problems": [f"{label}: ran past the {DEADLINE_S} s deadline"]}
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-5:]
            result = {"ok": False, "problems": [f"{label}: no result (exit {proc.returncode})"] + tail}
        result["label"] = label
        self.results.append(result)
        status = "checks ok" if result["ok"] else "FAILED: " + "; ".join(result["problems"])
        host = f"host {result['host_s']:.3f} s, " if "host_s" in result else ""
        print(f"  {label}: {host}output sha256 {result.get('digest', '-')[:16]}, {status}",
              flush=True)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    """Medians over repeats of times on the speed-corrected clock (child.py,
    README.md); the deterministic metrics, which every repeat shares (their
    digests match), come from the first repeat."""
    notes = []
    first = results[0]
    submitted, delivered = first["submitted"], first["status"].get("delivered", 0)
    lat = first["latencies"]
    n = len(lat)
    ref_s = _median(r["ref_s"] for r in results)
    metrics = {
        "setup_s": _median(s for r in results for s in r["setup_ref_s"]),
        "sim_s_per_host_s": first["sim_s"] / ref_s,
        "delivered_B_per_host_s": first["delivered_B"] / ref_s,
        "host_cost_growth": _median(r["quarters_ref_s"][1] / r["quarters_ref_s"][0]
                                    for r in results),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in results),
        "request_fail_share": (submitted - delivered) / submitted,
        "sim_latency_p50_s": statistics.median(lat) if lat else float("nan"),
        "sim_latency_tail_s": lat[n - 11] if n >= 11 else float("nan"),
        "key_B_per_secret_B": (sum(first["key_B"].values()) / first["delivered_B"]
                               if first["delivered_B"] else float("nan")),
    }
    notes.append(f"requests: {submitted} submitted, " + ", ".join(
        f"{first['status'].get(k, 0)} {k}" for k in ("delivered", "partial", "failed")))
    notes.append(f"request_fail_share base: {submitted} requests")
    if n >= 11:
        notes.append(f"sim_latency_tail_s is p{100 * (n - 10) / n:.1f}: 10 of {n} "
                     f"delivered requests lie beyond it")
    notes.append(f"setup_s: median of {sum(len(r['setup_ref_s']) for r in results)} set-ups; "
                 f"host times: median of {len(results)} repeats, {ref_s:.3f} reference s "
                 f"({_median(r['host_s'] for r in results):.3f} s on the wall clock)")
    return metrics, notes


def per_layer(traced: dict, untraced: dict, sweep: dict) -> dict:
    t = traced["trace"]
    calls, self_s, nbytes = t["calls"], t["self_s"], t["nbytes"]
    counts = traced["msg_counts"]
    m = {"model.load_topology.s": t["load_topology_s"]}
    for span in _SPANS_WITH_CALLS:
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in _SPANS_SELF_ONLY:
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    first_s, first_n, last_s, last_n = t["reserve_quarters"]
    originated = calls.get("routing.lsa.originated", 0)
    received = calls.get("routing.flood_accept", 0) - originated
    accepted = t["true_count"].get("routing.flood_accept", 0) - originated
    sent = counts.get("transport_sent", 0)
    retrans = counts.get("retransmissions", 0)
    frag_done, frag_total = traced["fragments"]
    m.update({
        "links.produced_B": traced["produced_B"],
        "q3p.reserve.us_first_q": 1e6 * first_s / first_n if first_n else 0.0,
        "q3p.reserve.us_last_q": 1e6 * last_s / last_n if last_n else 0.0,
        "q3p.ledger_records": traced["ledger_records"],
        "q3p.auth.B": nbytes.get("q3p.auth", 0),
        "q3p.otp.B": nbytes.get("q3p.otp", 0),
        "q3p.key_B.encrypt": traced["key_B"].get("encrypt", 0),
        "q3p.key_B.authenticate": traced["key_B"].get("authenticate", 0),
        "q3p.key_B.preshared_refill": traced["key_B"].get("preshared_refill", 0),
        "q3p.open_rejects": t["rejects"],
        "q3p.max_drift_B": traced["max_drift_B"],
        "routing.lsa.originated": originated,
        "routing.lsa.sent": counts.get("routing_sent", 0),
        "routing.lsa.accept_ratio": accepted / received if received > 0 else 0.0,
        "routing.lsa.skipped_no_key": counts.get("flood_skipped_no_key", 0),
        "transport.segments_sent": sent,
        "transport.retransmissions": retrans,
        "transport.first_try_ratio": (sent - retrans) / sent if sent else 0.0,
        "transport.acks_sent": counts.get("acks_sent", 0),
        "transport.lost": counts.get("lost", 0),
        "transport.fragment_delivery_ratio": frag_done / frag_total if frag_total else 0.0,
        "harness.events": calls.get("harness.events", 0),
        "harness.events.msg_arrive": t["kinds"].get("msg_arrive", 0),
        "harness.events.timer": t["kinds"].get("timer", 0),
        "harness.events.produce_tick": t["kinds"].get("produce_tick", 0),
        "harness.report.s": self_s.get("harness.report", 0.0),
        "harness.self_s": self_s.get("harness", 0.0),
        "trace.run_s": traced["host_s"],
        "trace.overhead": traced["host_s"] / untraced["host_s"],
    })
    for name, ms in zip(SWEEP_NAMES, sweep.values()):
        m[f"sweep.ms_per_sim_s.{name}"] = ms
    return m


def _reference_digest(name: str, seed: int) -> str | None:
    if not BASELINE.exists():
        return None
    refs = json.loads(BASELINE.read_text()).get("reference_digests", {})
    return refs.get(name, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 duration_s: float | None = None,
                 sweep_lengths_s=SWEEP_LENGTHS_S) -> dict:
    """Run one workload and return the object printed as the last line; the
    details go to ``.bench_out/<workload>-<seed>/result.json``."""
    runner = Runner(name, seed)
    shutil.rmtree(runner.dir, ignore_errors=True)
    workload = generate(name, seed, duration_s)
    digests = workload.digests()
    print(f"workload {name} seed {seed}: topology sha256 {digests['topology_sha256']}, "
          f"scenario sha256 {digests['scenario_sha256']}", flush=True)
    in_dir = runner.write_inputs(workload, "input")
    detail: dict = {"workload": name, "seed": seed, "inputs": digests, "trace": trace}
    if not trace:
        # at least MIN_REPEATS; another only if it should end within --seconds
        last = 0.0
        while len(runner.results) < MIN_REPEATS or runner.elapsed() + last <= seconds:
            started = runner.elapsed()
            runner.child(in_dir, f"rep{len(runner.results) + 1}", setup_reps=SETUP_REPS)
            last = runner.elapsed() - started
    else:
        untraced = runner.child(in_dir, "untraced")
        traced = runner.child(in_dir, "traced", trace=True)
        sweep = {}
        for length in sweep_lengths_s:
            sweep_dir = runner.write_inputs(vienna_steady(seed, length), f"sweep-{length}-input")
            res = runner.child(sweep_dir, f"sweep-{length}")
            sweep[length] = 1000 * res["ref_s"] / length if res["ok"] else float("nan")
    results = runner.results
    ok = [r for r in results if r["ok"]]
    runs = [r for r in ok if not r["label"].startswith("sweep")]
    digest_set = {r["digest"] for r in runs}
    correct = len(ok) == len(results) and len(digest_set) == 1
    if len(digest_set) > 1:
        print("FAILED: repeats of the same inputs gave different outputs", flush=True)
    metrics: dict = {}
    units: dict = {}
    if runs:
        digest = runs[0]["digest"]
        reference = _reference_digest(name, seed)
        verdict = ("no reference recorded for this seed" if reference is None
                   else "matches the recorded reference" if reference == digest
                   else f"SIMULATED BEHAVIOUR CHANGED: recorded reference is {reference}")
        print(f"output sha256 {digest}: {verdict}", flush=True)
        detail["output_sha256"] = digest
        detail["repeats"] = [{k: r.get(k) for k in ("label", "host_s", "ref_s", "peak_rss_mb")}
                             for r in runs]
        timed = [r for r in runs if "ref_s" in r]
        if timed:
            e2e, notes = end_to_end(timed)
            for note in notes:
                print(note)
            detail["end_to_end"] = e2e
            if not trace:
                metrics, units = e2e, END_TO_END_UNITS
        if trace and untraced["ok"] and traced["ok"]:
            metrics = per_layer(traced, untraced, sweep)
            _print_trace_summary(traced, sweep)
            units = PER_LAYER_UNITS
    if not metrics or any(v != v for v in metrics.values()):   # missing or NaN
        correct = False
        metrics = {k: (None if v != v else v) for k, v in metrics.items()}
    out = {
        "correct": correct,
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for key, entry in out["metrics"].items():
        print(f"  {key:36s} {entry['value']!s:>20} {entry['unit']}")
    detail["result"] = out
    runner.dir.mkdir(parents=True, exist_ok=True)
    (runner.dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    return out


def _print_trace_summary(traced: dict, sweep: dict) -> None:
    t = traced["trace"]
    for missing in t["missing"]:
        print(f"hook missing (reported as 0): {missing}")
    layer_s = {layer: sum(t["self_s"].get(s, 0.0) for s in spans)
               for layer, spans in LAYERS.items()}
    total = sum(layer_s.values())
    print("self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in layer_s.items()))
    print(f"layer self times incl. harness.self_s sum to {total:.4f} s; "
          f"traced run took {traced['host_s']:.4f} s; {t['spans']} spans written")
    print("run-length sweep (vienna-steady shape): " + ", ".join(
        f"{length} s -> {v:.2f} ms per sim s" for length, v in sweep.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qkdnet" / "__init__.py").is_file():
        print(f"error: qkdnet sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
