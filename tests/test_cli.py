"""Command-line interface: outputs, determinism, exit codes."""

import json

import pytest

from qkdnet.cli import main

GOOD_TOPO = """
[profile] id=p r0_bps=10000 alpha=0.2 max_km=60 restart_s=30
[node] name=A kind=qbb
[node] name=B kind=qbb
[link] id=AB a=A b=B km=20 profile=p class=qbb preshared=131072
"""

DISCONNECTED = GOOD_TOPO + "[node] name=C kind=qbb\n"


def test_run_baseline_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--preset", "vienna", "--scenario", "baseline",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "audit.log").exists()
    printed = capsys.readouterr().out
    assert "delivered" in printed
    doc = json.loads((out / "summary.json").read_text())
    assert doc["seed"] == 42


def test_run_twice_byte_identical(tmp_path):
    for scenario in ("baseline", "failover"):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / scenario / name
            assert main(["run", "--preset", "vienna", "--scenario", scenario,
                         "--seed", "42", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("metrics.csv", "summary.json", "audit.log"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), (
                scenario, fname)


def test_missing_scenario_file_exits_2(tmp_path):
    assert main(["run", "--preset", "vienna", "--scenario",
                 str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")]) == 2


def _unreadable_file(tmp_path, kind):
    """A path that cannot be read as a config: a directory, or a file that
    is not UTF-8 (it starts with a UTF-16 byte-order mark)."""
    if kind == "directory":
        path = tmp_path / "a-directory"
        path.mkdir()
    else:
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "[scenario] duration=3\n".encode("utf-16-le"))
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("command", ["run --scenario", "run --topology", "validate --topology"])
def test_unreadable_config_file_exits_2(command, kind, tmp_path, capsys):
    path = _unreadable_file(tmp_path, kind)
    out = str(tmp_path / "o")
    argv = {
        "run --scenario": ["run", "--preset", "vienna", "--scenario", path, "--out", out],
        "run --topology": ["run", "--topology", path, "--scenario", "baseline", "--out", out],
        "validate --topology": ["validate", "--topology", path],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and path in err


def test_invalid_topology_exits_2(tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text(DISCONNECTED)
    assert main(["validate", "--topology", str(bad)]) == 2


def test_misspelled_topology_key_exits_2(tmp_path, capsys):
    # ``night=true`` for ``night_only=true`` must not load as a day-and-night device
    bad = tmp_path / "night.topo"
    bad.write_text(GOOD_TOPO.replace("restart_s=30", "restart_s=30 night=true"))
    assert main(["validate", "--topology", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "line 2: unknown key 'night'" in err


# each case's text, and what its one error line must name ("" for nothing)
@pytest.mark.parametrize("scenario, names", [
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=refill link=SIE-ERD bytes=0\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=refill link=SIE-ERD bytes=-5\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=refill link=SIE-ERD bytes=4096 k=0\n", ""),
    ("[scenario] duration=3 seed=1 loss=1.5\n", ""),
    ("[scenario] duration=3 seed=1 loss=-0.1\n", ""),
    ("[scenario] duration=3 seed=1\n[loss] link=SIE-ERD p=2\n", ""),
    ("[scenario] duration=3 seed=1 jitter_ms=-1\n", ""),
    ("[scenario] duration=3 seed=1 jitter_ms=inf\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=dos link=SIE-ERD rate=-100 duration=1\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=dos link=SIE-ERD rate=100 duration=0\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=dos link=SIE-ERD rate=100 duration=-1\n", ""),
    ("[scenario] duration=nan seed=1\n", ""),
    ("[scenario] duration=inf seed=1\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=daywindow start=nan end=2\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=daywindow start=1 end=nan\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=daywindow start=-1 end=2\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=request src=alice dst=bob bytes=64 deadline=-3\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=request src=alice dst=bob bytes=64 deadline=0\n", ""),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=request src=alice dst=bob bytes=64 deadline=nan\n", ""),
    ("[scenario] duration=3 sed=1\n", "line 1: unknown key 'sed'"),
    ("[scenario] duration=3 seed=1 jitter=2\n", "line 1: unknown key 'jitter'"),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=request src=alice dst=bob bytes=64 kk=3\n",
     "line 2: unknown key 'kk'"),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=request src=alice dst=bob bytes=64 deadlin=1\n",
     "line 2: unknown key 'deadlin'"),
    ("[scenario] duration=3 seed=1\n[event] t=1 kind=fail link=SIE-ERD k=2\n",
     "line 2: unknown key 'k'"),
    ("[scenario] duration=3 seed=1\n[scenari] duration=5\n", "line 2: unknown section [scenari]"),
    ("[scenario] duration=3 seed=1\n[scenario] duration=5\n", "line 2: repeated [scenario]"),
    ("[scenario] duration=3 seed=1\n[loss] link=SIE-ERD p=0.1\n[loss] link=SIE-ERD p=0.2\n",
     "line 3: repeated [loss] for link 'SIE-ERD'"),
], ids=["refill-bytes-0", "refill-bytes-negative", "refill-k-0", "loss-above-1",
        "loss-negative", "link-loss-above-1", "jitter-negative", "jitter-inf",
        "dos-rate-negative", "dos-duration-0", "dos-duration-negative", "duration-nan",
        "duration-inf", "daywindow-start-nan", "daywindow-end-nan",
        "daywindow-start-negative", "deadline-negative", "deadline-zero", "deadline-nan",
        "scenario-key-sed", "scenario-key-jitter", "request-key-kk", "request-key-deadlin",
        "fail-key-k", "unknown-section", "repeated-scenario", "repeated-link-loss"])
def test_out_of_range_scenario_value_exits_2(scenario, names, tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text(scenario)
    assert main(["run", "--preset", "vienna", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and names in err


def test_failed_delivery_with_strict_exits_3(tmp_path):
    scn = tmp_path / "cut.scn"
    scn.write_text(
        "[scenario] duration=3 seed=1\n"
        "[event] t=0.2 kind=fail link=BREIT-STP\n"
        "[event] t=1.0 kind=request src=alice dst=STP bytes=1024 k=1\n"
    )
    out = tmp_path / "o"
    assert main(["run", "--preset", "vienna", "--scenario", str(scn),
                 "--out", str(out)]) == 0
    assert main(["run", "--preset", "vienna", "--scenario", str(scn),
                 "--out", str(out), "--strict"]) == 3


def test_partial_delivery_with_strict_exits_3(tmp_path, capsys):
    # bob's only access link is cut while the secret is on its way
    scn = tmp_path / "partial.scn"
    scn.write_text(
        "[scenario] duration=3 seed=1\n"
        "[event] t=1.0 kind=request src=SIE dst=bob bytes=65536 k=1\n"
        "[event] t=1.02 kind=fail link=ERD-bob\n"
    )
    out = tmp_path / "o"
    assert main(["run", "--preset", "vienna", "--scenario", str(scn),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert [r["status"] for r in doc["requests"]] == ["partial"]
    assert main(["run", "--preset", "vienna", "--scenario", str(scn),
                 "--out", str(out), "--strict"]) == 3


def test_validate_preset_output(capsys):
    assert main(["validate", "--preset", "vienna"]) == 0
    assert "7 QBB links, 2 QAN links, connected: yes" in capsys.readouterr().out


def test_validate_topology_file(tmp_path, capsys):
    good = tmp_path / "ok.topo"
    good.write_text(GOOD_TOPO)
    assert main(["validate", "--topology", str(good)]) == 0
    assert "1 QBB links, 0 QAN links" in capsys.readouterr().out


def test_scaling_table_output(capsys):
    assert main(["scaling", "--users", "5"]) == 0
    out = capsys.readouterr().out
    assert "5,10,5" in out


def test_scaling_rejects_garbage(capsys):
    assert main(["scaling", "--users", "zero"]) == 1


def test_plan_relaxed(capsys):
    assert main(["plan", "--alpha", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "optimal link length: 21.71 km (relaxed)" in out


def test_plan_integer(capsys):
    assert main(["plan", "--alpha", "0.2", "--distance", "100", "--integer"]) == 0
    assert "optimal link length: 25.00 km (integer devices)" in capsys.readouterr().out


def test_plan_negative_alpha_exits_1(capsys):
    assert main(["plan", "--alpha", "-1"]) == 1


def test_plan_curve_out(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    assert main(["plan", "--alpha", "0.2", "--curve-out", str(curve)]) == 0
    assert curve.read_text().startswith("l_km,rate_bps,cost_per_bit")


def test_plan_bundled_sweep(capsys):
    assert main(["plan", "--bundled", "planner-sweep"]) == 0
    assert "21.71" in capsys.readouterr().out


def test_usage_error_exits_1():
    assert main(["run", "--preset", "vienna"]) == 1  # missing --scenario
    assert main(["frobnicate"]) == 1


def test_run_bundled_scenarios_all_deliver(tmp_path):
    for name in ("failover", "dos-recovery", "multipath"):
        out = tmp_path / name
        assert main(["run", "--preset", "vienna", "--scenario", name,
                     "--out", str(out), "--strict"]) == 0, name
        doc = json.loads((out / "summary.json").read_text())
        assert all(r["status"] == "delivered" for r in doc["requests"]), name
