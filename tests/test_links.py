"""Link engine: rate law, deployment gate, production conservation."""

import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from qkdnet.links import (
    LinkRuntime,
    LinkState,
    LinkStatus,
    key_rate,
    qualifies_for_deployment,
)
from qkdnet.model import DeviceProfile, LinkClass, LinkSpec
from qkdnet.q3p import KeyStream


def profile(r0=10000.0, alpha=0.2, max_km=100.0, restart=30.0, night=False):
    return DeviceProfile("p", r0, alpha, max_km, restart, night)


def spec(length_km=20.0, link_id="L"):
    return LinkSpec(link_id, "A", "B", length_km, "p", LinkClass.QBB_FIBER, 8192)


def runtime(length_km=20.0, **kw):
    return LinkRuntime(spec(length_km), profile(**kw))


class TestKeyRate:
    def test_zero_distance_identity(self):
        assert key_rate(profile(), 0.0) == 10000.0

    def test_25km_attenuation(self):
        # independent evaluation of 10000 * 10^(-0.2*25/10)
        expected = 10000.0 * math.pow(10.0, -0.5)
        assert key_rate(profile(), 25.0) == pytest.approx(expected)
        assert key_rate(profile(), 25.0) == pytest.approx(3162.27766, abs=1e-4)

    def test_beyond_operating_limit(self):
        assert key_rate(profile(max_km=100.0), 120.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_nonincreasing(self, l1, l2):
        p = profile()
        lo, hi = sorted((l1, l2))
        assert key_rate(p, lo) >= key_rate(p, hi)


class TestDeploymentGate:
    def test_passing_device(self):
        assert qualifies_for_deployment(profile(r0=10000, restart=30))

    def test_rate_too_low(self):
        # 2000 * 10^-0.5 = 632 bps < 1 kbit/s
        assert not qualifies_for_deployment(profile(r0=2000, restart=30))

    def test_restart_too_slow(self):
        assert not qualifies_for_deployment(profile(r0=10000, restart=90))

    def test_exactly_one_minute_restart_passes(self):
        assert qualifies_for_deployment(profile(r0=10000, restart=60))


class TestProduction:
    def test_whole_second_exact(self):
        rt = runtime(length_km=0.0, r0=3200.0)
        assert rt.produce(1.0) == 400

    def test_down_produces_nothing(self):
        rt = runtime()
        rt.fail()
        assert rt.produce(1.0) == 0
        assert rt.rate_bps == 0.0

    def test_carry_conservation_1000_small_steps(self):
        rt = runtime(length_km=0.0, r0=3162.3)
        for _ in range(1000):
            rt.produce(0.001)
        assert abs(rt.produced_bits_total - 3162) <= 1

    @given(st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=1, max_size=60))
    def test_conservation_over_any_partition(self, dts):
        rt = runtime(length_km=0.0, r0=7777.0)
        for dt in dts:
            rt.produce(dt)
        expected_bits = 7777.0 * sum(dts)
        assert abs(rt.produced_bits_total - expected_bits) <= 1.0 + 1e-6

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            runtime().produce(0.0)


class TestStatusMachine:
    def test_fail_then_rate_zero(self):
        rt = runtime()
        rt.fail()
        assert rt.status.state is LinkState.DOWN
        assert rt.rate_bps == 0.0

    def test_restore_counts_down_restart_latency(self):
        rt = runtime(restart=60.0)
        rt.fail()
        rt.restore()
        elapsed = 0.0
        while elapsed < 59.0:
            rt.produce(1.0)
            elapsed += 1.0
        assert rt.status.state is LinkState.RESTARTING
        rt.produce(1.0)
        assert rt.status.state is LinkState.UP

    def test_restore_with_zero_latency_is_immediate(self):
        rt = runtime(restart=0.0)
        rt.fail()
        rt.restore()
        assert rt.status.state is LinkState.UP

    def test_restore_leaves_a_link_that_is_not_down_as_it_is(self):
        rt = runtime(restart=60.0)
        rt.restore()
        assert rt.status == LinkStatus(LinkState.UP)
        rt.fail()
        rt.restore()
        rt.produce(1.0)
        rt.restore()
        assert rt.status == LinkStatus(LinkState.RESTARTING, 59.0)

    def test_production_resumes_for_step_remainder(self):
        # restart 0.05s inside a 0.1s step: half the step produces
        rt = runtime(length_km=0.0, r0=80000.0, restart=0.05)
        rt.fail()
        rt.restore()
        n_bytes = rt.produce(0.1)
        assert rt.status.state is LinkState.UP
        assert n_bytes == 500  # 80000 bps * 0.05 s / 8

    def test_night_only_blackout(self):
        rt = LinkRuntime(spec(2.0), profile(night=True))
        assert rt.rate_bps > 0
        rt.daytime = True
        assert rt.rate_bps == 0.0
        assert rt.produce(1.0) == 0
        rt.daytime = False
        assert rt.rate_bps > 0


def test_key_order_holds_across_production_and_refill():
    # produced and pushed blocks enter the stream in the order they happen,
    # however late the produced bytes are drawn: each pool is the halves of
    # the preshared block (the source's first), the draws and the refills,
    # in that order
    rt = runtime(length_km=0.0, r0=4000.0)
    stream = KeyStream(Random(7).randbytes)
    stream.produce(6)
    eager = Random(7)
    blocks = [eager.randbytes(6)]
    for step in range(1, 8):
        n_bytes = rt.produce(1.0)
        stream.produce(n_bytes)
        blocks.append(eager.randbytes(n_bytes))
        if step % 3 == 0:
            refill = bytes([step]) * (5 + step)
            stream.push(refill)
            blocks.append(refill)
    assert stream.read((1, 0, 8)) == blocks[0][3:] + blocks[1][250:255]
    for pool in (0, 1):
        want = b"".join(b[(len(b) + 1) // 2:] if pool else b[:(len(b) + 1) // 2]
                        for b in blocks)
        assert stream.read((pool, 0, stream.lengths[pool])) == want
