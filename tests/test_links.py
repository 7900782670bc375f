"""Link engine: rate law, deployment gate, production conservation."""

import math

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

from keyref import produce_halves, push_halves, reference_pools


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
        assert abs(rt.produced_bytes_total * 8 + rt.pending_bits - 3162) <= 1

    @given(st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=1, max_size=60))
    def test_conservation_over_any_partition(self, dts):
        rt = runtime(length_km=0.0, r0=7777.0)
        for dt in dts:
            rt.produce(dt)
        expected_bits = 7777.0 * sum(dts)
        assert abs(rt.produced_bytes_total * 8 + rt.pending_bits - expected_bits) <= 1.0 + 1e-6

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
    # however many ticks one settle covers: the link counts its blocks and
    # odd blocks, and the stream grows each pool by the halves of every
    # block, so each pushed half lands where an eager split puts it and
    # produced key is the derived key at its offset
    rt = runtime(length_km=0.0, r0=4004.0)       # 500 and 501 B blocks in turn
    step = runtime(length_km=0.0, r0=4004.0)     # the same link, one tick a call
    stream = KeyStream(7)
    stream.produce(6, 0)
    lengths, pushed = [3, 3], []
    for batch in range(1, 8):
        blocks, odd = rt.produced_blocks, rt.odd_blocks
        n_bytes = rt.produce(1.0, ticks=3)
        stream.produce(n_bytes, rt.odd_blocks - odd)
        assert rt.produced_blocks - blocks == 3
        for _ in range(3):
            produce_halves(lengths, step.produce(1.0))
        if batch % 3 == 0:
            refill = bytes([batch]) * (5 + batch)
            stream.push(refill)
            push_halves(lengths, refill, pushed)
        assert stream.lengths == lengths
    assert rt.odd_blocks == step.odd_blocks > 0
    pools = reference_pools(7, lengths, pushed)
    for pool in (0, 1):
        assert stream.read((pool, 0, stream.lengths[pool])) == bytes(pools[pool])
