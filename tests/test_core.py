import math
import random

import pytest

from bwrsim.core import (MS, SEC, PRIO_DATA, SKIP_CHUNK, Rng, RngStreams,
                         SchedulingError, Simulator, derive_seed)


def test_schedule_at_now_fires_after_current_event():
    sim = Simulator()
    order = []
    def second():
        order.append("second")
    def first():
        order.append("first")
        sim.schedule_at(sim.now, PRIO_DATA, second)   # zero-delay
    sim.schedule_at(10, PRIO_DATA, first)
    sim.run_until(10)
    assert order == ["first", "second"]


def test_priority_orders_same_instant():
    sim = Simulator()
    order = []
    sim.schedule_at(5, 1, lambda: order.append(1))
    sim.schedule_at(5, 0, lambda: order.append(0))
    sim.run_until(5)
    assert order == [0, 1]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule_at(10, PRIO_DATA, lambda: None)
    sim.run_until(10)
    with pytest.raises(SchedulingError):
        sim.schedule_at(9, PRIO_DATA, lambda: None)


def test_schedule_in_negative_delay_rejected():
    # schedule_in pushes on its own, without a call to schedule_at
    sim = Simulator()
    sim.run_until(10)

    def late():
        pass

    with pytest.raises(SchedulingError, match="^event .*late scheduled at 9 before "
                                              "current clock 10$"):
        sim.schedule_in(-1, PRIO_DATA, late)
    assert sim.pending() == 0
    sim.schedule_in(0, PRIO_DATA, late)         # now itself is not in the past
    assert sim.run_until(10) == 1


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(2 * SEC) == 0
    assert sim.now == 2 * SEC


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    for t in (1 * MS, 2 * MS, 3 * MS):
        sim.schedule_at(t, PRIO_DATA, lambda t=t: fired.append(t))
    assert sim.run_until(2 * MS) == 2
    assert fired == [1 * MS, 2 * MS]
    assert sim.now == 2 * MS
    assert sim.run_until(3 * MS) == 1


def test_delivery_order_matches_total_order():
    # randomized schedule; observed order must sort by (time, priority, seq)
    sim = Simulator()
    rng = random.Random(7)
    log = []
    keys = []
    for seq in range(500):
        t = rng.randrange(0, 50)
        prio = rng.randrange(0, 4)
        sim.schedule_at(t, prio, log.append, (t, prio, seq))
        keys.append((t, prio, seq))
    sim.run_until(100)
    assert log == sorted(keys)


def test_clock_never_decreases():
    sim = Simulator()
    seen = []
    rng = random.Random(3)
    for _ in range(200):
        sim.schedule_at(rng.randrange(0, 1000), rng.randrange(0, 4),
                        lambda: seen.append(sim.now))
    sim.run_until(1000)
    assert seen == sorted(seen)


def test_bernoulli_degenerate():
    rng = Rng(1)
    assert not any(rng.bernoulli(0.0) for _ in range(1000))
    assert all(rng.bernoulli(1.0) for _ in range(1000))


def test_bernoulli_law_of_large_numbers():
    rng = Rng(42)
    n = 10 ** 6
    mean = sum(rng.bernoulli(0.1) for _ in range(n)) / n
    assert 0.099 <= mean <= 0.101


def test_uniform_point_interval():
    rng = Rng(1)
    assert rng.uniform(2.0, 2.0) == 2.0


def test_uniform_bounds():
    rng = Rng(5)
    draws = [rng.uniform(3.0, 7.0) for _ in range(10000)]
    assert all(3.0 <= d < 7.0 for d in draws)
    assert abs(sum(draws) / len(draws) - 5.0) < 0.05


def test_normal_moments_and_draw_count():
    rng = Rng(9)
    n = 50_000
    draws = [rng.normal(22.0, 2.0) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean - 22.0) < 0.05
    assert abs(math.sqrt(var) - 2.0) < 0.05
    # exactly two uniforms per call: an interleaved clone stays in lockstep
    a, b = Rng(123), Rng(123)
    seq_a = [a.normal(0, 1) for _ in range(10)]
    seq_b = []
    for _ in range(10):
        seq_b.append(b.normal(0, 1))
    assert seq_a == seq_b


def test_rng_domain_errors():
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)
    with pytest.raises(ValueError):
        rng.uniform(3.0, 2.0)
    with pytest.raises(ValueError):
        rng.normal(0.0, 0.0)
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_same_seed_same_sequence():
    a, b = Rng(77), Rng(77)
    assert [a.uniform(0, 1) for _ in range(100)] == [b.uniform(0, 1) for _ in range(100)]


def test_stream_isolation():
    # consuming one stream never perturbs another
    s1, s2 = RngStreams(11), RngStreams(11)
    for _ in range(100):
        s1.stream("harq").bernoulli(0.5)
    assert [s1.stream("channel").uniform(0, 1) for _ in range(10)] == \
           [s2.stream("channel").uniform(0, 1) for _ in range(10)]


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "harq") == derive_seed(1, "harq")
    assert derive_seed(1, "harq") != derive_seed(1, "channel")
    assert derive_seed(1, "harq") != derive_seed(2, "harq")


def test_uniform_point_interval_still_draws():
    # the degenerate interval must consume exactly one draw, keeping two
    # streams with different call sites in lockstep
    a, b = Rng(99), Rng(99)
    a.uniform(2.0, 2.0)
    b.uniform(0.0, 1.0)
    assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)


@pytest.mark.parametrize("n", [0, 1, 2, 17, 2 * SKIP_CHUNK + 3])
def test_skip_passes_exactly_n_draws(n):
    skipped, drawn = Rng(31), Rng(31)
    skipped.skip(n)
    for _ in range(n):
        drawn.uniform(0.0, 1.0)
    assert skipped.uniform(0.0, 1.0) == drawn.uniform(0.0, 1.0)
    # a normal takes two draws, so skipping 2k passes k normals
    assert skipped.normal(22.0, 2.0) == drawn.normal(22.0, 2.0)
