"""The machine-speed probe: scaling arithmetic and the in-op sampler."""

from time import perf_counter

import pytest

import speed


def test_scale_is_proportional_to_latency_and_inverse_to_unit_time():
    ref = speed.REF_S
    assert speed.scale(1.0, [ref, ref]) == pytest.approx(1.0)
    # The machine at half speed: units and latency both take twice as long.
    assert speed.scale(2.0, [2 * ref] * 3) == pytest.approx(1.0)
    # The program twice as slow at the same machine speed.
    assert speed.scale(2.0, [ref] * 3) == pytest.approx(2.0)
    assert speed.scale(1.0, [ref, 3 * ref]) == pytest.approx(0.5)


def test_scale_leaves_out_units_that_lost_the_processor():
    ref = speed.REF_S
    assert speed.scale(1.0, [ref] * 5 + [30 * ref]) == pytest.approx(1.0)
    assert speed.scale(1.0, [ref] * 4 + [2 * ref] * 2) == pytest.approx(0.75)


def test_sampler_ticks_while_started_and_reports_their_time():
    sampler = speed.Sampler()
    sampler.start()
    start = perf_counter()
    while perf_counter() - start < 10 * speed.INTERVAL_S:
        pass
    end = perf_counter()
    units, spent = sampler.stop(end)
    assert len(units) >= 5
    assert spent == pytest.approx(sum(units))
    assert spent < end - start
    # Stopped: no more ticks arrive.
    later = perf_counter()
    while perf_counter() - later < 3 * speed.INTERVAL_S:
        pass
    assert sampler.stop(perf_counter())[0] == []


def test_sampler_drops_ticks_that_began_after_the_measured_end():
    sampler = speed.Sampler()
    sampler.start()
    cut = perf_counter()
    while perf_counter() - cut < 4 * speed.INTERVAL_S:
        pass
    units, spent = sampler.stop(cut)
    assert units == [] and spent == 0.0
