"""Byte-identity of the vectorized hot path vs the frozen scalar reference.

The tensor/batched implementations in :mod:`repro.world.population`,
:mod:`repro.world.behavior`, :mod:`repro.rand`, and
:mod:`repro.trends.rising` promise *bit-identical* outputs to the
original per-term / per-hour scalar code (preserved verbatim in
:mod:`tests._reference`).  These tests hold them to it: every assertion
here is exact equality, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rand import (
    hashed_normal,
    hashed_normal_keys,
    hashed_uniform,
    hashed_uniform_keys,
    hashed_uniform_scalar,
    stable_key,
    stable_key_cached,
    stable_key_from,
    substream,
)
from repro.timeutil import TimeWindow, utc, weekly_frames
from repro.trends.ratelimit import RateLimitConfig
from repro.trends.records import TimeFrameRequest
from repro.trends.rising import RisingConfig, _variant_phrase, rising_terms
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.behavior import local_diurnal
from repro.world.catalog import TERMS
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig
from repro.world.states import STATES
from tests._reference import (
    ReferencePopulation,
    reference_fetch,
    reference_local_diurnal,
    reference_rising_terms,
    reference_stable_key,
    reference_variant_phrase,
)

#: Zones with distinct DST behaviour: Eastern/Central/Mountain/Pacific,
#: Arizona (no DST), Hawaii and Alaska (offset oddballs).
TZ_DIVERSE_CODES = ("NY", "TX", "CO", "CA", "AZ", "HI", "AK")

#: Windows straddling the 2021 US DST transitions plus plain edges.
DST_WINDOWS = (
    TimeWindow(utc(2021, 3, 13), utc(2021, 3, 16)),  # spring forward
    TimeWindow(utc(2021, 11, 6), utc(2021, 11, 9)),  # fall back
    TimeWindow(utc(2021, 3, 14, 7), utc(2021, 3, 14, 8)),  # 1-hour window
    TimeWindow(utc(2021, 1, 1), utc(2021, 1, 2)),
    TimeWindow(utc(2021, 1, 1), utc(2022, 1, 1)),  # full year, both shifts
)


# -- rand primitives --------------------------------------------------------


def test_stable_key_matches_reference_short_and_long():
    cases = [
        (),
        ("",),
        ("a",),
        (0,),
        (-1, "geo", 3.5),
        ("rising-phrase", "Internet outage", "US-TX", "2021-02-15T00:00:00+00:00"),
        ("y" * 190,),  # below the numpy-fold threshold
        ("y" * 191,),  # exactly at the threshold (191 chars + separator)
        ("y" * 4096,),  # far above it
        ("x" * 250, 7, "z" * 300),
    ]
    for parts in cases:
        assert stable_key(*parts) == reference_stable_key(*parts), parts


def test_stable_key_fuzz_matches_reference():
    rng = np.random.default_rng(13)
    for _ in range(200):
        count = int(rng.integers(1, 4))
        parts = []
        for _ in range(count):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                parts.append(int(rng.integers(-(10**9), 10**9)))
            elif kind == 1:
                length = int(rng.integers(0, 400))
                parts.append("".join(chr(int(c)) for c in rng.integers(32, 127, length)))
            else:
                parts.append(float(rng.normal()))
        assert stable_key(*parts) == reference_stable_key(*parts), parts


def test_stable_key_prefix_chaining():
    base = stable_key("frame", ("t", "US-TX", "a", "b"))
    for sample_round in range(5):
        assert stable_key_from(base, sample_round) == stable_key(
            "frame", ("t", "US-TX", "a", "b"), sample_round
        )
    assert stable_key_cached("frame", "x") == stable_key("frame", "x")


def test_hashed_uniform_scalar_matches_array_roundtrip():
    rng = np.random.default_rng(29)
    for _ in range(100):
        key = int(rng.integers(0, 2**64, dtype=np.uint64))
        index = int(rng.integers(0, 10**6))
        expected = hashed_uniform(key, np.array([index], dtype=np.uint64))[0]
        assert hashed_uniform_scalar(key, index) == expected


def test_hashed_keys_batch_rows_match_per_key_calls():
    rng = np.random.default_rng(31)
    keys = rng.integers(0, 2**64, 8, dtype=np.uint64)
    indices = np.arange(64)
    uniform = hashed_uniform_keys(keys, indices)
    normal = hashed_normal_keys(keys, indices)
    for row, key in enumerate(keys):
        np.testing.assert_array_equal(uniform[row], hashed_uniform(int(key), indices))
        np.testing.assert_array_equal(normal[row], hashed_normal(int(key), indices))


# -- diurnal curves ---------------------------------------------------------


@pytest.mark.parametrize("window", DST_WINDOWS, ids=lambda w: w.start.isoformat())
def test_local_diurnal_matches_reference_across_zones(window):
    for code in TZ_DIVERSE_CODES:
        np.testing.assert_array_equal(
            local_diurnal(code, window),
            reference_local_diurnal(code, window),
            err_msg=code,
        )


def test_local_diurnal_matches_reference_all_states():
    window = TimeWindow(utc(2021, 3, 13), utc(2021, 3, 15))
    for state in STATES:
        np.testing.assert_array_equal(
            local_diurnal(state.code, window),
            reference_local_diurnal(state.code, window),
            err_msg=state.code,
        )


# -- population tensors -----------------------------------------------------


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    # Spans the 2021 spring-forward transition so the tensor path is
    # exercised across a DST boundary, storm events included.
    return Scenario.build(
        ScenarioConfig(
            start=utc(2021, 1, 1), end=utc(2021, 4, 1), background_scale=0.3
        )
    )


@pytest.fixture(scope="module", params=[7, 20221026], ids=["seed7", "seed20221026"])
def populations(request, scenario) -> tuple[SearchPopulation, ReferencePopulation]:
    seed = request.param
    return (
        SearchPopulation(scenario, noise_seed=seed),
        ReferencePopulation(scenario, noise_seed=seed),
    )


POP_WINDOWS = (
    TimeWindow(utc(2021, 1, 1), utc(2021, 4, 1)),  # the whole span
    TimeWindow(utc(2021, 2, 14), utc(2021, 2, 21)),  # storm week
    TimeWindow(utc(2021, 3, 13), utc(2021, 3, 16)),  # DST transition
    TimeWindow(utc(2021, 1, 1), utc(2021, 1, 1, 1)),  # leading edge, 1 hour
    TimeWindow(utc(2021, 3, 31, 23), utc(2021, 4, 1)),  # trailing edge
)


def test_term_volume_matches_reference(populations):
    population, reference = populations
    for code in ("TX", "CA", "AZ", "HI", "NY"):
        for window in POP_WINDOWS:
            for term in TERMS:
                np.testing.assert_array_equal(
                    population.term_volume(term.name, code, window),
                    reference.term_volume(term.name, code, window),
                    err_msg=f"{term.name}/{code}/{window.start}",
                )


def test_total_volume_and_matrix_match_reference(populations):
    population, reference = populations
    names = tuple(term.name for term in TERMS[:5])
    for code in ("TX", "AZ", "NY"):
        for window in POP_WINDOWS:
            np.testing.assert_array_equal(
                population.total_volume(code, window),
                reference.total_volume(code, window),
            )
            np.testing.assert_array_equal(
                population.volumes_matrix(names, code, window),
                reference.volumes_matrix(names, code, window),
            )


def test_window_sums_match_scalar_sums(populations):
    population, reference = populations
    window = TimeWindow(utc(2021, 2, 14), utc(2021, 2, 21))
    sums = population.term_window_sums("TX", window)
    for row, term in enumerate(TERMS):
        assert sums[row] == reference.term_volume(term.name, "TX", window).sum()
    assert population.total_window_sum("TX", window) == float(
        reference.total_volume("TX", window).sum()
    )


# -- rising suggestions -----------------------------------------------------


def test_variant_phrase_matches_reference():
    for term in TERMS:
        key = stable_key("rising-phrase", term.name, "US-TX", "2021-02-15")
        assert _variant_phrase(term.name, term.variants, key) == (
            reference_variant_phrase(term.name, term.variants, key)
        )


def test_rising_terms_match_reference(populations):
    population, reference = populations
    config = RisingConfig()
    frames = weekly_frames(TimeWindow(utc(2021, 1, 8), utc(2021, 3, 19)))
    checked = 0
    for geo in ("US-TX", "US-CA", "US-AZ"):
        for frame in frames:
            request = TimeFrameRequest("Internet outage", geo, frame)
            for seed in (99, 1234):
                got = rising_terms(
                    population,
                    request,
                    substream(seed, "rising", request.cache_key, 0),
                    0.03,
                    config,
                )
                want = reference_rising_terms(
                    reference,
                    request,
                    substream(seed, "rising", request.cache_key, 0),
                    0.03,
                    config,
                )
                assert got == want, (geo, frame.start, seed)
                checked += 1
    assert checked and any(
        rising_terms(
            population,
            TimeFrameRequest("Internet outage", "US-TX", frame),
            substream(99, "x"),
            0.03,
        )
        for frame in frames
    ), "rising stayed empty everywhere - the equivalence check was vacuous"


def test_rising_consumes_identical_rng_state(populations):
    """The batched draw must leave the generator exactly where the
    scalar per-term interleave left it - draws happen for *all*
    candidates, before any visibility filtering."""
    population, reference = populations
    frame = TimeWindow(utc(2021, 2, 12), utc(2021, 2, 19))
    request = TimeFrameRequest("Internet outage", "US-TX", frame)
    rng_a = substream(99, "probe")
    rng_b = substream(99, "probe")
    rising_terms(population, request, rng_a, 0.03)
    reference_rising_terms(reference, request, rng_b, 0.03)
    assert rng_a.integers(0, 2**63) == rng_b.integers(0, 2**63)


# -- full service fetch -----------------------------------------------------


def test_fetch_matches_reference_end_to_end(populations):
    population, reference = populations
    service = TrendsService(
        population,
        TrendsConfig(
            rate_limit=RateLimitConfig(burst=10**9, refill_per_second=10**9)
        ),
    )
    frames = weekly_frames(TimeWindow(utc(2021, 1, 8), utc(2021, 3, 5)))
    for geo in ("US-TX", "US-HI"):
        for frame in frames:
            request = TimeFrameRequest("Internet outage", geo, frame)
            for sample_round in range(3):
                got = service.fetch(request, sample_round=sample_round)
                want = reference_fetch(reference, request, sample_round)
                np.testing.assert_array_equal(got.values, want.values)
                assert got.rising == want.rising
