"""Frozen scalar reference implementations of the simulator hot path.

The modules under :mod:`repro.world` and :mod:`repro.trends` serve
frames from vectorized population tensors (see DESIGN.md §Performance).
This module preserves the original per-term / per-hour scalar
implementations **verbatim** so that the equivalence tests
(``tests/test_vectorized_equivalence.py``) can assert the vectorized
paths are *byte-identical* to the semantics the rest of the pipeline
was validated against.

Nothing in the production pipeline imports this module; it exists only
as an executable contract.  Do not "optimize" it — its slowness is the
point.
"""

from __future__ import annotations

import collections
from datetime import timedelta

import numpy as np

from repro.rand import hashed_normal, hashed_uniform, substream
from repro.timeutil import TimeWindow, hour_index
from repro.trends.records import (
    BREAKOUT_WEIGHT,
    RisingTerm,
    TimeFrameRequest,
    TimeFrameResponse,
)
from repro.trends.rising import RisingConfig
from repro.trends.sampling import index_frame, privacy_round, sample_counts
from repro.world.behavior import (
    DEFAULT_BEHAVIOR,
    BehaviorConfig,
    diurnal_curve,
    event_boost,
    term_baseline_per_hour,
)
from repro.world.catalog import TERMS, get_term
from repro.world.scenarios import Scenario
from repro.world.states import get_state

_CACHE_LIMIT = 512


def reference_stable_key(*parts: object) -> int:
    """Original byte-at-a-time FNV-1a fold of ``repro.rand.stable_key``."""
    acc = 0xCBF29CE484222325
    for part in parts:
        data = str(part).encode("utf-8") + b"\x1f"
        for byte in data:
            acc ^= byte
            acc = (acc * 0x100000001B3) % (1 << 64)
    return acc


def reference_local_diurnal(state_code: str, window: TimeWindow) -> np.ndarray:
    """Original one-``astimezone``-per-hour diurnal curve lookup."""
    state = get_state(state_code)
    tz = state.tzinfo
    curve = diurnal_curve()
    values = np.empty(window.hours, dtype=np.float64)
    moment = window.start
    for i in range(window.hours):
        values[i] = curve[moment.astimezone(tz).hour]
        moment += timedelta(hours=1)
    return values


def reference_variant_phrase(
    term_name: str, variants: tuple[str, ...], key: int
) -> str:
    """Original phrase pick: a 1-element array round-trip through
    :func:`repro.rand.hashed_uniform`."""
    phrasings = (term_name, *variants)
    pick = hashed_uniform(key, np.array([1], dtype=np.uint64))[0]
    return phrasings[int(pick * len(phrasings)) % len(phrasings)]


class ReferencePopulation:
    """The pre-tensor :class:`~repro.world.population.SearchPopulation`.

    One scalar ``_compute_series`` call per (term, state), an LRU of
    full-span series, per-state diurnal/response caches — exactly the
    shape of the original implementation.
    """

    def __init__(
        self,
        scenario: Scenario,
        behavior: BehaviorConfig = DEFAULT_BEHAVIOR,
        noise_seed: int = 7,
    ) -> None:
        self.scenario = scenario
        self.behavior = behavior
        self.noise_seed = noise_seed
        self._span = scenario.window
        self._series_cache: collections.OrderedDict[tuple[str, str], np.ndarray] = (
            collections.OrderedDict()
        )
        self._diurnal_cache: dict[str, np.ndarray] = {}
        self._response_cache: dict[str, np.ndarray] = {}

    @property
    def window(self) -> TimeWindow:
        return self._span

    def term_volume(
        self, term_name: str, state_code: str, window: TimeWindow
    ) -> np.ndarray:
        get_term(term_name)  # raise UnknownTermError early
        full = self._full_series(term_name, get_state(state_code).code)
        lo, hi = self._clip(window)
        return full[lo:hi].copy()

    def total_volume(self, state_code: str, window: TimeWindow) -> np.ndarray:
        state = get_state(state_code)
        diurnal = self._diurnal(state.code)
        lo, hi = self._clip(window)
        base = state.population * self.behavior.engagement_per_capita
        return base * diurnal[lo:hi]

    def volumes_matrix(
        self, term_names: tuple[str, ...], state_code: str, window: TimeWindow
    ) -> np.ndarray:
        rows = [self.term_volume(name, state_code, window) for name in term_names]
        return np.vstack(rows) if rows else np.empty((0, window.hours))

    def _clip(self, window: TimeWindow) -> tuple[int, int]:
        lo = hour_index(self._span.start, window.start)
        hi = hour_index(self._span.start, window.end)
        if lo < 0 or hi > self._span.hours:
            raise ValueError(
                f"window {window.start}..{window.end} outside scenario span"
            )
        return lo, hi

    def _diurnal(self, code: str) -> np.ndarray:
        series = self._diurnal_cache.get(code)
        if series is None:
            series = reference_local_diurnal(code, self._span)
            self._diurnal_cache[code] = series
        return series

    def _response(self, code: str) -> np.ndarray:
        series = self._response_cache.get(code)
        if series is None:
            diurnal = self._diurnal(code)
            floor = self.behavior.night_response_floor
            series = floor + (1.0 - floor) * diurnal
            self._response_cache[code] = series
        return series

    def _full_series(self, term_name: str, code: str) -> np.ndarray:
        key = (term_name, code)
        cached = self._series_cache.get(key)
        if cached is not None:
            self._series_cache.move_to_end(key)
            return cached
        series = self._compute_series(term_name, code)
        self._series_cache[key] = series
        if len(self._series_cache) > _CACHE_LIMIT:
            self._series_cache.popitem(last=False)
        return series

    def _compute_series(self, term_name: str, code: str) -> np.ndarray:
        hours = self._span.hours
        baseline = term_baseline_per_hour(term_name, code) * self._diurnal(code)
        noise_key = reference_stable_key(self.noise_seed, term_name, code)
        noise = np.exp(
            self.behavior.noise_sigma * hashed_normal(noise_key, np.arange(hours))
        )
        series = baseline * noise
        response = self._response(code)
        for event in self.scenario.events_in_state(code):
            boost = event_boost(event, term_name, code, self._span, self.behavior)
            if boost is not None:
                series = series + boost * response
        return series


def reference_rising_terms(
    population,
    request: TimeFrameRequest,
    rng: np.random.Generator,
    sample_rate: float,
    config: RisingConfig | None = None,
) -> tuple[RisingTerm, ...]:
    """Original per-term Python loop with four scalar ``.sum()`` calls
    and two scalar binomial draws per candidate."""
    config = config or RisingConfig()
    state = get_state(request.geo)
    window = request.window
    previous = window.shift(-window.hours)
    if previous.start < population.window.start:
        return ()  # no preceding period to compare against
    suggestions: list[RisingTerm] = []
    total_now = float(population.total_volume(state.code, window).sum())
    total_prev = float(population.total_volume(state.code, previous).sum())
    size_now = max(int(round(total_now * sample_rate)), 1)
    size_prev = max(int(round(total_prev * sample_rate)), 1)
    for term in TERMS:
        if term.name == request.term:
            continue
        volume_now = float(population.term_volume(term.name, state.code, window).sum())
        volume_prev = float(
            population.term_volume(term.name, state.code, previous).sum()
        )
        count_now = int(
            rng.binomial(size_now, min(volume_now / max(total_now, 1e-9), 1.0))
        )
        count_prev = int(
            rng.binomial(size_prev, min(volume_prev / max(total_prev, 1e-9), 1.0))
        )
        if count_now < config.min_window_count:
            continue  # anonymity: the term is invisible this window
        share_now = count_now / size_now
        share_prev = count_prev / size_prev
        if share_prev <= 0:
            weight = BREAKOUT_WEIGHT
        else:
            weight = int(round(100.0 * (share_now - share_prev) / share_prev))
        if weight < config.min_weight:
            continue
        phrase_key = reference_stable_key(
            "rising-phrase", term.name, request.geo, window.start.isoformat()
        )
        suggestions.append(
            RisingTerm(
                phrase=reference_variant_phrase(term.name, term.variants, phrase_key),
                weight=min(weight, BREAKOUT_WEIGHT),
            )
        )
    suggestions.sort(key=lambda item: item.weight, reverse=True)
    return tuple(suggestions[: config.top_k])


def reference_fetch(
    population,
    request: TimeFrameRequest,
    sample_round: int,
    *,
    seed: int = 99,
    sample_rate: float = 0.03,
    privacy_threshold: int = 3,
    rising_config: RisingConfig | None = None,
    include_rising: bool = True,
) -> TimeFrameResponse:
    """The original ``TrendsService.fetch`` data path (no rate limiting,
    no stats) with per-fetch substream setup recomputed from scratch."""
    state = get_state(request.geo)
    rng = substream(seed, "frame", request.cache_key, sample_round)
    volumes = population.term_volume(request.term, state.code, request.window)
    totals = population.total_volume(state.code, request.window)
    counts = sample_counts(rng, volumes, totals, sample_rate)
    counts = privacy_round(counts, privacy_threshold)
    sizes = np.maximum(np.round(totals * sample_rate), 1.0).astype(np.int64)
    values = index_frame(counts, sizes)
    rising: tuple[RisingTerm, ...] = ()
    if include_rising:
        rising_rng = substream(seed, "rising", request.cache_key, sample_round)
        rising = reference_rising_terms(
            population, request, rising_rng, sample_rate, rising_config
        )
    return TimeFrameResponse(
        request=request, values=values, rising=rising, sample_round=sample_round
    )
