"""Shared detection-quality scoring: one vocabulary for every benchmark.

Spike-level quality (precision / recall / strong-impact recall /
detection delay / duration fidelity) built on
:func:`repro.analysis.validation.validate_study`, plus grouped-outage
F1 (did the area stage recover multi-state events as multi-state
outages?), and :func:`score_study` bundling both for the scenario-pack
benchmark and the ``repro scenarios score`` CLI.

All metrics are properties of a seeded scenario, never of the machine,
so benchmark floors built on them are portable across CI hardware by
construction.
"""

from __future__ import annotations

import dataclasses
from datetime import timedelta
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.analysis.validation import ValidationReport, validate_study
from repro.core.area import Outage
from repro.core.spikes import SpikeSet
from repro.world.events import OutageEvent
from repro.world.scenarios import Scenario
from repro.world.states import get_state

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import StudyResult

#: An impact at or above this intensity is unambiguously detectable —
#: the threshold the paper-calibrated benches already used for recall.
STRONG_INTENSITY = 5.0

#: Ground-truth events spanning at least this many (studied) states
#: should surface as grouped multi-state outages.
GROUP_FOOTPRINT = 3

#: Slack when matching a predicted outage to a truth event: grouping is
#: anchored on peak proximity, so allow the anchor to drift a few hours
#: past the event's own interest window.
_GROUP_SLACK = timedelta(hours=6)


def detection_delays(report: ValidationReport) -> np.ndarray:
    """Hours from impact onset to detected spike start, one per hit.

    Negative raw deltas (the detector's walk can open a spike on the
    pre-onset shoulder) clip to zero: "detected before it began" is a
    zero-delay detection, not negative latency.
    """
    delays = [
        max(0.0, (m.spike.start - m.impact.onset).total_seconds() / 3600.0)
        for m in report.matches
        if m.detected
    ]
    return np.array(delays, dtype=np.float64)


@dataclasses.dataclass(frozen=True, slots=True)
class SpikeQuality:
    """Spike-level detection quality against ground truth."""

    precision: float  # share of spikes explained by a GT impact
    recall: float  # share of GT impacts detected (any intensity)
    recall_strong: float  # recall over impacts with intensity >= threshold
    detected_strong: int
    total_strong: int
    mean_detection_delay_hours: float
    mean_abs_duration_error_hours: float
    total_spikes: int
    total_impacts: int

    def to_dict(self) -> dict:
        return {
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "recall_strong": round(self.recall_strong, 4),
            "detected_strong": self.detected_strong,
            "total_strong": self.total_strong,
            "mean_detection_delay_hours": round(
                self.mean_detection_delay_hours, 4
            ),
            "mean_abs_duration_error_hours": round(
                self.mean_abs_duration_error_hours, 4
            ),
            "total_spikes": self.total_spikes,
            "total_impacts": self.total_impacts,
        }


def score_spikes(
    spikes: SpikeSet,
    scenario: Scenario,
    *,
    states: Iterable[str] | None = None,
    strong_intensity: float = STRONG_INTENSITY,
) -> SpikeQuality:
    """Spike-level quality of a study against its scenario.

    *states* restricts the ground truth to the studied state codes so
    partial studies are not charged for impacts they never fetched.
    """
    state_filter = frozenset(states) if states is not None else None
    report = validate_study(spikes, scenario, states=state_filter)
    strong = [m for m in report.matches if m.impact.intensity >= strong_intensity]
    detected_strong = sum(1 for m in strong if m.detected)
    delays = detection_delays(report)
    return SpikeQuality(
        precision=report.precision,
        recall=report.recall,
        recall_strong=detected_strong / len(strong) if strong else 1.0,
        detected_strong=detected_strong,
        total_strong=len(strong),
        mean_detection_delay_hours=float(delays.mean()) if delays.size else 0.0,
        mean_abs_duration_error_hours=report.mean_absolute_duration_error,
        total_spikes=report.total_spikes,
        total_impacts=len(report.matches),
    )


@dataclasses.dataclass(frozen=True, slots=True)
class GroupedOutageQuality:
    """Did grouping recover multi-state events as multi-state outages?"""

    precision: float  # share of predicted groups matching a truth event
    recall: float  # share of truth events recovered as a group
    f1: float
    matched: int
    truth_events: int
    predicted_outages: int

    def to_dict(self) -> dict:
        return {
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
            "matched": self.matched,
            "truth_events": self.truth_events,
            "predicted_outages": self.predicted_outages,
        }


def _studied_footprint(
    event: OutageEvent, states: frozenset[str] | None
) -> frozenset[str]:
    codes = frozenset(event.states)
    return codes if states is None else codes & states


def score_grouped_outages(
    outages: Iterable[Outage],
    scenario: Scenario,
    *,
    states: Iterable[str] | None = None,
    min_footprint: int = GROUP_FOOTPRINT,
) -> GroupedOutageQuality:
    """Grouped-outage F1 against the scenario's multi-state events.

    A truth event counts when at least *min_footprint* of its impacts
    fall on studied states; a predicted outage counts at the same
    footprint bar.  Greedy one-to-one matching: a prediction matches an
    event when its anchor peak lies inside the event's padded interest
    window and the two share at least two states.
    """
    state_filter = frozenset(states) if states is not None else None
    truths: list[tuple[OutageEvent, frozenset[str]]] = []
    for event in scenario.events:
        footprint = _studied_footprint(event, state_filter)
        if len(footprint) >= min_footprint:
            truths.append((event, footprint))
    predictions = [
        outage for outage in outages if outage.footprint >= min_footprint
    ]

    used: set[int] = set()
    matched = 0
    for event, footprint in truths:
        lo = event.start - _GROUP_SLACK
        hi = event.end + _GROUP_SLACK
        for index, outage in enumerate(predictions):
            if index in used:
                continue
            if not lo <= outage.peak <= hi:
                continue
            if len(outage.states & footprint) < 2:
                continue
            used.add(index)
            matched += 1
            break

    precision = matched / len(predictions) if predictions else 1.0
    recall = matched / len(truths) if truths else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return GroupedOutageQuality(
        precision=precision,
        recall=recall,
        f1=f1,
        matched=matched,
        truth_events=len(truths),
        predicted_outages=len(predictions),
    )


@dataclasses.dataclass(frozen=True, slots=True)
class ScenarioScore:
    """The bundled per-study scorecard the scenario pack reports."""

    spikes: SpikeQuality
    outages: GroupedOutageQuality

    def to_dict(self) -> dict:
        return {"spikes": self.spikes.to_dict(), "outages": self.outages.to_dict()}


def score_study(
    study: "StudyResult",
    scenario: Scenario,
    *,
    strong_intensity: float = STRONG_INTENSITY,
    min_footprint: int = GROUP_FOOTPRINT,
) -> ScenarioScore:
    """Score a finished study against its scenario's ground truth.

    The studied states are taken from the study itself, so the caller
    never has to repeat the geo list.
    """
    states = frozenset(get_state(geo).code for geo in study.states)
    return ScenarioScore(
        spikes=score_spikes(
            study.spikes,
            scenario,
            states=states,
            strong_intensity=strong_intensity,
        ),
        outages=score_grouped_outages(
            study.outages,
            scenario,
            states=states,
            min_footprint=min_footprint,
        ),
    )
