"""The frozen scenario pack: nine families the pipeline must survive.

``scenario_pack()`` returns the benchmark's fixed specs — one
:class:`~.spec.ScenarioSpec` per event family, every parameter written
out literally so the pack is versioned by this file's diff, not by any
generator default drifting.  All specs share one four-week window in
early 2021 chosen to contain the 2021-03-14 US daylight-saving
transition (the ``dst_spanning`` family needs one in range); the smoke
variant halves the window and the occurrence counts but keeps the
transition inside.

``run_family_study`` / ``score_pack_family`` are the shared execution
path of the scenario-pack benchmark and the ``repro scenarios score``
CLI: compile the spec, run the unmodified pipeline over the spec's own
geographies, and score the result against the generated ground truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.timeutil import utc
from repro.world.foundry.families import (
    BgpLeak,
    CascadingCdnFailure,
    CorrelatedPowerNetwork,
    DstSpanning,
    FlappingRecurrence,
    NightTrough,
    OffshoreDiurnal,
    SharpOutage,
    SlowBrownout,
)
from repro.world.foundry.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.scoring import ScenarioScore
    from repro.core.pipeline import StudyResult
    from repro.world.scenarios import Scenario

#: The pack's committed seed — BENCH_scenarios.json numbers are taken
#: at exactly this seed, so regressions diff cleanly.
PACK_SEED = 20210314

PACK_START = utc(2021, 2, 22)
PACK_END = utc(2021, 3, 22)
SMOKE_START = utc(2021, 3, 8)


def scenario_pack(smoke: bool = False) -> dict[str, ScenarioSpec]:
    """The frozen per-family specs, keyed by family name."""
    start = SMOKE_START if smoke else PACK_START
    end = PACK_END
    n = 1 if smoke else 3
    pairs = 1 if smoke else 2
    specs = (
        ScenarioSpec(
            name="cascading_cdn",
            start=start,
            end=end,
            geos=("US-CA", "US-TX", "US-NY", "US-FL", "US-WA", "US-IL"),
            families=(CascadingCdnFailure(occurrences=pairs),),
        ),
        ScenarioSpec(
            name="bgp_leak",
            start=start,
            end=end,
            geos=(
                "US-CA", "US-TX", "US-NY", "US-FL",
                "US-PA", "US-IL", "US-OH", "US-GA",
            ),
            families=(BgpLeak(occurrences=pairs, footprint=(5, 8)),),
        ),
        ScenarioSpec(
            name="slow_brownout",
            start=start,
            end=end,
            geos=("US-TX", "US-OH", "US-CO"),
            families=(SlowBrownout(occurrences=n),),
        ),
        ScenarioSpec(
            name="sharp_outage",
            start=start,
            end=end,
            geos=("US-NY", "US-AZ", "US-MN"),
            families=(SharpOutage(occurrences=n),),
        ),
        ScenarioSpec(
            name="correlated_power_network",
            start=start,
            end=end,
            geos=("US-TX", "US-MI", "US-GA"),
            families=(CorrelatedPowerNetwork(occurrences=pairs),),
        ),
        ScenarioSpec(
            name="offshore_diurnal",
            start=start,
            end=end,
            geos=("GB", "JP", "AU", "LK"),
            families=(OffshoreDiurnal(occurrences=n),),
        ),
        ScenarioSpec(
            name="night_trough",
            start=start,
            end=end,
            geos=("US-CA", "US-WA", "US-CO"),
            families=(NightTrough(occurrences=n),),
        ),
        ScenarioSpec(
            name="flapping",
            start=start,
            end=end,
            geos=("US-OH", "US-PA"),
            families=(FlappingRecurrence(occurrences=pairs),),
        ),
        ScenarioSpec(
            name="dst_spanning",
            start=start,
            end=end,
            geos=("US-TX", "US-NY", "US-CA"),
            families=(DstSpanning(occurrences=pairs),),
        ),
    )
    return {spec.name: spec for spec in specs}


def run_family_study(
    spec: ScenarioSpec, seed: int = PACK_SEED
) -> tuple["StudyResult", "Scenario"]:
    """Compile *spec* and run the unmodified pipeline over its geos."""
    # Deferred: repro.world must stay importable without the runtime.
    from repro.core.pipeline import SiftConfig
    from repro.runtime.study import StudyRuntime

    scenario = spec.compile(seed)
    with StudyRuntime.build(
        seed=seed,
        scenario=scenario,
        sift=SiftConfig(annotate=False),
        checkpoint=False,
    ) as runtime:
        study = runtime.run_study(geos=spec.geos)
    return study, scenario


def score_pack_family(
    spec: ScenarioSpec, seed: int = PACK_SEED
) -> "ScenarioScore":
    """One family's scorecard: run the study, score it against truth."""
    from repro.analysis.scoring import score_study

    study, scenario = run_family_study(spec, seed)
    return score_study(study, scenario)
