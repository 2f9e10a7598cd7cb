"""Scenario-family matrix: nothing strong is silently lost.

The pipeline runs one reduced-scale world per foundry family, and every
ground-truth impact that should be unambiguously detectable must
surface as a spike.  This is the guarantee the scenario-pack benchmark
enforces with floors, asserted here per family so a change to the
reconstruction or detection cannot regress one unnoticed.
"""

import pytest

from repro.world.foundry import PACK_SEED, scenario_pack, score_pack_family

SMOKE_PACK = scenario_pack(smoke=True)


@pytest.mark.parametrize("family", sorted(SMOKE_PACK))
def test_no_strong_impact_silently_dropped(family):
    score = score_pack_family(SMOKE_PACK[family], PACK_SEED)
    quality = score.spikes
    assert quality.total_impacts > 0
    if quality.total_strong:
        assert quality.recall_strong == 1.0, (
            f"{family} lost "
            f"{quality.total_strong - quality.detected_strong} of "
            f"{quality.total_strong} strong ground-truth impacts"
        )
    else:
        # Families tuned below the strong threshold (slow brownouts)
        # must still be fully recovered — they are the whole point.
        assert quality.recall == 1.0, f"{family} missed weak impacts"
