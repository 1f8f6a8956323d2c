"""Golden-run regression: one pinned config, one pinned dataset digest.

The sharded collection engine promises bit-identical output for any
worker count *and* across code changes that do not intentionally alter
the simulation.  This test pins that promise to a constant: a tiny
fixed config is collected from scratch and its dataset's SHA-256 must
equal the recorded golden digest, at ``workers=1`` and ``workers=3``.

If a change alters collected output on purpose (a new stream, a model
fix), recompute the digest with the snippet below and update
``GOLDEN_SHA256`` (and ``GOLDEN_NUMPY_VERSION``) in the same commit —
the diff then documents that the output changed, which is the point.

    PYTHONPATH=src python -c "
    from tests.test_golden_run import collect_golden
    from repro.obs.manifest import dataset_digest
    print(dataset_digest(collect_golden(workers=1)))"
"""

import numpy as np
import pytest

from repro.obs.manifest import dataset_digest
from repro.sim import CDNObservatory, InternetPopulation, SimulationConfig

#: The pinned golden config — never change silently.
GOLDEN_SEED = 20160314
GOLDEN_NUM_ASES = 12
GOLDEN_BLOCKS_PER_AS = 3.0
GOLDEN_NUM_DAYS = 10

#: SHA-256 of the golden dataset (header + every ip/hit column).
GOLDEN_SHA256 = "ee089c8b003565560a8e0a226d9cb3a55064a6630e04fe595f93a5a1a583c7e4"

#: numpy version the digest was computed under.  numpy keeps
#: Generator streams stable only within a version (NEP 19), so a
#: mismatch under another version may be an upstream stream change
#: rather than a code change; the assertion message says which
#: versions met.
GOLDEN_NUMPY_VERSION = "2.4.6"


def collect_golden(workers: int, scenario=None):
    """Collect the golden dataset from scratch at *workers* processes.

    *scenario* exists for the scenario-library seam tests: an empty
    timeline must reproduce this exact digest.
    """
    config = SimulationConfig(
        seed=GOLDEN_SEED,
        num_slash8=5,
        num_ases=GOLDEN_NUM_ASES,
        mean_blocks_per_as=GOLDEN_BLOCKS_PER_AS,
    )
    world = InternetPopulation.build(config)
    result = CDNObservatory(world).collect_daily(
        GOLDEN_NUM_DAYS, workers=workers, scenario=scenario
    )
    return result.dataset


@pytest.mark.parametrize("workers", [1, 3])
def test_golden_digest_unchanged(workers):
    assert dataset_digest(collect_golden(workers)) == GOLDEN_SHA256, (
        f"golden digest recorded under numpy {GOLDEN_NUMPY_VERSION}, "
        f"running numpy {np.__version__}"
    )
