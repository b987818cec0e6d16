"""The paper's algorithm ordering, where it holds at a committed budget.

The committed ``benchmarks/perf/fixtures/abilene_acktr.npz`` (ACKTR, 750
updates on the base scenario) is deployed through
:class:`~repro.core.agent.DistributedCoordinator` next to GCASP and SP on
``base_scenario(pattern="poisson", num_ingress=2, horizon=2000.0)``.
Per-seed success ratios for evaluation seeds 0-4:

====== ===== ===== ===== ===== =====
seed     0     1     2     3     4
====== ===== ===== ===== ===== =====
DRL    0.874 0.831 0.895 0.829 0.863
GCASP  0.895 0.899 0.906 0.881 0.902
SP     0.352 0.374 0.389 0.372 0.399
====== ===== ===== ===== ===== =====

Both DRL > SP and GCASP > SP hold on every seed and are asserted.  The
paper's DRL >= GCASP does not hold at this 750-update budget (DRL trails
on all five seeds), so it is left to a results ledger that trains at the
paper's budget rather than asserted here.
"""

from functools import partial
from pathlib import Path

import pytest

from repro.baselines import GCASPPolicy, ShortestPathPolicy
from repro.core.agent import DistributedCoordinator
from repro.eval.runner import evaluate_policy_on_scenario
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy

FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "fixtures" / "abilene_acktr.npz"
)
EVAL_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def success_by_algorithm():
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=2000.0)
    net, catalog = scenario.network, scenario.catalog
    factories = {
        "DRL": partial(
            DistributedCoordinator, net, catalog, ActorCriticPolicy.load(FIXTURE)
        ),
        "GCASP": partial(GCASPPolicy, net, catalog),
        "SP": partial(ShortestPathPolicy, net, catalog),
    }
    return {
        name: evaluate_policy_on_scenario(
            scenario, factory, name, eval_seeds=EVAL_SEEDS, workers=1
        ).success_ratios
        for name, factory in factories.items()
    }


@pytest.mark.parametrize("algorithm", ["DRL", "GCASP"])
def test_beats_shortest_path_on_every_seed(success_by_algorithm, algorithm):
    pairs = zip(success_by_algorithm[algorithm], success_by_algorithm["SP"])
    assert all(ours > sp for ours, sp in pairs), success_by_algorithm
