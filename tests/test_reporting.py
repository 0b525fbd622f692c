"""The JSON key sets of the report records, as ``report.json`` carries them."""

import json

import pytest

from eulerlab.commutator import scaling_experiment
from eulerlab.grid_fields import make_grid
from eulerlab.solver import PairAudit
from eulerlab.synth import random_divfree
from eulerlab.uniqueness import (
    LipschitzSeries,
    RelativeEnergySeries,
    UniquenessReport,
    gronwall_certify,
)

SCALING_KEYS = {"quantity", "alpha", "p", "epsilons", "magnitudes", "fitted_slope",
                "theory_slope", "pass", "vacuous", "intercepts", "seminorms",
                "slope_tolerance"}
CERTIFICATE_KEYS = {"tau1", "tau2", "lhs", "bound", "slack", "pass", "commutator_budget",
                    "certify_tolerance"}
PAIR_AUDIT_KEYS = {"pass", "max_violation", "worst_pair", "budget", "tolerance", "series"}
UNIQUENESS_KEYS = {"series", "budgets", "certificate", "hypothesis", "verdict", "alpha", "p",
                   "working_epsilon", "budget_route", "seminorm_series",
                   "fitted_alpha_series"}
TIMES = [0.0, 0.1, 0.2]


def as_written(record) -> dict:
    """``record.to_json_dict()`` as ``report.json`` holds it."""
    return json.loads(json.dumps(record.to_json_dict()))


def certificate():
    return gronwall_certify(RelativeEnergySeries(TIMES, [0.0, 1e-3, 2e-3]),
                            LipschitzSeries(TIMES, [1.0, 1.0, 1.0], 0.1), 0.0, 1e-9)


def test_scaling_report_keys():
    report = scaling_experiment(random_divfree(make_grid(2, 64), 2.0, seed=1),
                                "convective_commutator_lp", [0.5, 0.25, 0.125, 0.0625])
    d = as_written(report)
    assert set(d) == SCALING_KEYS
    assert set(d["seminorms"]) == {"v"}


def test_certificate_keys():
    assert set(as_written(certificate())) == CERTIFICATE_KEYS


@pytest.mark.parametrize("values, worst_pair", [
    ([1.0, 0.5, 0.25], None),
    ([0.25, 0.5, 1.0], [0.0, 0.2]),
], ids=["no-gain", "gain"])
def test_pair_audit_keys(values, worst_pair):
    d = as_written(PairAudit.of(TIMES, values, 0.0, 1e-9))
    assert set(d) == PAIR_AUDIT_KEYS
    assert d["worst_pair"] == worst_pair
    assert d["series"] == {"t": TIMES, "D": values}


@pytest.mark.parametrize("extended", [False, True], ids=["homogeneous", "extended"])
def test_uniqueness_report_keys(extended):
    report = UniquenessReport(
        times=TIMES, energy=[0.0, 1e-3, 2e-3],
        lipschitz=LipschitzSeries(TIMES, [1.0, 1.0, 1.0], 0.1),
        budgets_epsilons=[0.5, 0.25], budgets_values=[1e-3, 1e-4],
        certificate=certificate(), fitted_alpha=0.6, required_alpha=0.5, hypothesis_met=True,
        verdict="pass", alpha=0.6, p_int=3.0, working_epsilon=0.25,
        seminorm_series=[1.0, 1.0, 1.0], fitted_alpha_series=[0.6, 0.6, 0.6],
        budget_route="convective",
        quantity_alphas={"density_a": 0.9} if extended else None,
        contraction=PairAudit.of(TIMES, [0.0, 0.0, 0.0], 0.0, 1e-9) if extended else None,
    )
    d = as_written(report)
    assert set(d) == UNIQUENESS_KEYS | ({"contraction"} if extended else set())
    assert set(d["series"]) == {"t", "E", "C"}
    assert set(d["budgets"]) == {"epsilon", "value"}
    assert set(d["certificate"]) == CERTIFICATE_KEYS
    hypothesis = {"fitted_alpha", "required_alpha", "met"}
    assert set(d["hypothesis"]) == hypothesis | ({"per_quantity"} if extended else set())
    if extended:
        assert set(d["contraction"]) == PAIR_AUDIT_KEYS
