"""Planted defects: each must fail the cheapest campaign or criterion that can see it.

One defect at a time is monkeypatched into ``fkdvlab.solver`` or
``fkdvlab.stein``, and the test asserts that the report fails on the named
metrics.  Every campaign runs through a row of ``experiments.CRITERIA``:
``convergence`` through criterion 10's, ``tstar`` through criterion 3's,
``two-time-bh`` through criterion 4's, the decay defects through criterion
5's three rows, and the Stein defects through criteria 6 and 7.  The solver
defects also run through criterion 8, whose scaling residual is exact on
the semi-discrete map, so that a scale-covariant defect passes it.

"Stepper" defects patch only ``_Stepper``; "shared" defects patch a table
builder that the stepper and the Picard oracle both read.  The oracle is
independent of the stepper's stages, not of its symbols, so the shared
defects pass ``convergence`` and are caught by the physics campaigns.
Only criterion 6's closed form sees a wrong quadrature: a log-log slope
does not see a constant factor, and no row gates the scans' coefficient.
"""

import numpy as np
import pytest

from fkdvlab import diagnostics, solver, stein
from fkdvlab.experiments import CRITERIA

ROWS = {row.label: row for row in CRITERIA}
CAMPAIGNS = {
    "convergence": ROWS["c10-solver-validity"].report,
    "tstar": ROWS["c3-tstar"].report,
    "two-time-bh": ROWS["c4-jump-evolution"].report,
}


def _stepper_dfac_scaled(monkeypatch):
    init = solver._Stepper.__init__

    def scaled(self, *args):
        init(self, *args)
        self.dfac = 0.95 * self.dfac
    monkeypatch.setattr(solver._Stepper, "__init__", scaled)


def _stepper_not_dealiased(monkeypatch):
    init = solver._Stepper.__init__

    def aliased(self, grid, alpha, dt, dealias, nonlinear):
        init(self, grid, alpha, dt, False, nonlinear)
    monkeypatch.setattr(solver._Stepper, "__init__", aliased)


def _stepper_k3_is_k2(monkeypatch):
    nhat = solver._Stepper.nhat

    def lower_order(self, uh, out=None):
        if out is not None and np.shares_memory(out, self._k[2]):
            out[...] = self._k[1]           # the third stage repeats the second
            return out
        return nhat(self, uh, out)
    monkeypatch.setattr(solver._Stepper, "nhat", lower_order)


def _shared(name, change, module=solver):
    def plant(monkeypatch):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(build, *args))
    return plant


def _gauss_weight_scaled(monkeypatch):
    nodes, weights = stein._GAUSS_LEGENDRE
    weights = weights.copy()
    weights[7] *= 1.01                  # the largest weight, 1% off
    monkeypatch.setattr(stein, "_GAUSS_LEGENDRE", (nodes, weights))


DEFECTS = {
    "stepper-nonlinearity-x0.95": (_stepper_dfac_scaled, "convergence",
                                   {"picard_agreement"}),
    "stepper-k3-is-k2": (_stepper_k3_is_k2, "convergence", {"richardson_order"}),
    "stepper-no-2/3-rule": (_stepper_not_dealiased, "tstar", {"integral_residual"}),
    "shared-dispersion-sign-flipped": (
        _shared("_propagators", lambda build, *args: np.conj(build(*args))),
        "two-time-bh", {"jump_law_rel_error_t1", "jump_law_rel_error_t2"}),
    "shared-alpha-plus-0.02": (
        _shared("_propagators",
                lambda build, grid, alpha, times: build(grid, alpha + 0.02, times)),
        "two-time-bh", {"jump_law_rel_error_t1", "jump_law_rel_error_t2",
                        "identity_residual_vs_prediction"}),
    "shared-nonlinearity-x0.95": (
        _shared("_nonlinear_factor", lambda build, *args: 0.95 * build(*args)),
        "two-time-bh", {"jump_law_rel_error_t1", "jump_law_rel_error_t2"}),
}


def _failing(report):
    return {key for key, m in report.metrics.items() if not m.passed}


def test_convergence_passes_without_a_defect():
    report = CAMPAIGNS["convergence"]()
    assert report.passed, _failing(report)


@pytest.mark.parametrize("plant,campaign,metrics", DEFECTS.values(), ids=DEFECTS.keys())
def test_planted_defect_fails_its_campaign(monkeypatch, plant, campaign, metrics):
    plant(monkeypatch)
    report = CAMPAIGNS[campaign]()
    assert not report.passed
    assert _failing(report) == metrics


@pytest.mark.parametrize("defect", [key for key in DEFECTS if key.startswith("shared-")])
def test_convergence_misses_shared_defects(monkeypatch, defect):
    # the oracle reads the stepper's symbols, so a wrong symbol passes
    # criterion 10; the physics campaigns above are what catch it
    DEFECTS[defect][0](monkeypatch)
    assert CAMPAIGNS["convergence"]().passed


# defect -> failing c8 metrics; the scale-covariant defects read
# scaling_residual 5.4e-14 (no 2/3 rule, flipped sign) and 5.0e-14 (either
# nonlinearity x 0.95), and k3 := k2 reads 1.16e-8, under its 1e-6
C8_FAILING = {
    "stepper-nonlinearity-x0.95": set(),
    "stepper-k3-is-k2": set(),
    "stepper-no-2/3-rule": set(),
    "shared-dispersion-sign-flipped": {"commuting_field_residual"},
    "shared-alpha-plus-0.02": {"scaling_residual", "commuting_field_residual"},
    "shared-nonlinearity-x0.95": set(),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_solver_defect_through_c8(monkeypatch, defect):
    DEFECTS[defect][0](monkeypatch)
    assert _failing(ROWS["c8-identities"].report()) == C8_FAILING[defect]


def _failing_rows(rows):
    return {f"{row.label}/{key}" for row in rows for key in _failing(row.report())}


DECAY_ROWS = [row for label, row in ROWS.items() if label.startswith("c5-")]

# defect -> (plant, failing row/metric pairs); alpha = -1's tail exponent
# reads 1.061 against 1 +- 0.05 at alpha + 0.05, and its subcritical
# convergence 0.030 against 0.02 at weight order r + 0.2
DECAY_DEFECTS = {
    "shared-alpha-plus-0.05": (
        _shared("_propagators",
                lambda build, grid, alpha, times: build(grid, alpha + 0.05, times)),
        {"c5-decay-threshold-alpha=-1/tail_exponent"}),
    "weighted-norm-order-plus-0.2": (
        _shared("weighted_norm", lambda norm, f, r: norm(f, r + 0.2), diagnostics),
        {"c5-decay-threshold-alpha=-1/subcritical_norm_convergence"}),
}


@pytest.mark.parametrize("plant,failing", DECAY_DEFECTS.values(), ids=DECAY_DEFECTS.keys())
def test_planted_decay_defect_fails_its_rows(monkeypatch, plant, failing):
    plant(monkeypatch)
    assert _failing_rows(DECAY_ROWS) == failing


STEIN_ROWS = [row for label, row in ROWS.items() if label.startswith(("c6-", "c7-"))]
CLOSED_FORM = "c6-stein-asymptotics/closed_form_rel_error"

# defect -> (plant, failing row/metric pairs); the closed-form error reads
# 2.3e-2 without the tail, 2.2e-2 at b + 0.01 and 4.7e-4 with the weight
STEIN_DEFECTS = {
    "tail-dropped": (_shared("_tail_sq", lambda tail, *args: (0.0, tail(*args)[1]),
                             stein), {CLOSED_FORM}),
    "kernel-b-plus-0.01": (_shared(
        "_quad_sq", lambda quad, inc, eta, b, *rest: quad(inc, eta, b + 0.01, *rest),
        stein), {CLOSED_FORM}),
    "gauss-weight-x1.01": (_gauss_weight_scaled, set()),
}


@pytest.mark.parametrize("plant,failing", STEIN_DEFECTS.values(), ids=STEIN_DEFECTS.keys())
def test_planted_stein_defect_fails_its_rows(monkeypatch, plant, failing):
    # the rows pass without a defect (tests/test_acceptance.py); an empty
    # set pins a defect no row catches
    plant(monkeypatch)
    assert _failing_rows(STEIN_ROWS) == failing
