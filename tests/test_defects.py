"""Planted solver defects: each must fail the cheapest campaign that can see it.

One defect at a time is monkeypatched into ``fkdvlab.solver``, and the
test asserts that the campaign's report fails on the named metrics.  The
campaigns run on the acceptance suite's configurations: ``convergence`` on
criterion 10's data at dt = 0.02 (so its dt/8 reference is criterion 10's
dt = 0.0025), ``tstar`` on criterion 3's and ``two-time-bh`` on criterion 4's.

"Stepper" defects patch only ``_Stepper``; "shared" defects patch a table
builder that the stepper and the Picard oracle both read.  The oracle is
independent of the stepper's stages, not of its symbols, so the shared
defects pass ``convergence`` and are caught by the physics campaigns.
"""

import numpy as np
import pytest

from fkdvlab import InitialCondition, SimConfig
from fkdvlab import solver
from fkdvlab.experiments import run_convergence, run_tstar, run_two_time_bh

REF = dict(dt=1e-3, t_final=1.0, n=4096, length=200.0, diag_every=100)
CONVERGENCE = SimConfig(alpha=0.5, ic=InitialCondition("gaussian", (0.1, 1.0, 0.0), True),
                        tail_tol=1.0, **{**REF, "dt": 0.02, "t_final": 0.5})
TSTAR = SimConfig(alpha=0.5, ic=InitialCondition("odd_gaussian", (-4.0, 1.0)),
                  tail_tol=1e-6, **{**REF, "t_final": 3.0})
TWO_TIME = SimConfig(alpha=-1.0, ic=InitialCondition("odd_gaussian", (0.5, 1.0)),
                     tail_tol=1e-5, **REF)

CAMPAIGNS = {
    "convergence": lambda: run_convergence(CONVERGENCE),
    "tstar": lambda: run_tstar(TSTAR),
    "two-time-bh": lambda: run_two_time_bh(TWO_TIME, 0.5, 1.0),
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


def _shared(name, change):
    def plant(monkeypatch):
        build = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args: change(build, *args))
    return plant


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
