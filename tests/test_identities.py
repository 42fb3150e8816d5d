"""The acceptance identities on generated configs, each read from the rows
that ``run`` writes (``scenarios.table``) rather than from a second copy of
the formula.  The Hypothesis profile in ``conftest.py`` draws the same
cases on every run."""

import math

from hypothesis import assume, given, settings, strategies as st

from qubitfr import scenarios

# The worst relative deviation over the 400 draws below is 7.1e-14, at
# beta omega0 = 637; the bound leaves 14x headroom.
CLOSED_CYCLE_RTOL = 1e-12
# The worst |first_law_residual| over the 400 draws below is 4.6e-16
# omega0, at beta omega0 = 0.81; the bound leaves 21x headroom.
FIRST_LAW_TOL = 1e-14


@settings(max_examples=400)
@given(omega0=st.floats(1e-3, 1.0), tau_a=st.floats(10.0, 2000.0),
       tau=st.floats(10.0, 2000.0), p_absorb=st.floats(0.0, 1.0),
       beta_omega0=st.floats(-700.0, 700.0), n_pulses=st.integers(1, 40))
def test_closed_cycle_identity_on_unital_channels(omega0, tau_a, tau, p_absorb,
                                                  beta_omega0, n_pulses):
    """With no pump the channel is unital, so <exp(-beta dE)> = Z(t_f)/Z(0)
    holds exactly on the amplitude drive, up to |beta omega0| = 700."""
    try:
        res = scenarios.resolve(scenarios.ScenarioConfig(
            name="case", kind="fr", drive_family="amplitude", omega0=omega0,
            tau_a=tau_a, tau=tau, beta=beta_omega0 / omega0, p_absorb=p_absorb,
            p_pump=0.0, t_f_grid=scenarios.linspace(0.0, n_pulses * tau, 17)))
    except scenarios.ConfigError:
        assume(False)
    header, rows = scenarios.table(res)
    target, deviation = header.index("fr_target"), header.index("fr_deviation")
    worst = max(row[deviation] / row[target] for row in rows)
    assert worst <= CLOSED_CYCLE_RTOL, worst


@settings(max_examples=400)
@given(omega0=st.floats(1e-3, 1.0), tau_a=st.floats(10.0, 2000.0),
       tau=st.floats(10.0, 2000.0), p_absorb=st.floats(0.0, 1.0),
       p_pump=st.floats(0.0, 1.0), beta_omega0=st.floats(-700.0, 700.0),
       n_pulses=st.integers(1, 40))
def test_first_law_on_the_amplitude_drive(omega0, tau_a, tau, p_absorb, p_pump,
                                          beta_omega0, n_pulses):
    """<dE> = <W> + <Q> on the amplitude drive for any pump, up to
    |beta omega0| = 700: the residual ``run`` writes, in omega0."""
    try:
        res = scenarios.resolve(scenarios.ScenarioConfig(
            name="case", kind="energetics", drive_family="amplitude",
            omega0=omega0, tau_a=tau_a, tau=tau, beta=beta_omega0 / omega0,
            p_absorb=p_absorb, p_pump=p_pump,
            t_f_grid=scenarios.linspace(0.0, n_pulses * tau, 17)))
    except scenarios.ConfigError:
        assume(False)
    header, rows = scenarios.table(res)
    residual = header.index("first_law_residual")
    worst = max(abs(row[residual]) for row in rows)
    assert worst <= FIRST_LAW_TOL, worst
