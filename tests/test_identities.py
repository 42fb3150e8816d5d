"""The acceptance identities on generated configs, read from the rows that
``run`` writes (``scenarios.table``) wherever a CSV carries the number,
rather than from a second copy of the formula.  The Hypothesis profile in
``conftest.py`` draws the same cases on every run."""

import math

from hypothesis import assume, event, given, settings, strategies as st

from qubitfr import protocol, scenarios

# The worst relative deviation over the 400 draws below is 7.1e-14, at
# beta omega0 = 637; the bound leaves 14x headroom.
CLOSED_CYCLE_RTOL = 1e-12
# The worst |first_law_residual| over the 400 draws below is 4.6e-16
# omega0, at beta omega0 = 0.81; the bound leaves 21x headroom.
FIRST_LAW_TOL = 1e-14
# The worst |value - 1| over the 400 draws below is 8.3e-14, at
# (beta - beta_r) gap = 695, about the rounding of an exponent that size;
# the bound leaves 12x headroom.  3 draws fail to resolve and none is
# dropped for an exponent past MAX_EXP_ARG (``--hypothesis-show-statistics``
# counts both).  Computing the lower Gibbs weight as 1 - g fails it (3.9e-12).
EXCHANGE_TOL = 1e-12
# Criterion 8's bound on <dE> - dF, in omega0.  The minimum over the 400
# draws below is -6.9e-17, where an upper Gibbs weight near e^-550 leaves
# only round-off.
JENSEN_TOL = -1e-12


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


@settings(max_examples=400)
@given(omega0=st.floats(1e-3, 1.0), theta=st.floats(1e-3, 1.0),
       tau=st.floats(10.0, 2000.0), p_absorb=st.floats(0.0, 1.0),
       p_pump=st.floats(0.0, 1.0), beta_gap=st.floats(-700.0, 700.0),
       n_pulses=st.integers(1, 30))
def test_exchange_identity_at_the_matrix_stationary_weight(
        omega0, theta, tau, p_absorb, p_pump, beta_gap, n_pulses):
    """<exp(-(beta - beta_r) dE)> = 1 on the phase drive when beta_r is the
    Gibbs temperature of the n-pulse matrix's own stationary weight: the
    dressed levels do not move, so the sum telescopes through the matrix's
    fixed point.  No CSV column carries this beta_r (``fr`` rows take the
    channel's), so the value comes from the ``protocol`` functions."""
    try:
        res = scenarios.resolve(scenarios.ScenarioConfig(
            name="case", kind="fr", drive_family="phase", omega0=omega0,
            theta=theta, tau=tau, beta=beta_gap / math.hypot(omega0, theta),
            p_absorb=p_absorb, p_pump=p_pump, t_f_grid=(0.0, n_pulses * tau)))
    except scenarios.ConfigError:
        assume(False)
    pc = res.protocol_at(n_pulses * tau)
    cm = protocol.conditional_matrix(pc)
    try:
        beta_r = protocol.beta_reservoir(protocol.conditional_fixed_point(cm),
                                         res.drive.gap)
    except ValueError:  # no mixing, or a stationary weight of 0 or 1
        assume(False)
    gamma = res.thermal.beta - beta_r
    if abs(gamma) * res.drive.gap > scenarios.MAX_EXP_ARG:
        event("dropped: (beta - beta_r) gap past MAX_EXP_ARG")
        assume(False)
    value = protocol.fr_functional(protocol.energy_change_distribution(cm, pc),
                                   gamma)
    assert abs(value - 1.0) <= EXCHANGE_TOL, value


@settings(max_examples=400)
@given(omega0=st.floats(1e-3, 1.0), tau_a=st.floats(10.0, 2000.0),
       tau=st.floats(10.0, 2000.0), p_absorb=st.floats(0.0, 1.0),
       beta_omega0=st.floats(0.0, 700.0, exclude_min=True),
       n_pulses=st.integers(1, 40))
def test_jensen_on_unital_channels(omega0, tau_a, tau, p_absorb, beta_omega0,
                                   n_pulses):
    """<dE> >= dF for beta > 0 on the amplitude drive without pump: the
    channel is unital, so <exp(-beta dE)> = exp(-beta dF), and Jensen's
    inequality gives the bound.  Criterion 8's tolerance, in omega0."""
    try:
        res = scenarios.resolve(scenarios.ScenarioConfig(
            name="case", kind="energetics", drive_family="amplitude",
            omega0=omega0, tau_a=tau_a, tau=tau, beta=beta_omega0 / omega0,
            p_absorb=p_absorb, p_pump=0.0,
            t_f_grid=scenarios.linspace(0.0, n_pulses * tau, 17)))
    except scenarios.ConfigError:
        assume(False)
    header, rows = scenarios.table(res)
    mean_de, delta_f = header.index("mean_delta_e"), header.index("delta_f")
    worst = min(row[mean_de] - row[delta_f] for row in rows)
    assert worst >= JENSEN_TOL, worst
