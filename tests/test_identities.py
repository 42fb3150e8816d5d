"""The acceptance identities on generated configs, read from the rows that
``run`` writes (``scenarios.table``) wherever a CSV carries the number,
rather than from a second copy of the formula, ``free_energy_delta``
against a 60-digit ``mpmath`` reference, the channel fixed point and pump
inversion against a 50-digit one, the batched whole-period test and
amplitude phases against the rules they state, and the sampler's integer
bounds on raw Philox words against the uniforms they stand for.  The Hypothesis profile in
``conftest.py`` draws the same cases on every run."""

import math

import mpmath
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import numpy as np

from qubitfr import montecarlo, protocol, scenarios
from qubitfr.channel import (PulseChannelParams, invert_pump_probability,
                             stationary_upper_population)
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive, free_energy_delta,
                          phase_integral, phase_integrals, whole_multiple,
                          whole_multiples)

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
# draws of test_jensen_on_unital_channels is -5.4e-17, at a subnormal beta
# where both are round-off; over the 400 log-uniform draws of
# test_jensen_at_every_temperature_scale it is -1.4e-17, at beta omega0 = 63.
JENSEN_TOL = -1e-12
# The worst relative error of free_energy_delta over the 400 draws below is
# 5.1e-16, at beta omega0 = 1.0; the bound leaves 19x headroom.
FREE_ENERGY_RTOL = 1e-14
# The worst |plateau - reference| over the 300 draws below is 2.6e-16, and
# the worst miss of an inverted pump's reference plateau 2.6e-16 (147 phase
# draws), both at p_absorb = 3.3e-8 off a whole period; the bound leaves 38x
# headroom.  The Cramer's-rule solve it replaced missed by 2.3e-8 at the
# p_absorb = 1e-9 example and by 0.11 at 1e-15.
FIXED_POINT_TOL = 1e-14


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


def jensen_gap(omega0, tau_a, tau, p_absorb, beta_omega0, n_pulses):
    """min(mean_delta_e - delta_f), in omega0, over the rows ``run`` writes
    for an amplitude energetics config without pump on a 17-point grid."""
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
    return min(row[mean_de] - row[delta_f] for row in rows)


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
    worst = jensen_gap(omega0, tau_a, tau, p_absorb, beta_omega0, n_pulses)
    assert worst >= JENSEN_TOL, worst


@settings(max_examples=400)
@given(omega0=st.floats(1e-3, 1.0), tau_a=st.floats(10.0, 2000.0),
       tau=st.floats(10.0, 2000.0), p_absorb=st.floats(0.0, 1.0),
       log_beta_omega0=st.floats(-9.0, math.log10(700.0)),
       n_pulses=st.integers(1, 40))
@example(omega0=scenarios.AMPLITUDE_OMEGA0, tau_a=scenarios.AMPLITUDE_TAU_A,
         tau=410.0, p_absorb=0.25, log_beta_omega0=-7.0, n_pulses=2)
def test_jensen_at_every_temperature_scale(omega0, tau_a, tau, p_absorb,
                                           log_beta_omega0, n_pulses):
    """The Jensen bound of ``test_jensen_on_unital_channels`` with beta
    omega0 drawn log-uniformly over [1e-9, 700], where ``delta_f`` is
    O(beta) times a ratio 1 + O(beta^2).  The example is fig3a at beta
    omega0 = 1e-7 over its first 17 grid points, which hold its worst row."""
    worst = jensen_gap(omega0, tau_a, tau, p_absorb, 10.0 ** log_beta_omega0,
                       n_pulses)
    assert worst >= JENSEN_TOL, worst


def free_energy_reference(beta, drive, t_f):
    """-ln(cosh(beta level(t_f)) / cosh(beta level(0))) / beta to 60 digits,
    taking ``beta`` and the two float levels as exact."""
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        ratio = (mpmath.cosh(b * mpmath.mpf(drive.level(t_f)))
                 / mpmath.cosh(b * mpmath.mpf(drive.level(0.0))))
        return -mpmath.log(ratio) / b


@settings(max_examples=400)
@given(omega0=st.floats(1e-3, 1.0), tau_a=st.floats(10.0, 2000.0),
       periods=st.floats(0.0, 40.0), sign=st.sampled_from([1.0, -1.0]),
       log_beta_omega0=st.floats(-9.0, math.log10(709.0)))
@example(omega0=scenarios.AMPLITUDE_OMEGA0, tau_a=scenarios.AMPLITUDE_TAU_A,
         periods=1.0 / 3.0, sign=1.0, log_beta_omega0=-7.0)
def test_free_energy_delta_against_a_60_digit_reference(omega0, tau_a, periods,
                                                        sign, log_beta_omega0):
    """``free_energy_delta`` on the amplitude drive, both signs of beta and
    1e-9 <= |beta| omega0 <= 709, to FREE_ENERGY_RTOL of the reference
    (exactly zero where the level is the same at both times)."""
    drive = AmplitudeModulatedDrive(omega0, tau_a)
    beta = sign * 10.0 ** log_beta_omega0 / omega0
    got = free_energy_delta(beta, drive.level(0.0), drive.level(periods * tau_a))
    expected = free_energy_reference(beta, drive, periods * tau_a)
    assert abs(got - expected) <= FREE_ENERGY_RTOL * abs(expected), (got, expected)


def period_rotation_reference(drive, tau):
    """``bloch_rotation(drive, 0, tau)`` in 50 digits, Rodrigues' formula on
    the float angles and axes it turns by, taken as exact."""
    def turn(axis, angle):
        kx, ky, kz = (x / mpmath.norm(axis) for x in axis)
        k = mpmath.matrix([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
        return mpmath.eye(3) + mpmath.sin(angle) * k + (1 - mpmath.cos(angle)) * k * k
    if isinstance(drive, AmplitudeModulatedDrive):
        return turn([1, 0, 0], mpmath.mpf(phase_integral(drive, tau)))
    rot = turn([mpmath.mpf(x) for x in drive.basis[0]], mpmath.mpf(drive.gap * tau))
    if whole_multiple(tau, drive.tau_theta) is None:
        rot = turn([0, 0, 1], mpmath.mpf(drive.theta * tau)) * rot
    return rot


def plateau_reference(drive, p_absorb, p_pump, tau):
    """Upper population at the fixed point r of the period map, from an LU
    solve of (I - A R) r = b in 50 digits, read along the float up-axis."""
    with mpmath.workdps(50):
        pa, pd = mpmath.mpf(p_absorb), mpmath.mpf(p_pump)
        lin = mpmath.diag([1 - pa, 1 - pa, 1 - pa * pd]) * period_rotation_reference(drive, tau)
        r = mpmath.lu_solve(mpmath.eye(3) - lin, mpmath.matrix([0, 0, pa * pd]))
        ux, uy, uz = drive.basis[0]
        return (1 + ux * r[0] + uy * r[1] + uz * r[2]) / 2


@settings(max_examples=300)
@given(phase=st.booleans(), period=st.floats(100.0, 2000.0),
       whole=st.integers(1, 5), extra=st.sampled_from([0.0, 0.25, 0.5, 0.9]),
       log_p_absorb=st.floats(-15.0, 0.0), p_pump=st.floats(0.01, 0.99))
@example(phase=True, period=616.0, whole=1, extra=0.0, log_p_absorb=-9.0,
         p_pump=0.44987216831849014)
def test_channel_fixed_point_against_a_50_digit_reference(phase, period, whole, extra,
                                                          log_p_absorb, p_pump):
    """The plateau at p_absorb log-uniform over [1e-15, 1], on both drive
    families with tau on and off whole periods, and on the phase drive the
    round trip through ``invert_pump_probability``, to FIXED_POINT_TOL of the
    reference.  The amplitude drive's plateau is 1/2 at every pump (its
    fixed point is normal to the x axis it turns about), so only the phase
    drive has a pump to invert.  The example is ``invert --target 0.138
    --tau-theta 616 --p-absorb 1e-9``."""
    drive = (PhaseRotatingDrive(scenarios.PHASE_OMEGA0, 2.0 * math.pi / period) if phase
             else AmplitudeModulatedDrive(scenarios.AMPLITUDE_OMEGA0, period))
    tau = (whole + extra) * (drive.tau_theta if phase else period)
    p_absorb = 10.0 ** log_p_absorb
    got = stationary_upper_population(drive, PulseChannelParams(p_absorb, p_pump), tau)
    expected = plateau_reference(drive, p_absorb, p_pump, tau)
    assert abs(got - expected) <= FIXED_POINT_TOL, (got, expected)
    if phase:
        target = float(expected)
        inverted = invert_pump_probability(drive, p_absorb, tau, target)
        miss = plateau_reference(drive, p_absorb, inverted, tau) - target
        assert abs(miss) <= FIXED_POINT_TOL, (inverted, p_pump, miss)


def whole_rule(t, tau):
    """The whole-period rule: t / tau lies within 1e-9 max(1, |t / tau|) of
    its nearest integer."""
    r = t / tau
    return abs(r - round(r)) <= 1e-9 * max(1, abs(r))


def phase_rule(omega0, tau_a, t):
    """The amplitude drive's phase integral, (omega0/2) [(3/2) t + (tau_a /
    4 pi) sin(2 pi t / tau_a)], in the order the package evaluates it."""
    return 0.5 * omega0 * (1.5 * t + (tau_a / (4.0 * math.pi))
                           * math.sin(2.0 * math.pi * t / tau_a))


# A ratio t / tau near an edge of the whole-period test: n (1 +- 1e-9), the
# absolute floor +-1e-9, anything with |r| <= 1, or any n + fraction.
RATIOS = (st.builds(lambda n, s: n * (1.0 + s * 1e-9), st.integers(-10**6, 10**6),
                    st.sampled_from([1.0, -1.0]))
          | st.sampled_from([1e-9, -1e-9])
          | st.floats(-1.0, 1.0)
          | st.builds(lambda n, f: n + f, st.integers(0, 10**4), st.floats(0.0, 1.0)))


def nudged(t, ulps):
    """t moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return t


@settings(max_examples=400)
@given(tau=st.floats(1e-3, 1e4), omega0=st.floats(1e-3, 1.0),
       tau_a=st.floats(10.0, 2000.0),
       points=st.lists(st.tuples(RATIOS, st.integers(-4, 4)), min_size=1, max_size=8),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       at=st.integers(0, 8))
@example(tau=410.0, omega0=0.005, tau_a=616.0, points=[(1e-9, 1), (1e-9, -1), (-1e-9, -1)],
         bad=None, at=0)
def test_time_lists_follow_the_one_time_rules(tau, omega0, tau_a, points, bad, at):
    """``whole_multiples`` on generated times with ratios within a few ulps of
    the test's edges is the rule, with the nearest integer where it holds,
    and equals ``whole_multiple`` time by time; ``phase_integrals`` is the
    closed form bit for bit.  A NaN or infinite time raises what the
    one-time forms raise: ValueError or OverflowError for the whole test,
    ValueError for an infinite phase, whose NaN phase is NaN."""
    times = [nudged(r * tau, ulps) for r, ulps in points]
    expected = [round(t / tau) if whole_rule(t, tau) else None for t in times]
    if any(whole_rule(nudged(t, -4), tau) != whole_rule(nudged(t, 4), tau) for t in times):
        event("a time within 4 ulps of the test's edge")
    drive = AmplitudeModulatedDrive(omega0, tau_a)
    if bad is None:
        assert whole_multiples(times, tau) == expected
        assert [whole_multiple(t, tau) for t in times] == expected
        assert [repr(x) for x in phase_integrals(drive, times)] == [
            repr(phase_rule(omega0, tau_a, t)) for t in times]
        return
    times.insert(at, bad)
    error = ValueError if math.isnan(bad) else OverflowError
    with pytest.raises(error):
        whole_multiples(times, tau)
    with pytest.raises(error):
        whole_multiple(bad, tau)
    if math.isnan(bad):
        assert math.isnan(phase_integrals(drive, times)[min(at, len(times) - 1)])
        assert math.isnan(phase_integral(drive, bad))
    else:
        with pytest.raises(ValueError):
            phase_integrals(drive, times)
        with pytest.raises(ValueError):
            phase_integral(drive, bad)


# Probabilities at the edges of the uniforms' grid k * 2**-53, and the z of
# Born values 0.5 * (1 + z) at 2.2e-16 either side of 0 and of 1.
EDGE_PROBABILITIES = [0.0, 5e-324, 2.0**-53, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0]
EDGE_BORN_Z = [2.0 * p - 1.0 for p in EDGE_PROBABILITIES] + [
    -1.0 - 4.4e-16, -1.0 + 4.4e-16, 1.0 - 4.4e-16, 1.0 + 4.4e-16]
RAW_WORDS = st.lists(st.integers(0, 2**64 - 1), max_size=4)


def edge_examples(name, values):
    """Hypothesis ``example``s putting each of ``values`` under ``name``."""
    def decorate(test):
        for value in values:
            test = example(**{name: value, "extra": []})(test)
        return test
    return decorate


def words_around(p, extra):
    """Raw words at the bound t * 2**11 of p's t = ceil(p * 2**53) and on
    either side of it, the extreme words, and ``extra``, as uint64; with
    the uniform comparison (w >> 11) * 2**-53 < p of each."""
    t = math.ceil(p * 2**53)
    words = [w for w in (t * 2**11 - 1, t * 2**11, 0, 2**64 - 1, *extra) if 0 <= w < 2**64]
    return np.array(words, dtype=np.uint64), [(w >> 11) * 2.0**-53 < p for w in words]


@edge_examples("p", EDGE_PROBABILITIES)
@given(p=st.sampled_from(EDGE_PROBABILITIES) | st.floats(0.0, 1.0), extra=RAW_WORDS)
def test_scalar_word_bounds_are_the_uniform_comparisons(p, extra):
    """The absorption and pump test of a raw word is its uniform below p."""
    words, expected = words_around(p, extra)
    assert montecarlo._below(p)(words).tolist() == expected


@edge_examples("z", EDGE_BORN_Z)
@given(z=st.sampled_from(EDGE_BORN_Z) | st.floats(-1.0 - 1e-15, 1.0 + 1e-15), extra=RAW_WORDS)
def test_born_word_bounds_are_the_uniform_comparisons(z, extra):
    """The outcome and final-measurement test, top bits w >> 11 below the
    bound of z, is the uniform below the Born value 0.5 * (1 + z)."""
    words, expected = words_around(0.5 * (1.0 + z), extra)
    top_bits = np.right_shift(words, montecarlo.SHIFT).view(np.int64)
    bounds = montecarlo._born_bounds(np.full(len(words), z))
    assert (top_bits < bounds).tolist() == expected
