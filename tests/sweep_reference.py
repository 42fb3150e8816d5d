"""Independent per-point reference for the deterministic sweep.

Every grid point rebuilds all of its period rotations and walks its own
pulse train from t = 0, one basis state at a time, as the engine did
before sweeps shared one train, and never stops early.  It costs
O(grid x N) and shares no propagation code with
``qubitfr.protocol.pulse_train``: it takes only the period rotations from
the package (the sweep's ``periods``); ``tail_rotation`` builds each tail
alone with the reference's own ``bloch_rotation``, ``pulse`` is its own
copy of the pulse arithmetic, and ``matvec`` its own copy of the rotation
product, each in the package's expression order.  So exact equality
between the two is a meaningful check of the shared-prefix bookkeeping
(pulse counts, tail rotations and their composition, final bases), of the
train's stop at an exact repeat, and of the pulse and product arithmetic
itself.  Its Bloch vectors are local float triples (``triple``), and
``upper_population`` is its own copy of the package's measurement
arithmetic.  Each function takes one run, a one-time ``Sweep``, and reads
only its fields, ``n_pulses`` and ``periods``, never its ``counts`` or
``tails``.

``work_heat_series_amplitude`` is the per-config work and heat series
of the fixed-axis drive as the package evaluated it before a sweep shared
its pulse terms: every config sums its own terms from pulse 1, so the
sweep form must match it bit for bit.

``axis_angle`` and ``bloch_rotation`` are the numpy array-expression
rotation builder the package used before it built each matrix element by
element; the element-wise builder must match them bit for bit.  Their
3x3 products go through ``matmul``, not numpy's ``@``: the package sums
each element left to right over k, while a BLAS kernel may sum in
another order or fuse a multiply and an add, differently on each host.
"""

import math

import numpy as np

from qubitfr.channel import PulseChannelParams
from qubitfr.core import (AmplitudeModulatedDrive, _rot_z, gibbs_population,
                          phase_integral, whole_multiple)
from qubitfr.protocol import ConditionalMatrix, Sweep


def tail_rotation(config: Sweep):
    """The drive rotation over (N tau, t_f) after the last pulse, built
    alone by the reference's own ``bloch_rotation``; the identity when t_f
    lands on the last pulse."""
    t_last, t_f = config.n_pulses * config.tau, config.times[0]
    if t_f > t_last:
        return bloch_rotation(config.drive, t_last, t_f)
    return np.eye(3)


def matvec(m, v) -> np.ndarray:
    """m v, each element summed left to right: m[i, 0] v[0] + m[i, 1] v[1]
    + m[i, 2] v[2]."""
    m = np.asarray(m)
    return np.array([m[i, 0] * v[0] + m[i, 1] * v[1] + m[i, 2] * v[2]
                     for i in range(3)])


def matmul(a, b) -> np.ndarray:
    """a b, each element summed left to right over k."""
    b = np.asarray(b)
    return np.array([matvec(a, b[:, j]) for j in range(3)]).T


def axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    kx, ky, kz = axis
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(axis, axis)


def bloch_rotation(drive, t0: float, t1: float) -> np.ndarray:
    """``qubitfr.core.bloch_rotation`` on top of ``axis_angle``."""
    if isinstance(drive, AmplitudeModulatedDrive):
        angle = phase_integral(drive, t1) - phase_integral(drive, t0)
        return axis_angle(np.array([1.0, 0.0, 0.0]), angle)
    e = 2.0 * drive.e_theta
    axis = np.array([drive.omega0 / e, 0.0, -drive.theta / e])
    inner = axis_angle(axis, 2.0 * drive.e_theta * (t1 - t0))
    tau = drive.tau_theta
    if whole_multiple(t0, tau) is not None and whole_multiple(t1, tau) is not None:
        return inner
    return matmul(matmul(_rot_z(drive.theta * t1), inner), _rot_z(-drive.theta * t0))


def pulse(r: np.ndarray, channel: PulseChannelParams) -> np.ndarray:
    """Ensemble-averaged action of one pulse: z-coherences erased and the
    populations pumped toward |0>, with probability p_absorb."""
    rx, ry, rz = r
    pa, pd = channel.p_absorb, channel.p_pump
    rz_pumped = rz + pd * (1.0 - rz)
    return np.array([(1.0 - pa) * rx, (1.0 - pa) * ry,
                     (1.0 - pa) * rz + pa * rz_pumped])


def triple(r) -> tuple[float, float, float]:
    """The Bloch vector r as three floats; asserts that it lies in the ball."""
    rx, ry, rz = (float(v) for v in r)
    assert math.sqrt(rx * rx + ry * ry + rz * rz) <= 1.0 + 1e-12, (rx, ry, rz)
    return rx, ry, rz


def upper_population(r, axis) -> float:
    """(1 + r . u)/2, the weight of Bloch vector r on the pure state u."""
    (rx, ry, rz), (ux, uy, uz) = triple(r), axis
    return 0.5 * (1.0 + (rx * ux + ry * uy + rz * uz))


def propagate_mean(config: Sweep, start) -> tuple[float, float, float]:
    """Ensemble-averaged Bloch vector at t_f from the given vector at 0."""
    r = np.array(start)
    for rot in config.periods:
        r = pulse(matvec(rot, r), config.channel)
    return triple(matvec(tail_rotation(config), r))


def mean_trajectory(config: Sweep,
                    start) -> list[tuple[float, tuple[float, float, float]]]:
    """Post-pulse snapshots (t_n, r_n) for n = 0..N plus the final vector."""
    out = [(0.0, triple(start))]
    r = np.array(start)
    for n, rot in enumerate(config.periods, start=1):
        r = pulse(matvec(rot, r), config.channel)
        out.append((n * config.tau, triple(r)))
    t_f = config.times[0]
    if t_f > config.n_pulses * config.tau:
        out.append((t_f, triple(matvec(tail_rotation(config), r))))
    return out


def bloch_row_snapshots(header, rows, label) -> list[tuple[float, tuple]]:
    """One start's rows of a bloch scenario's table read back in the shape
    of ``mean_trajectory``: the first row (t = 0), every post-pulse row
    between, and the last row, which holds the final vector whether or not
    a pulse fired at it."""
    col = {name: i for i, name in enumerate(header)}
    own = [row for row in rows if row[col["initial_state"]] == label]
    kept = (own[:1] + [row for row in own[1:-1] if row[col["post_pulse"]]]
            + own[1:][-1:])
    return [(row[col["t_f_ns"]], tuple(row[col["rx"]:col["rz"] + 1]))
            for row in kept]


def conditional_matrix(config: Sweep) -> ConditionalMatrix:
    """Transition probabilities within the drive's measured basis, from 0 to t_f."""
    up, down = config.drive.basis
    cols = [upper_population(propagate_mean(config, initial), up)
            for initial in (up, down)]
    return ConditionalMatrix.from_upper_row(cols[0], cols[1])


def work_heat_series_amplitude(config: Sweep) -> tuple[float, float]:
    """Exact (mean work, mean heat) of the fixed-axis drive up to t_f:
    pulse n's work and heat terms summed with ``math.fsum`` from n = 1, and
    the work of the partial interval after the last pulse added."""
    drive = config.drive
    t_f, tau, n_pulses = config.times[0], config.tau, config.n_pulses
    pa = config.channel.p_absorb
    d0 = 1.0 - 2.0 * gibbs_population(config.thermal.beta, drive, 0.0)

    per_w = math.fsum(0.5 * (drive.omega((n - 1) * tau) - drive.omega(n * tau))
                      * (1.0 - pa) ** (n - 1) * d0
                      for n in range(1, n_pulses + 1))
    per_q = math.fsum(0.5 * drive.omega(n * tau) * pa * (1.0 - pa) ** (n - 1) * d0
                      for n in range(1, n_pulses + 1))
    tail = -0.5 * (1.0 - pa) ** n_pulses * d0 * (drive.omega(t_f)
                                                 - drive.omega(n_pulses * tau))
    return per_w + tail, per_q
