"""Bloch-vector model of a periodically driven two-level system.

States are Bloch vectors r = (rx, ry, rz) of the density operator
rho = (I + r . sigma)/2, held as three floats (there is no state class),
with |0> at the north pole (rz = +1) and |1> at the south pole.  Units:
hbar = 1, time in ns, angular frequencies in rad/ns, so energies are in
rad/ns as well.

Two drive families are supported:

* ``AmplitudeModulatedDrive`` -- H(t) = omega(t)/2 * sigma_x with
  omega(t) = omega0/2 * (1 + cos^2(pi t / tau_a)).  The drive axis is
  fixed, so propagation reduces to a rotation about +x by the accumulated
  phase integral of omega(t).

* ``PhaseRotatingDrive`` -- H(t) = omega0/2 * (sigma_x cos(theta t) +
  sigma_y sin(theta t)).  In the frame co-rotating at theta the generator
  is time independent with splitting 2*e_theta = sqrt(omega0^2 + theta^2),
  and propagation over any window composes two z-rotations with a single
  rotation about the dressed axis.

Each drive holds the basis the protocol measures in, fixed in time, as
``basis`` (upper and lower unit Bloch vectors) and the upper level's energy
as ``level(t)``; the lower level sits at minus it.

Everything here is closed form; no differential-equation stepping is used
anywhere in the package.  Rotations are 3x3 tuples of floats, multiplied
by ``matmul3`` and ``matvec3`` in their written order, so every product
rounds the same on every host.  A list of times is taken in one pass,
with the one-time form its case: ``interval_rotations`` over intervals
between given times (``bloch_rotations`` between consecutive ones,
``bloch_rotation`` over one), ``whole_multiples``, ``phase_integrals``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

BLOCH_NORM_TOL = 1e-12

# Relative slack used to recognise a time as a whole multiple of a period.
WHOLE_MULTIPLE_RTOL = 1e-9


def check_bloch_vector(rx: float, ry: float, rz: float) -> None:
    """Raise ValueError unless (rx, ry, rz) is finite and lies in the unit
    ball, up to BLOCH_NORM_TOL."""
    n = math.sqrt(rx * rx + ry * ry + rz * rz)
    if not math.isfinite(n) or n > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector ({rx}, {ry}, {rz}) "
                         f"has norm {n!r}, outside the unit ball")


class Value:
    """Immutable record.  Each subclass's ``__init__`` sets its fields in
    order with one ``self.__dict__.update``, then validates them, and may
    then add values derived from them.  Records are equal when their types
    and held values are; the hash is that of the held values in order."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.fields())
        return f"{type(self).__qualname__}({args})"

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        """Field names, in order: the parameters of ``__init__``."""
        code = cls.__init__.__code__
        return code.co_varnames[1:code.co_argcount]

    def replace(self, **changes) -> Value:
        """A copy with some fields changed; ``__init__`` validates it again."""
        return type(self)(**{**{k: getattr(self, k) for k in self.fields()}, **changes})


class AmplitudeModulatedDrive(Value):
    """Fixed-axis sigma_x drive with a periodically modulated rate.

    omega(t) = omega0/2 * (1 + cos^2(pi t / tau_a)); omega(0) = omega0 and
    omega(tau_a / 2) = omega0 / 2.  ``tau_a`` is the modulation period in ns.
    """

    # (upper, lower) unit Bloch vectors; written out so the zeros are +0.0.
    basis = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))

    def __init__(self, omega0: float, tau_a: float) -> None:
        self.__dict__.update(omega0=omega0, tau_a=tau_a)
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not (self.tau_a > 0 and math.isfinite(self.tau_a)):
            raise ValueError(f"tau_a must be positive, got {self.tau_a}")

    def omega(self, t: float) -> float:
        c = math.cos(math.pi * t / self.tau_a)
        return 0.5 * self.omega0 * (1.0 + c * c)

    def level(self, t: float) -> float:
        """Energy of the upper level at time t; the lower one is its negative."""
        return 0.5 * self.omega(t)


class PhaseRotatingDrive(Value):
    """Constant-amplitude drive whose axis rotates in the equator at rate theta."""

    def __init__(self, omega0: float, theta: float) -> None:
        self.__dict__.update(omega0=omega0, theta=theta)
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not (self.theta > 0 and math.isfinite(self.theta)
                and math.isfinite(self.tau_theta)):
            raise ValueError(f"theta = {self.theta!r} must be positive, with a "
                             f"finite period 2 pi / theta")
        check_bloch_vector(*self.basis[0])  # the lower axis has the same norm

    @property
    def tau_theta(self) -> float:
        """Rotation period 2*pi/theta of the drive axis (ns)."""
        return 2.0 * math.pi / self.theta

    @property
    def alpha(self) -> float:
        """Dressing angle -arctan(omega0/theta), stored signed (negative)."""
        return -math.atan2(self.omega0, self.theta)

    @property
    def e_theta(self) -> float:
        """Quasi-energy sqrt(omega0^2 + theta^2)/2 of the dressed levels."""
        return 0.5 * math.hypot(self.omega0, self.theta)

    @property
    def gap(self) -> float:
        return 2.0 * self.e_theta

    @property
    def basis(self) -> tuple[Vector, Vector]:
        """(upper, lower) unit Bloch vectors k and -k, k the dressed axis; k_z < 0
        puts the upper level opposite the pump target |0>."""
        kx, ky, kz = self.omega0 / self.gap, 0.0, -self.theta / self.gap
        return (kx, ky, kz), (-kx, -ky, -kz)

    def level(self, t: float) -> float:
        """Energy e_theta of the upper level, the same at every t."""
        return self.e_theta


DriveSpec = AmplitudeModulatedDrive | PhaseRotatingDrive


class ThermalContext(Value):
    """Inverse temperatures entering the exchange bookkeeping.

    ``beta`` weights the initial two-outcome measurement; ``beta_r`` is the
    effective inverse temperature assigned to the dissipative pulse train
    (zero for a pulse train that drives the populations to 1/2).
    """

    def __init__(self, beta: float, beta_r: float = 0.0) -> None:
        self.__dict__.update(beta=beta, beta_r=beta_r)
        if not math.isfinite(self.beta) or not math.isfinite(self.beta_r):
            raise ValueError("temperatures must be finite")


def phase_integrals(drive: AmplitudeModulatedDrive, times: Sequence[float]) -> list[float]:
    """Rotation angle int_0^t omega(t') dt' accumulated by the fixed-axis
    drive at each of ``times``, in one pass.

    Closed form, the antiderivative of omega that is exactly 0.0 at t = 0:
    (omega0/2) * [ (3/2) t + (tau_a / 4 pi) sin(2 pi t / tau_a) ].  The
    angle over [t0, t1] is the difference of the two values.
    """
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("phase_integral is defined for the amplitude-modulated drive")
    half, scale = 0.5 * drive.omega0, drive.tau_a / (4.0 * math.pi)
    tau_a, two_pi, sin = drive.tau_a, 2.0 * math.pi, math.sin
    return [half * (1.5 * t + scale * sin(two_pi * t / tau_a)) for t in times]


def phase_integral(drive: AmplitudeModulatedDrive, t: float) -> float:
    """``phase_integrals`` at one time."""
    return phase_integrals(drive, (t,))[0]


Vector = tuple[float, float, float]
Matrix3 = tuple[Vector, Vector, Vector]
IDENTITY3: Matrix3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def matvec3(m: Matrix3, v) -> Vector:
    """Product m v; element i is m[i][0] v[0] + m[i][1] v[1] + m[i][2] v[2],
    summed left to right."""
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def matmul3(a: Matrix3, b: Matrix3) -> Matrix3:
    """Product a b, one ``matvec3`` per column of b."""
    return tuple(zip(*(matvec3(a, col) for col in zip(*b))))


def _axis_angle(kx: float, ky: float, kz: float, angle: float) -> Matrix3:
    """Rodrigues rotation matrix about the unit axis (kx, ky, kz).

    Element (i, j) is (c I_ij + s K_ij) + (1 - c) k_i k_j, K the cross-product
    matrix, in that order and with the zero terms kept, so every bit
    (signed zeros included) matches the array expression
    c * eye(3) + s * K + (1 - c) * outer(k, k).  Nothing is cached here;
    ``interval_rotations`` builds each distinct angle once per call.
    """
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    c0, s0 = c * 0.0, s * 0.0
    return (
        (c + s0 + t * (kx * kx), c0 + s * -kz + t * (kx * ky), c0 + s * ky + t * (kx * kz)),
        (c0 + s * kz + t * (ky * kx), c + s0 + t * (ky * ky), c0 + s * -kx + t * (ky * kz)),
        (c0 + s * -ky + t * (kz * kx), c0 + s * kx + t * (kz * ky), c + s0 + t * (kz * kz)),
    )


def _rot_z(angle: float) -> Matrix3:
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def whole_multiples(times: Sequence[float], tau: float) -> list[int | None]:
    """Per time, in one pass, the integer nearest t / tau if it lies within
    WHOLE_MULTIPLE_RTOL * max(1, |t / tau|) of it, else None; max is a branch."""
    return [n if abs(ratio - n) <= WHOLE_MULTIPLE_RTOL * (
                ratio if ratio > 1.0 else -ratio if ratio < -1.0 else 1.0) else None
            for t in times for ratio in [t / tau] for n in [round(ratio)]]


def whole_multiple(t: float, tau: float) -> int | None:
    """``whole_multiples`` at one time."""
    return whole_multiples((t,), tau)[0]


def interval_rotations(drive: DriveSpec, times: Sequence[float],
                       starts: Sequence[int], ends: Sequence[int]) -> list[Matrix3]:
    """3x3 rotations carrying Bloch vectors over intervals between ``times``
    under the drive: entry j carries times[starts[j]] to times[ends[j]].

    For the rotating-axis family each is assembled as
    R_z(theta * t1) . R_dressed(2 e_theta (t1 - t0)) . R_z(-theta * t0);
    when both endpoints are whole drive periods the outer z-rotations are
    dropped exactly instead of being evaluated at large arguments, and when
    all times are whole the axis rotations are returned as they are.  The
    rotating drive's constants are read once, the phases and whole-period
    tests are one pass over the times each, and each distinct angle's axis
    rotation (the dressed one before its z-rotations) is built once per
    call.
    """
    for a, b in zip(starts, ends):
        t0, t1 = times[a], times[b]
        if not -math.inf < t0 <= t1 < math.inf:  # NaN fails too
            raise ValueError(f"time interval must be finite and ordered: "
                             f"t0={t0!r}, t1={t1!r}")
    if isinstance(drive, AmplitudeModulatedDrive):
        axis = (1.0, 0.0, 0.0)
        phases = phase_integrals(drive, times)
        angles = [phases[b] - phases[a] for a, b in zip(starts, ends)]
    else:
        axis, gap = drive.basis[0], drive.gap
        angles = [gap * (times[b] - times[a]) for a, b in zip(starts, ends)]
    # Keyed on the exact angle.  +0.0 and -0.0 are one key, which is exact:
    # both build the identity with every off-diagonal element +0.0.
    memo = {a: _axis_angle(*axis, a) for a in set(angles)}
    rotations = [memo[a] for a in angles]
    if isinstance(drive, AmplitudeModulatedDrive):
        return rotations
    whole = [n is not None for n in whole_multiples(times, drive.tau_theta)]
    if all(whole):
        return rotations
    return [inner if whole[a] and whole[b] else
            matmul3(matmul3(_rot_z(drive.theta * times[b]), inner),
                    _rot_z(-drive.theta * times[a]))
            for inner, a, b in zip(rotations, starts, ends)]


def period_quaternion(drive: DriveSpec, tau: float) -> tuple[float, float, float, float]:
    """Unit quaternion (cos phi/2, sin phi/2 k) of ``bloch_rotation(drive, 0, tau)``,
    a turn by phi about the unit axis k; whole periods drop the z-turn by theta tau."""
    if not 0.0 <= tau < math.inf:  # NaN fails too, as in ``interval_rotations``
        raise ValueError(f"time interval must be finite and ordered: t0=0.0, t1={tau!r}")
    if isinstance(drive, AmplitudeModulatedDrive):
        half = 0.5 * phase_integral(drive, tau)
        return math.cos(half), math.sin(half), 0.0, 0.0
    (kx, _, kz), half = drive.basis[0], 0.5 * (drive.gap * tau)  # k_y = 0
    w, x, z = math.cos(half), math.sin(half) * kx, math.sin(half) * kz
    if whole_multiple(tau, drive.tau_theta) is not None:
        return w, x, 0.0, z
    cz, sz = math.cos(0.5 * (drive.theta * tau)), math.sin(0.5 * (drive.theta * tau))
    return cz * w - sz * z, cz * x, sz * x, cz * z + sz * w  # (cz, sz e_z) (w, x, 0, z)


def bloch_rotations(drive: DriveSpec, times: Sequence[float]) -> list[Matrix3]:
    """``interval_rotations`` between consecutive ``times``: entry j carries
    times[j] to times[j + 1]."""
    return interval_rotations(drive, times, range(len(times) - 1), range(1, len(times)))


def bloch_rotation(drive: DriveSpec, t0: float, t1: float) -> Matrix3:
    """3x3 rotation carrying Bloch vectors from time t0 to t1 under the drive."""
    return interval_rotations(drive, (t0, t1), (0,), (1,))[0]


def gibbs_population(beta: float, drive: DriveSpec, t: float) -> float:
    """Upper-level Gibbs weight exp(-beta level(t)) / Z at time t."""
    x = beta * (2.0 * drive.level(t))
    # Logistic form stable for any beta; exp never sees a positive argument.
    if x >= 0.0:
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


def free_energy_delta(beta: float, l0: float, lf: float) -> float:
    """Equilibrium free-energy change -ln(Z(t_f)/Z(0))/beta between 0 and
    t_f, from the upper level's energies l0 = level(0) and lf = level(t_f).

    The log ratio ln(cosh a / cosh b), a = beta lf and b = beta l0, is
    taken without cancellation: a - b is beta times the difference of the
    levels.  For |a|, |b| <= 1 it is log1p(2 sinh((a+b)/2) sinh((a-b)/2) /
    cosh b), exact to O(beta^2) where the ratio is near 1; above, it is
    ln cosh |a| - ln cosh |b| written as |a| - |b| plus
    log1p((e^-2|a| - e^-2|b|) / (1 + e^-2|b|)), which cannot overflow.
    """
    if beta == 0.0:
        raise ValueError("free energy difference is undefined at beta = 0")
    a, b = abs(beta * lf), abs(beta * l0)
    if max(a, b) <= 1.0:
        log_ratio = math.log1p(2.0 * math.sinh(0.5 * beta * (lf + l0))
                               * math.sinh(0.5 * beta * (lf - l0)) / math.cosh(b))
    else:
        edge = abs(beta) * (abs(lf) - abs(l0))  # |a| - |b|
        # e^-2|a| - e^-2|b| = sign(edge) e^-2 min(|a|, |b|) expm1(-2 |edge|)
        log_ratio = edge + math.log1p(
            math.copysign(math.exp(-2.0 * min(a, b)), edge)
            * math.expm1(-2.0 * abs(edge)) / (1.0 + math.exp(-2.0 * b)))
    return -log_ratio / beta
