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
rounds the same on every host.
"""

from __future__ import annotations

import functools
import math
import struct

BLOCH_NORM_TOL = 1e-12

# Relative slack used to recognise a time as a whole multiple of a period.
WHOLE_MULTIPLE_RTOL = 1e-9

# Cache key of a rotation: the bits of (kx, ky, kz, angle).
_ROTATION_KEY = struct.Struct("<4d")


def check_bloch_vector(rx: float, ry: float, rz: float) -> None:
    """Raise ValueError unless (rx, ry, rz) is finite and lies in the unit
    ball, up to BLOCH_NORM_TOL."""
    n = math.sqrt(rx * rx + ry * ry + rz * rz)
    if not math.isfinite(n) or n > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector ({rx}, {ry}, {rz}) "
                         f"has norm {n!r}, outside the unit ball")


def population_along(r, axis: tuple[float, float, float]) -> float:
    """Weight (1 + r . u)/2 = Tr[rho |u><u|] of Bloch vector r on the pure
    state with unit Bloch vector u = ``axis``; ValueError unless |r| <= 1."""
    rx, ry, rz = (float(v) for v in r)
    check_bloch_vector(rx, ry, rz)
    ux, uy, uz = axis
    return 0.5 * (1.0 + (rx * ux + ry * uy + rz * uz))


class Value:
    """Immutable record.  Each subclass's ``__init__`` sets its fields in
    order with one ``self.__dict__.update``, then validates them.  Records
    are equal when their types and field values are; the hash is that of
    the field values in order."""

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
        args = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({args})"

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        """Field names, in order: the parameters of ``__init__``."""
        code = cls.__init__.__code__
        return code.co_varnames[1:code.co_argcount]

    def replace(self, **changes) -> Value:
        """A copy with some fields changed; ``__init__`` validates it again."""
        return type(self)(**{**self.__dict__, **changes})


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


def phase_integral(drive: AmplitudeModulatedDrive, t0: float, t1: float) -> float:
    """Accumulated rotation angle int_{t0}^{t1} omega(t') dt' for the fixed-axis drive.

    Closed form: the antiderivative of omega is
    (omega0/2) * [ (3/2) t + (tau_a / 4 pi) sin(2 pi t / tau_a) ].
    """
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("phase_integral is defined for the amplitude-modulated drive")

    def anti(t: float) -> float:
        return 0.5 * drive.omega0 * (1.5 * t + (drive.tau_a / (4.0 * math.pi))
                                     * math.sin(2.0 * math.pi * t / drive.tau_a))

    return anti(t1) - anti(t0)


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

    Memoized on the bit patterns of the four floats (0.0 and -0.0 compare
    equal but give different signed zeros in the matrix), so a sweep
    builds each distinct rotation once.
    """
    return _rodrigues(_ROTATION_KEY.pack(kx, ky, kz, angle))


# A sweep needs one rotation per distinct angle: a few per period and one
# tail per grid point; the four 500-pulse sweeps of the benchmark fit.
@functools.lru_cache(maxsize=2048)
def _rodrigues(key: bytes) -> Matrix3:
    # Element (i, j) is (c I_ij + s K_ij) + (1 - c) k_i k_j, K the cross-product
    # matrix, in that order and with the zero terms kept, so every bit
    # (signed zeros included) matches the array expression
    # c * eye(3) + s * K + (1 - c) * outer(k, k).
    kx, ky, kz, angle = _ROTATION_KEY.unpack(key)
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


def whole_multiple(t: float, tau: float) -> int | None:
    """The integer nearest t / tau if it lies within WHOLE_MULTIPLE_RTOL of
    it (relative, with an absolute floor of that size), else None."""
    ratio = t / tau
    n = round(ratio)
    return n if abs(ratio - n) <= WHOLE_MULTIPLE_RTOL * max(1.0, abs(ratio)) else None


def bloch_rotation(drive: DriveSpec, t0: float, t1: float) -> Matrix3:
    """3x3 rotation carrying Bloch vectors from time t0 to t1 under the drive.

    For the rotating-axis family the propagator is assembled as
    R_z(theta * t1) . R_dressed(2 e_theta (t1 - t0)) . R_z(-theta * t0);
    when both endpoints are whole drive periods the outer z-rotations are
    dropped exactly instead of being evaluated at large arguments.
    """
    if not -math.inf < t0 <= t1 < math.inf:  # NaN fails too
        raise ValueError(f"time interval must be finite and ordered: "
                         f"t0={t0!r}, t1={t1!r}")
    if isinstance(drive, AmplitudeModulatedDrive):
        return _axis_angle(1.0, 0.0, 0.0, phase_integral(drive, t0, t1))
    inner = _axis_angle(*drive.basis[0], 2.0 * drive.e_theta * (t1 - t0))
    tau = drive.tau_theta
    if whole_multiple(t0, tau) is not None and whole_multiple(t1, tau) is not None:
        return inner
    return matmul3(matmul3(_rot_z(drive.theta * t1), inner),
                   _rot_z(-drive.theta * t0))


def partition_function(beta: float, drive: DriveSpec, t: float) -> float:
    """Two-level partition function 2*cosh(beta * level(t))."""
    return 2.0 * math.cosh(beta * drive.level(t))


def gibbs_population(beta: float, drive: DriveSpec, t: float) -> float:
    """Upper-level Gibbs weight exp(-beta level(t)) / Z at time t."""
    x = beta * (2.0 * drive.level(t))
    # Logistic form stable for any beta; exp never sees a positive argument.
    if x >= 0.0:
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


def free_energy_delta(beta: float, drive: DriveSpec, t_f: float) -> float:
    """Equilibrium free-energy change -ln(Z(t_f)/Z(0))/beta between 0 and t_f."""
    if beta == 0.0:
        raise ValueError("free energy difference is undefined at beta = 0")
    z0 = partition_function(beta, drive, 0.0)
    zf = partition_function(beta, drive, t_f)
    return -math.log(zf / z0) / beta
