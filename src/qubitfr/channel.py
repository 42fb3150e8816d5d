"""Dissipative pulse channel and its steady state under periodic driving.

Each pulse acts on the Bloch vector in two stages.  With probability
``p_absorb`` the pulse is absorbed: the coherences in the z-basis are
erased (rx, ry -> 0) and the projected populations are then pumped toward
|0> with weight ``p_pump`` (rz -> rz + p_pump * (1 - rz)).  With
probability 1 - p_absorb nothing happens.  Averaged over absorption this
is the affine map

    r  ->  A r + b,   A = diag(1-pa, 1-pa, 1-pa*pd),   b = (0, 0, pa*pd).

One drive period of free evolution followed by a pulse is a contraction
whenever pa > 0, so its fixed point exists and is obtained here by a
direct 3x3 solve (Cramer's rule) rather than by iterating the map.  The
fixed point is linear-fractional in pd, so the pump probability that puts
it on a target population is found in closed form.
"""

from __future__ import annotations

import math

from .core import (BLOCH_NORM_TOL, IDENTITY3, DriveSpec, Matrix3, Value, Vector,
                   bloch_rotation, matvec3)

FIXED_POINT_RESIDUAL_TOL = 1e-12
# Largest |plateau - target| an inverted pump may leave (presets: 3.5e-16).
PLATEAU_TOL = 1e-9
NO_FIXED_POINT = "the period map has no unique fixed point"


class DegenerateChannelError(ValueError):
    """Raised when the pulse channel has no contracting fixed point."""


class PulseChannelParams(Value):
    """Absorption and pump-success probabilities of one pulse."""

    def __init__(self, p_absorb: float, p_pump: float) -> None:
        self.__dict__.update(p_absorb=p_absorb, p_pump=p_pump)
        for name, p in (("p_absorb", self.p_absorb), ("p_pump", self.p_pump)):
            if not (0.0 <= p <= 1.0) or not math.isfinite(p):
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


def pulse_step(rx: float, ry: float, rz: float, p_absorb: float,
               p_pump: float) -> tuple[float, float, float]:
    """Ensemble-averaged action of one pulse on Bloch-vector components."""
    rz_pulsed = rz + p_pump * (1.0 - rz)
    return ((1.0 - p_absorb) * rx, (1.0 - p_absorb) * ry,
            (1.0 - p_absorb) * rz + p_absorb * rz_pulsed)


def _scale_rows(d: Vector, m: Matrix3) -> Matrix3:
    """diag(d) m."""
    return tuple(tuple(di * x for x in row) for di, row in zip(d, m))


def _solve_ez(lin: Matrix3) -> Vector:
    """(I - lin)^-1 e_z by Cramer's rule: the cofactors of the last row of
    I - lin over its determinant, expanded along that row.  Raises
    ZeroDivisionError when the determinant is 0."""
    (a, b, c), (d, e, f), (g, h, i) = (
        tuple(one - x for one, x in zip(eye_row, row))
        for eye_row, row in zip(IDENTITY3, lin))
    cofactors = (b * f - c * e, c * d - a * f, a * e - b * d)
    det = g * cofactors[0] + h * cofactors[1] + i * cofactors[2]
    return tuple(x / det for x in cofactors)


def period_map(drive: DriveSpec, params: PulseChannelParams,
               tau: float) -> tuple[Matrix3, Vector]:
    """Linear part and offset of one period of drive followed by a pulse."""
    rot = bloch_rotation(drive, 0.0, tau)
    pa, pd = params.p_absorb, params.p_pump
    return _scale_rows((1.0 - pa, 1.0 - pa, 1.0 - pa * pd), rot), (0.0, 0.0, pa * pd)


def stationary_upper_population(drive: DriveSpec, params: PulseChannelParams,
                                tau: float) -> float:
    """Upper-level occupation, in the measurement basis, of the stationary
    Bloch vector of the period map (drive for tau, then pulse).

    Solves (I - A) r = b exactly; raises ``DegenerateChannelError`` for
    p_absorb = 0, a singular I - A, or a residual or |r| past tolerance.
    """
    if params.p_absorb == 0.0:
        raise DegenerateChannelError("p_absorb = 0: the period map is unitary "
                                     "and has no attracting fixed point")
    lin, offset = period_map(drive, params, tau)
    channel = f"p_absorb = {params.p_absorb!r}, p_pump = {params.p_pump!r}, tau = {tau!r}"
    try:
        r = tuple(offset[2] * x for x in _solve_ez(lin))
    except ZeroDivisionError:
        raise DegenerateChannelError(f"{channel}: {NO_FIXED_POINT}") from None
    residual = max(abs(m + o - x) for m, o, x in zip(matvec3(lin, r), offset, r))
    norm = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    if not (residual <= FIXED_POINT_RESIDUAL_TOL and norm <= 1.0 + BLOCH_NORM_TOL):
        raise DegenerateChannelError(  # NaN fails too
            f"{channel}: the fixed point has residual {residual:.3e} (at most "
            f"{FIXED_POINT_RESIDUAL_TOL:.0e}) and norm {norm!r} (at most 1)")
    ux, uy, uz = drive.basis[0]
    return 0.5 * (1.0 + (r[0] * ux + r[1] * uy + r[2] * uz))


def invert_pump_probability(drive: DriveSpec, p_absorb: float, tau: float,
                            target_upper_population: float) -> float:
    """Pump probability whose channel fixed point has the requested occupation.

    Only the z-row of the pulse map depends on p_pump: its linear part is
    (1-pa) I + pa (1-pd) e_z e_z^T and its offset pa pd e_z.  With
    R = bloch_rotation(drive, 0, tau) and g = (I - (1-pa) R)^-1 e_z,
    Sherman-Morrison gives the fixed point r = pa pd g / (1 - pa (1-pd) h)
    with h = R[2] . g.  Setting u . r = 2 target - 1, u the measured
    up-axis, gives pd = s (1 - pa h) / (pa (u . g - s h)) with
    s = 2 target - 1, and a direct solve checks the plateau it reaches.
    Raises ``DegenerateChannelError`` for a channel without a unique fixed
    point, and ValueError when the target is outside (0, 1), needs a pump
    outside [0, 1], or is missed by more than PLATEAU_TOL.
    """
    if not (0.0 < target_upper_population < 1.0):
        raise ValueError(f"target population must lie in (0, 1), "
                         f"got {target_upper_population}")
    PulseChannelParams(p_absorb, 0.0)  # rejects p_absorb outside [0, 1]
    if p_absorb == 0.0:
        raise DegenerateChannelError("p_absorb = 0: the period map is unitary "
                                     "and has no attracting fixed point")
    pa = p_absorb
    rot = bloch_rotation(drive, 0.0, tau)
    try:
        g = _solve_ez(_scale_rows((1.0 - pa,) * 3, rot))
    except ZeroDivisionError:  # 1 - pa rounds to 1
        raise DegenerateChannelError(
            f"p_absorb = {pa!r}, tau = {tau!r}: {NO_FIXED_POINT}") from None
    a, h = (x * g[0] + y * g[1] + z * g[2]
            for x, y, z in (drive.basis[0], rot[2]))
    s = 2.0 * target_upper_population - 1.0
    denom = pa * (a - s * h)
    p_pump = s * (1.0 - pa * h) / denom if denom != 0.0 else math.nan
    if not (0.0 <= p_pump <= 1.0):
        raise ValueError(f"target population {target_upper_population} is not "
                         f"reachable at p_absorb={p_absorb}: it needs "
                         f"p_pump = {p_pump:.6g}, outside [0, 1]")
    plateau = stationary_upper_population(drive, PulseChannelParams(pa, p_pump), tau)
    if not abs(plateau - target_upper_population) <= PLATEAU_TOL:
        raise ValueError(f"p_pump = {p_pump!r} puts the plateau at {plateau!r}, not "
                         f"at the target population {target_upper_population!r}")
    return p_pump
