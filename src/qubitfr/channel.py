"""Dissipative pulse channel and its steady state under periodic driving.

Each pulse acts on the Bloch vector in two stages.  With probability
``p_absorb`` the pulse is absorbed: the coherences in the z-basis are
erased (rx, ry -> 0) and the projected populations are then pumped toward
|0> with weight ``p_pump`` (rz -> rz + p_pump * (1 - rz)).  With
probability 1 - p_absorb nothing happens.  Averaged over absorption this
is the affine map

    r  ->  A r + b,   A = diag(1-pa, 1-pa, 1-pa*pd),   b = (0, 0, pa*pd).

One drive period of free evolution (the rotation R, a turn by phi about
the unit axis k) followed by a pulse is a contraction whenever pa > 0.
Only the pump's z-row depends on pd, so by Sherman-Morrison the fixed point
is r = pd pa g / (m + pd (1 - m)), g = (I - c R)^-1 e_z, c = 1 - pa and
m = 1 - pa R[2] . g.  I - c R is pa on k and S - c sin phi (k x) on the
plane normal to k, so in R's quaternion (w, v) = (cos phi/2, sin phi/2 k), with
S = pa + 2 c |v|^2 and D = S^2 + (2 c w)^2 |v|^2, pa g = (2 c (1 + c) v_z v +
pa (2 c w v x e_z + S e_z)) / D and m = 2 (v_x^2 + v_y^2) (1 + c) / D: no
term cancels, so a small pa keeps its digits.  The pump probability for a
target plateau is one formula too.
"""

from __future__ import annotations

import math

from .core import (BLOCH_NORM_TOL, DriveSpec, Matrix3, Value, Vector, bloch_rotation,
                   matvec3, period_quaternion)

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


def period_map(drive: DriveSpec, params: PulseChannelParams,
               tau: float) -> tuple[Matrix3, Vector]:
    """Linear part and offset of one period of drive followed by a pulse."""
    rot = bloch_rotation(drive, 0.0, tau)
    pa, pd = params.p_absorb, params.p_pump
    return tuple(tuple(d * x for x in row) for d, row in
                 zip((1.0 - pa, 1.0 - pa, 1.0 - pa * pd), rot)), (0.0, 0.0, pa * pd)


def _closed_form(drive: DriveSpec, pa: float, tau: float) -> tuple[Vector, float, float]:
    """(pa g, pa u . g, m) of the module docstring, u the measured up-axis."""
    (w, x, y, z), c = period_quaternion(drive, tau), 1.0 - pa
    sin2 = x * x + y * y + z * z
    s = pa + 2.0 * c * sin2
    d = s * s + (2.0 * c * w) ** 2 * sin2
    if pa == 0.0 or d == 0.0:  # a unitary period map, or d underflows
        raise DegenerateChannelError(f"p_absorb = {pa!r}, tau = {tau!r}: {NO_FIXED_POINT}")
    cv, cw = 2.0 * c * (1.0 + c) * z, 2.0 * c * w * pa  # of v and of v x e_z
    pg = ((cv * x + cw * y) / d, (cv * y - cw * x) / d, (cv * z + pa * s) / d)
    ux, uy, uz = drive.basis[0]
    return pg, pg[0] * ux + pg[1] * uy + pg[2] * uz, 2.0 * (x * x + y * y) * (1.0 + c) / d


def _plateau(drive: DriveSpec, params: PulseChannelParams, tau: float,
             form: tuple[Vector, float, float]) -> float:
    """0.5 (1 + u . r) at the fixed point r, checked against ``period_map``."""
    (pg, a, m), pd = form, params.p_pump
    channel = f"p_absorb = {params.p_absorb!r}, p_pump = {pd!r}, tau = {tau!r}"
    den = m + pd * (1.0 - m)
    if den == 0.0:
        raise DegenerateChannelError(f"{channel}: {NO_FIXED_POINT}")
    r = tuple(pd * x / den for x in pg)
    lin, offset = period_map(drive, params, tau)
    residual = max(abs(y + o - x) for y, o, x in zip(matvec3(lin, r), offset, r))
    norm = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    failed = " and ".join(text for text, ok in (
        (f"residual {residual:.3e} (at most {FIXED_POINT_RESIDUAL_TOL:.0e})",
         residual <= FIXED_POINT_RESIDUAL_TOL),
        (f"norm {norm!r} (at most 1)", norm <= 1.0 + BLOCH_NORM_TOL)) if not ok)
    if failed:  # NaN fails both
        raise DegenerateChannelError(f"{channel}: the fixed point has {failed}")
    return 0.5 * (1.0 + pd * a / den)


def stationary_upper_population(drive: DriveSpec, params: PulseChannelParams,
                                tau: float) -> float:
    """Upper-level occupation, in the measurement basis, at the fixed point of the
    period map; ``DegenerateChannelError`` if it is not unique or fails a check."""
    return _plateau(drive, params, tau, _closed_form(drive, params.p_absorb, tau))


def invert_pump_probability(drive: DriveSpec, p_absorb: float, tau: float,
                            target_upper_population: float) -> float:
    """Pump probability whose channel fixed point has the requested occupation:
    s = 2 target - 1 = pd a / (m + pd (1 - m)) gives pd = s m / (a - s (1 - m)).
    Raises ``DegenerateChannelError`` without a unique fixed point, else ValueError
    for a target outside (0, 1), a pump outside [0, 1] or a miss past PLATEAU_TOL."""
    if not (0.0 < target_upper_population < 1.0):
        raise ValueError(f"target population must lie in (0, 1), "
                         f"got {target_upper_population}")
    PulseChannelParams(p_absorb, 0.0)  # rejects p_absorb outside [0, 1]
    pg, a, m = _closed_form(drive, p_absorb, tau)
    s = 2.0 * target_upper_population - 1.0
    denom = a - s * (1.0 - m)
    p_pump = s * m / denom if denom != 0.0 else math.nan
    if not (0.0 <= p_pump <= 1.0):
        raise ValueError(f"target population {target_upper_population} is not "
                         f"reachable at p_absorb={p_absorb}: it needs "
                         f"p_pump = {p_pump:.6g}, outside [0, 1]")
    plateau = _plateau(drive, PulseChannelParams(p_absorb, p_pump), tau, (pg, a, m))
    if not abs(plateau - target_upper_population) <= PLATEAU_TOL:
        raise ValueError(f"p_pump = {p_pump!r} puts the plateau at {plateau!r}, not "
                         f"at the target population {target_upper_population!r}")
    return p_pump
