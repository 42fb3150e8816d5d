"""Independent scalar reference for the trajectory sampler.

Each trajectory gets its own freshly constructed counter-based generator,
positioned by its ``counter`` argument at the trajectory's first block of
the run's stream (random-number layout 2), and is walked pulse by pulse on
a single Bloch vector, a local (rx, ry, rz) float triple, recording every
pulse outcome.  Nothing here shares code with ``qubitfr.montecarlo``: the
package engine walks the stream in order from trajectory 0, drawing and
propagating a whole chunk at once, so agreement between the two is a
meaningful check of stream positions, draw order and branch logic.
"""

import math
from dataclasses import dataclass

import numpy as np

from qubitfr.channel import PulseChannelParams
from qubitfr.core import instantaneous_eigensystem
from qubitfr.protocol import ProtocolConfig, segment_rotations


def words_per_trajectory(n_pulses: int) -> int:
    """``Wp``: 3 uniforms per pulse plus 1, rounded up to whole 4-word blocks."""
    return 4 * ((3 * n_pulses + 1 + 3) // 4)


def derive_stream(master_seed: int, trajectory_index: int,
                  n_pulses: int) -> np.random.Generator:
    """Generator whose first ``Wp`` words are trajectory ``trajectory_index``'s
    words ``[i * Wp, (i + 1) * Wp)`` of ``Philox(key=[master_seed, 0])``."""
    key = np.array([master_seed, 0], dtype=np.uint64)
    block = trajectory_index * words_per_trajectory(n_pulses) // 4
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class PulseEvent:
    """Outcome record of one stochastically sampled pulse.

    ``projection_outcome`` and ``pumped`` are None when the pulse was not
    absorbed; otherwise the outcome is 0 for |0> and 1 for |1>, and
    ``pumped`` records whether a |1> outcome was transferred to |0>.
    """

    absorbed: bool
    projection_outcome: int | None = None
    pumped: bool | None = None


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sampled protocol run."""

    initial_index: int
    final_index: int
    pulse_events: tuple[PulseEvent, ...]
    seed_index: int


Triple = tuple[float, float, float]

NORTH: Triple = (0.0, 0.0, 1.0)
SOUTH: Triple = (0.0, 0.0, -1.0)


def triple(r) -> Triple:
    """The Bloch vector r as three floats; asserts that it lies in the ball."""
    rx, ry, rz = (float(v) for v in r)
    assert math.sqrt(rx * rx + ry * ry + rz * rz) <= 1.0 + 1e-12, (rx, ry, rz)
    return rx, ry, rz


def sample_pulse(state: Triple, params: PulseChannelParams,
                 rng: np.random.Generator) -> tuple[Triple, PulseEvent]:
    """Sample one pulse acting on a pure-state trajectory (rx, ry, rz).

    Consumes exactly three uniform variates (absorption, projection
    outcome, pump success) regardless of which branches fire, so that
    trajectories with a fixed pulse count draw a fixed-length stream.
    """
    u_absorb, u_outcome, u_pump = rng.random(3)
    if u_absorb >= params.p_absorb:
        return state, PulseEvent(absorbed=False)
    p_upper = 0.5 * (1.0 + state[2])  # population of |0> in the z-basis
    if u_outcome < p_upper:
        return NORTH, PulseEvent(True, 0, False)
    if u_pump < params.p_pump:
        return NORTH, PulseEvent(True, 1, True)
    return SOUTH, PulseEvent(True, 1, False)


def run_records(config: ProtocolConfig, initial_index: int, n: int,
                master_seed: int, index_offset: int = 0) -> list[TrajectoryRecord]:
    """Trajectories ``index_offset .. index_offset + n - 1`` from one basis state."""
    rots, tail = segment_rotations(config)
    start = np.array(instantaneous_eigensystem(config.drive, 0.0).basis_plus)
    final_axis = np.array(instantaneous_eigensystem(config.drive,
                                                    config.t_f).basis_plus)
    sign = 1.0 if initial_index == 0 else -1.0
    records = []
    for idx in range(index_offset, index_offset + n):
        rng = derive_stream(master_seed, idx, config.n_pulses)
        state = triple(sign * start)
        events = []
        for rot in rots:
            state = triple(rot @ np.array(state))
            state, event = sample_pulse(state, config.channel, rng)
            events.append(event)
        state = triple(tail @ np.array(state))
        p_up = 0.5 * (1.0 + float(np.array(state) @ final_axis))
        final_index = 0 if rng.random() < p_up else 1
        records.append(TrajectoryRecord(initial_index, final_index,
                                        tuple(events), idx))
    return records
