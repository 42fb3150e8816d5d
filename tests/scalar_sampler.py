"""Independent scalar reference for the trajectory sampler.

Random-number layout 3: the uniform of role k (0 absorption, 1 projection
outcome, 2 pump success, 3 final measurement) read after j pulses is word
i of stream ``Philox(key=[master_seed, 4 * j + k + 1])`` for trajectory
i.  Here every such word gets its own freshly constructed generator,
positioned by its ``counter`` argument at the word's 4-word block, and
each trajectory is walked pulse by pulse on a single Bloch vector, a local
(rx, ry, rz) float triple, recording every pulse outcome.  Nothing here
shares code with ``qubitfr.montecarlo``: the package engine draws each
stream in order from trajectory 0, a whole chunk per call, and walks the
chunk once for a whole sweep, so agreement between the two is a
meaningful check of stream keys, word positions, draw order and branch
logic.
"""

import math
from dataclasses import dataclass

import numpy as np

from qubitfr.channel import PulseChannelParams
from qubitfr.protocol import Sweep
from sweep_reference import tail_rotation


def derive_stream(master_seed: int, n: int, role: int,
                  trajectory_index: int) -> np.random.Generator:
    """Generator whose next word is word ``trajectory_index`` of the stream
    of ``role`` read after ``n`` pulses: built at the word's block, then
    advanced past the ``trajectory_index % 4`` words before it."""
    key = np.array([master_seed, 4 * n + role + 1], dtype=np.uint64)
    counter = np.array([trajectory_index // 4, 0, 0, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    rng.random(trajectory_index % 4)
    return rng


def uniform(master_seed: int, n: int, role: int, trajectory_index: int) -> float:
    """Trajectory ``trajectory_index``'s uniform of ``role`` after ``n`` pulses."""
    return float(derive_stream(master_seed, n, role, trajectory_index).random())


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


def sample_pulse(state: Triple, params: PulseChannelParams, u_absorb: float,
                 u_outcome: float, u_pump: float) -> tuple[Triple, PulseEvent]:
    """Sample one pulse acting on a pure-state trajectory (rx, ry, rz) from
    its three uniforms (absorption, projection outcome, pump success), all
    drawn whether or not the branches fire."""
    if u_absorb >= params.p_absorb:
        return state, PulseEvent(absorbed=False)
    p_upper = 0.5 * (1.0 + state[2])  # population of |0> in the z-basis
    if u_outcome < p_upper:
        return NORTH, PulseEvent(True, 0, False)
    if u_pump < params.p_pump:
        return NORTH, PulseEvent(True, 1, True)
    return SOUTH, PulseEvent(True, 1, False)


def run_records(config: Sweep, initial_index: int, n: int,
                master_seed: int, index_offset: int = 0) -> list[TrajectoryRecord]:
    """Trajectories ``index_offset .. index_offset + n - 1`` from one basis
    state, run to the one time of ``config``, a one-time sweep."""
    rots, tail = config.periods, tail_rotation(config)
    # The up start is also the axis of the final measurement.
    start = final_axis = np.array(config.drive.basis[0])
    sign = 1.0 if initial_index == 0 else -1.0
    records = []
    for idx in range(index_offset, index_offset + n):
        state = triple(sign * start)
        events = []
        for j, rot in enumerate(rots):
            state = triple(rot @ np.array(state))
            state, event = sample_pulse(
                state, config.channel,
                *(uniform(master_seed, j, role, idx) for role in range(3)))
            events.append(event)
        state = triple(tail @ np.array(state))
        p_up = 0.5 * (1.0 + float(np.array(state) @ final_axis))
        u_final = uniform(master_seed, config.n_pulses, 3, idx)
        final_index = 0 if u_final < p_up else 1
        records.append(TrajectoryRecord(initial_index, final_index,
                                        tuple(events), idx))
    return records
