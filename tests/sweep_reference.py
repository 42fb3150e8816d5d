"""Independent per-point reference for the deterministic sweep.

Every grid point rebuilds all of its period rotations and walks its own
pulse train from t = 0, one basis state at a time, as the engine did
before sweeps shared one train.  It costs O(grid x N) and shares no
propagation code with ``qubitfr.protocol.pulse_train``, so exact equality
between the two is a meaningful check of the shared-prefix bookkeeping:
pulse counts, tail rotations and final bases.
"""

from qubitfr.channel import apply_pulse_map
from qubitfr.core import QubitState, instantaneous_eigensystem
from qubitfr.protocol import ConditionalMatrix, ProtocolConfig, segment_rotations


def propagate_mean(config: ProtocolConfig, state: QubitState) -> QubitState:
    """Ensemble-averaged state at t_f starting from the given state at 0."""
    rots, tail = segment_rotations(config)
    r = state.as_array()
    for rot in rots:
        r = rot @ r
        state_n = apply_pulse_map(QubitState.from_array(r), config.channel)
        r = state_n.as_array()
    return QubitState.from_array(tail @ r)


def mean_trajectory(config: ProtocolConfig,
                    state: QubitState) -> list[tuple[float, QubitState]]:
    """Post-pulse snapshots (t_n, state) for n = 0..N plus the final state."""
    rots, tail = segment_rotations(config)
    out = [(0.0, state)]
    r = state.as_array()
    for n, rot in enumerate(rots, start=1):
        r = apply_pulse_map(QubitState.from_array(rot @ r), config.channel).as_array()
        out.append((n * config.tau, QubitState.from_array(r)))
    if config.t_f > config.n_pulses * config.tau:
        out.append((config.t_f, QubitState.from_array(tail @ r)))
    return out


def conditional_matrix(config: ProtocolConfig) -> ConditionalMatrix:
    """Transition probabilities between the measurement bases at 0 and t_f."""
    eig0 = instantaneous_eigensystem(config.drive, 0.0)
    eigf = instantaneous_eigensystem(config.drive, config.t_f)
    cols = [propagate_mean(config, initial).population_along(eigf.basis_plus)
            for initial in (eig0.basis_plus, eig0.basis_minus)]
    return ConditionalMatrix.from_upper_row(cols[0], cols[1])
