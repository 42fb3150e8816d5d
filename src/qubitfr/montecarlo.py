"""Reproducible trajectory ensembles for the pulsed protocols.

Reproducibility contract (random-number layout 3, which sampling manifests
record as ``scenarios.RNG_LAYOUT``): the
uniform of role k (0 absorption, 1 projection outcome, 2 pump success,
3 final measurement) read after j pulses is word i, for trajectory i, of
its own counter-based stream ``Philox(key=[master_seed, 4 * j + k + 1])``.
A uniform lies in [0, 1), so at p_pump 0 no pump succeeds and the pump
stream is not drawn (the amplitude presets, the paper's
infinite-temperature reservoir).  Every other stream is read at its
words whether or not the branches fire, and aggregates are exact integer
counts.  Results are therefore a pure function of (master_seed, i) per
trajectory and, but for the rounding noted below, chunking-invariant.

A stream is only its key, so a walk builds one ``Philox`` and re-keys it
for each draw of a chunk's words of a stream: it sets the key and the
counter of the block holding the chunk's first word (Philox4x64 makes
four words per block), discards the words of that block before it, and
draws the chunk's raw 64-bit words.  Those are the words a generator
built at that key would give at those positions, so no word moves.  The
walk makes no doubles: numpy's uniform of word w is (w >> 11) * 2**-53,
so a uniform below a probability is exactly a word below an integer bound.

An ensemble's up starts own indices [0, n) and its down starts [n, 2n),
so both are one walk over [0, 2n).  No word depends on a point's pulse
count, so a sweep is one walk to its largest count that measures each
point when its count comes up: the points share trajectory prefixes, and
their estimates are correlated across t_f.

The engine is vectorized over a chunk of trajectories.  Between two
absorptions a trajectory only rotates, and an absorption projects it onto
a pole, so a chunk's walk state is one label per trajectory: the column
of a small per-chunk table of Bloch vectors that holds the up and the down
start and the +z and -z poles of each pulse.  A pulse rotates the table,
draws each outcome from its trajectory's column and writes the new pole's
label where it absorbed.  A point measures the state r after its tail T,
which the ``protocol.Sweep`` record built once, along the up axis u; as
u . (T r) = (T^T u) . r, the walk carries u back through each point's
tail once per sweep, to the point's measured axis.
The points measured at one pulse count then take every Born probability
from one (P, 3) @ (3, k) product of their axes and the table, which each
point gathers by label and counts.  Once the table is wider than the
chunk it is cut to the columns some label points at.  The tests hold the
engine to an independent scalar walker that builds each word's generator
at its counter and walks the same words pulse by pulse on one Bloch
vector per trajectory, to which it applies each tail.

Estimates are the ``protocol`` sums over the four (dE, p) atoms evaluated
on the empirical matrix ``EnsembleStats.conditional_estimate()``; this
module adds only one binomial standard error for any such sum,
``EnsembleStats.functional_std_err``.  Numpy only draws and walks: the tallies
are Python ints, and the estimates and their errors are computed from
them in Python floats with libm's ``exp`` and ``sqrt``.  The walk
multiplies with numpy, whose BLAS may round a Born probability by an ulp
differently between hosts, chunk sizes and the points sharing its pulse
count; a count, and with it a sampled CSV, changes only when a uniform
lies within that ulp of its threshold.  The bounds taken from it are exact.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import partial

import numpy as np

from .core import Value
from .protocol import ConditionalMatrix, Sweep

DEFAULT_CHUNK = 16384
# Born probabilities per (P, 3) @ (3, k) product at most, which bounds its
# temporary however many points a pulse count has.
BORN_BLOCK = 1 << 16
SHIFT = np.uint64(11)  # numpy's uniform of a raw word w is (w >> 11) * 2**-53


class EnsembleStats(Value):
    """Exact-integer tallies of an ensemble of trajectories.

    ``ups[i]`` is the number of the ``n_per_initial`` trajectories
    initialized in basis state i (0 up, 1 down) whose final measurement
    gave up; the rest gave down.
    """

    def __init__(self, ups: tuple[int, int], n_per_initial: int,
                 absorbed_pulses: int, total_pulses: int, master_seed: int) -> None:
        self.__dict__.update(ups=ups, n_per_initial=n_per_initial,
                             absorbed_pulses=absorbed_pulses,
                             total_pulses=total_pulses, master_seed=master_seed)
        n = self.n_per_initial
        if not n >= 1:
            raise ValueError(f"n_per_initial must be at least 1, got {n!r}")
        if not 0 <= min(ups) <= max(ups) <= n:
            raise ValueError(f"up counts {self.ups!r} outside [0, {n}]")

    def conditional_estimate(self) -> ConditionalMatrix:
        (up, down), n = self.ups, self.n_per_initial
        return ConditionalMatrix.from_upper_row(up / n, down / n)

    def std_err(self) -> tuple[float, float]:
        """Binomial standard errors of the two column estimates."""
        (up, down), n = self.ups, self.n_per_initial
        p, q = up / n, down / n
        return math.sqrt(p * (1.0 - p) / n), math.sqrt(q * (1.0 - q) / n)

    def functional_std_err(self, atoms: Sequence[tuple[float, float]],
                           weights: tuple[float, float],
                           f: Callable[[float], float]) -> float:
        """Binomial standard error of the sum of p * f(dE) over ``atoms``,
        the four atoms of ``conditional_estimate()`` built with the Gibbs
        weights ``weights`` (``protocol.energy_changes``), e.g. <dE> for f
        the identity: the sum is linear in each independent column
        P(up | i), with slope w_i * (f(dE_i,up) - f(dE_i,down)).  Only the
        atoms' dE are read."""
        (uu, _), (ud, _), (du, _), (dd, _) = atoms
        (up, down), n = self.ups, self.n_per_initial
        p, q = up / n, down / n
        return math.sqrt((weights[0] * (f(uu) - f(ud))) ** 2 * p * (1.0 - p) / n
                         + (weights[1] * (f(du) - f(dd))) ** 2 * q * (1.0 - q) / n)

    def to_dict(self) -> dict:
        (up, down), n = self.ups, self.n_per_initial
        return {
            "counts": [[up, down], [n - up, n - down]],
            "n_per_initial": [n, n],
            "absorbed_pulses": self.absorbed_pulses,
            "total_pulses": self.total_pulses,
            "master_seed": self.master_seed,
        }


def _check_arguments(*table: tuple[str, object, int, float]) -> None:
    """Raise ``ValueError`` naming the first (name, value, least, end) whose
    value is not an exact int (``bool`` excluded) in [least, end)."""
    for name, value, least, end in table:
        if type(value) is not int or not least <= value < end:
            raise ValueError(f"{name} must be an int in [{least}, {end}), "
                             f"got {value!r}")


def _compact(table: np.ndarray, label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, label) cut to the columns some label points at, relabelled."""
    live, label = np.unique(label, return_inverse=True)
    return table[:, live], label


def _below(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """The test of raw Philox words w whose uniform (w >> 11) * 2**-53 lies
    below p in [0, 1]: p * 2**53 is exact, so with t = ceil(p * 2**53) that
    is w <= (t << 11) - 1, a uint64 also at p = 1, and no word at t = 0."""
    t = math.ceil(p * 2.0**53)
    return partial(np.greater_equal, np.uint64((t << 11) - 1)) if t else partial(np.greater, 0)


def _born_bounds(z: np.ndarray) -> np.ndarray:
    """Int64 bounds b with k * 2**-53 < 0.5 * (1 + z) exactly when k < b, for
    the top bits k = w >> 11 of a word: fl(1 + z) * 2**52 is exact, and a z
    rounded below -1 gives a bound of at most 0.  The table only holds
    rotated finite vectors, so no NaN reaches the cast."""
    return np.ceil((1.0 + z) * 2.0**52).astype(np.int64)


def _walk(sweep: Sweep, master_seed: int, n_per_initial: int,
          chunk_size: int) -> tuple[list[list[int]], dict[int, int]]:
    """(final-up counts [up starts, down starts] per point of the sweep;
    absorbed-pulse count at each point's pulse count) of trajectory indices
    [0, 2 * n_per_initial), starting up below n_per_initial, walked once."""
    # Arrays once per walk, and once per distinct rotation: a periodic sweep
    # holds one object N times.  The chunk loop multiplies with numpy.
    arrays = {i: np.array(rot) for i, rot in {id(r): r for r in sweep.periods}.items()}
    rotations = [arrays[id(rot)] for rot in sweep.periods]
    # The up start, and each point's measured axis T^T up for its tail T.
    up = np.array(sweep.drive.basis[0])
    axes = up @ np.array(sweep.tails)
    points: dict[int, list[int]] = {}  # pulse count -> its points
    for c, n in enumerate(sweep.counts):
        points.setdefault(n, []).append(c)

    # One Philox re-keyed per draw.  ``state`` is the walk's own copy, in
    # plain lists, which load faster than arrays: a draw never changes it,
    # and its buffer is empty, so after loading it the first block generated
    # holds the stream's words 4 * counter[0] to 4 * counter[0] + 3.
    bits = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    key, counter = [master_seed, 0], [0] * 4
    state = dict(bits.state, state={"key": key, "counter": counter}, buffer=[0] * 4)

    def words(n: int, role: int, start: int, m: int) -> np.ndarray:
        """Raw words [start, start + m) of role's stream read after n pulses."""
        key[1] = 4 * n + role + 1
        counter[0] = start // 4
        bits.state = state
        if start % 4:
            bits.random_raw(start % 4, output=False)
        return bits.random_raw(m)

    def top_bits(n: int, role: int, start: int, m: int) -> np.ndarray:
        """The words' top 53 bits w >> 11, shifted in place, as int64."""
        w = words(n, role, start, m)
        return np.right_shift(w, SHIFT, out=w).view(np.int64)

    p_pump = sweep.channel.p_pump
    absorbs, pumps = _below(sweep.channel.p_absorb), _below(p_pump)
    poles = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])  # +z, -z
    ups = [[0, 0] for _ in sweep.times]
    absorbed_at = dict.fromkeys(points, 0)
    end = 2 * n_per_initial
    for start in range(0, end, chunk_size):
        stop = min(start + chunk_size, end)
        m = stop - start
        n_up = min(max(n_per_initial - start, 0), m)
        # Trajectory j's Bloch vector is column label[j] of table, which
        # starts as the up and the down start; each pulse appends its poles.
        table = up[:, None] * np.array([1.0, -1.0])
        label = np.zeros(m, dtype=np.intp)
        label[n_up:] = 1
        absorbed_total = 0
        for n in range(len(rotations) + 1):
            if n in points:
                k_final = top_bits(n, 3, start, m)
                cs = points[n]
                step = max(1, BORN_BLOCK // table.shape[1])
                for lo in range(0, len(cs), step):
                    born = _born_bounds(axes[cs[lo:lo + step]] @ table)
                    for c, row in zip(cs[lo:lo + step], born):
                        hit = k_final < row[label]
                        up_hits = int(np.count_nonzero(hit[:n_up]))
                        ups[c][0] += up_hits
                        ups[c][1] += int(np.count_nonzero(hit)) - up_hits
                absorbed_at[n] += absorbed_total
            if n == len(rotations):
                break
            table = rotations[n] @ table
            k = table.shape[1]
            absorbed = absorbs(words(n, 0, start, m))
            ends_up = top_bits(n, 1, start, m) < _born_bounds(table[2])[label]
            # A uniform lies in [0, 1), so at p_pump 0 no pump succeeds and
            # the pump stream is not drawn.
            if p_pump > 0.0:
                ends_up |= pumps(words(n, 2, start, m))
            label = np.where(absorbed, (k + 1) - ends_up, label)
            table = np.concatenate((table, poles), axis=1)
            if k + 2 > m:
                table, label = _compact(table, label)
            absorbed_total += int(np.count_nonzero(absorbed))
    return ups, absorbed_at


def run_ensembles(sweep: Sweep, n_per_initial: int, master_seed: int, *,
                  chunk_size: int = DEFAULT_CHUNK) -> list[EnsembleStats]:
    """Both initializations at each point of a sweep, walked once to the
    largest pulse count: the sampled ``protocol.conditional_matrices``.
    Raises ``ValueError`` naming the first argument not an int in range."""
    _check_arguments(("n_per_initial", n_per_initial, 1, math.inf),
                     ("chunk_size", chunk_size, 1, math.inf),
                     ("master_seed", master_seed, 0, 2**64))
    if not sweep.times:
        return []
    n = n_per_initial
    ups, absorbed = _walk(sweep, master_seed, n, chunk_size)
    return [EnsembleStats(tuple(up), n, absorbed[k], 2 * n * k, master_seed)
            for k, up in zip(sweep.counts, ups)]


def run_ensemble(run: Sweep, n_per_initial: int, master_seed: int,
                 *, chunk_size: int = DEFAULT_CHUNK) -> EnsembleStats:
    """Both initializations of a one-time sweep with disjoint stream indices
    ([0,n) and [n,2n))."""
    return run_ensembles(run, n_per_initial, master_seed,
                         chunk_size=chunk_size)[0]

