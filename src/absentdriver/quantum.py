"""Dense statevector strategies for the rule "measure a qubit; 0 means exit".

The state for an ``m``-intersection problem carries one qubit per
intersection, and the leftmost symbol of a ket like ``|01>`` belongs to the
first intersection.  At intersection ``i`` the driver measures qubit ``i``
and exits on outcome 0, otherwise keeps driving.

The destination distribution does not require simulating measurement
collapse: destination ``i`` collects ``|amplitude|**2`` over every basis
string whose first 0 sits at position ``i``, and the all-ones string feeds
the terminal.  This equals the sequential collapse computation because the
measurements are all in the computational basis.  With the first qubit as
the most significant bit, the strings whose first 0 is at ``i`` are exactly
the indices ``[2**m - 2**(m-i+1), 2**m - 2**(m-i))``: a leading run of
``i - 1`` ones, then a 0, then anything.  The ``m + 1`` destinations are
therefore ``m + 1`` contiguous index ranges, and the distribution is one
``np.add.reduceat`` over their starts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classical import DestinationDistribution
from .model import DriveProblem

# Dense 2**m storage; fine for desk-scale problems, refuse anything bigger.
MAX_QUBITS = 20

# Unnormalized input is accepted up to this deviation of the norm from 1.
INPUT_NORM_TOL = 1e-6
# Stored states keep |norm - 1| within this bound.
STATE_NORM_TOL = 1e-9
# Below this the stored amplitudes are left untouched, so emitting a state
# and parsing it back reproduces the exact same floats.
_RESCALE_SKIP = 1e-13


@dataclass(frozen=True)
class BasisTerm:
    """One ket of a state: a bit string and its complex amplitude."""

    bits: str
    amplitude: complex

    def __post_init__(self) -> None:
        if not self.bits or any(c not in "01" for c in self.bits):
            raise ValueError(f"bad basis string: {self.bits!r}")
        amp = complex(self.amplitude)
        if not cmath.isfinite(amp):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over the ``2**num_qubits`` basis strings.

    Amplitudes are indexed by the integer value of the bit string with the
    first intersection's qubit as the most significant bit.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        m = int(self.num_qubits)
        if not 1 <= m <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {m}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**m,):
            raise ValueError(f"expected {2**m} amplitudes for {m} qubits, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"not normalized: state norm is {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "num_qubits", m)
        object.__setattr__(self, "amplitudes", amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    @property
    def probabilities(self) -> np.ndarray:
        """``|amplitude|**2`` per basis string."""
        return np.abs(self.amplitudes) ** 2


def build_state(terms, normalize: bool = False) -> StateVector:
    """Assemble a state from listed kets; amplitudes elsewhere are zero.

    ``terms`` is an iterable of :class:`BasisTerm` or ``(bits, amplitude)``
    pairs, all with the same bit-string length.  With ``normalize`` the
    result is rescaled to unit norm; without it, norms further than
    ``INPUT_NORM_TOL`` from 1 are rejected.
    """
    parsed = [t if isinstance(t, BasisTerm) else BasisTerm(*t) for t in terms]
    if not parsed:
        raise ValueError("empty state: at least one basis term is required")
    m = len(parsed[0].bits)
    if any(len(t.bits) != m for t in parsed):
        raise ValueError("ragged terms: basis strings have mixed lengths")
    if m > MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {m}")
    seen = set()
    for t in parsed:
        if t.bits in seen:
            raise ValueError(f"duplicate term: {t.bits!r}")
        seen.add(t.bits)
    values = np.array([t.amplitude for t in parsed], dtype=complex)
    norm = float(np.linalg.norm(values))
    if normalize:
        if norm == 0.0:
            raise ValueError("not normalized: zero state cannot be rescaled")
    elif abs(norm - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"not normalized: state norm is {norm!r} (pass normalize to rescale)")
    if abs(norm - 1.0) > _RESCALE_SKIP:
        values = values / norm
    # Scale the listed terms, not the dense vector: most of it is zeros.
    amps = np.zeros(2**m, dtype=complex)
    amps[[int(t.bits, 2) for t in parsed]] = values
    return StateVector(m, amps)


def product_state(alpha: float, num_qubits: int) -> StateVector:
    """Tensor power of ``sqrt(alpha)|0> + sqrt(1 - alpha)|1>``.

    Under the first-zero rule this reproduces the classical stationary
    strategy with exit probability ``alpha`` exactly.
    """
    a = float(alpha)
    if not math.isfinite(a) or not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must be a probability in [0, 1], got {alpha!r}")
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {num_qubits}")
    single = np.array([math.sqrt(a), math.sqrt(1.0 - a)], dtype=complex)
    amps = single
    for _ in range(num_qubits - 1):
        amps = np.kron(amps, single)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > _RESCALE_SKIP:
        amps = amps / norm
    return StateVector(num_qubits, amps)


def first_zero_distribution(state: StateVector) -> DestinationDistribution:
    """Distribution over destinations induced by the first-zero exit rule."""
    m = state.num_qubits
    starts = 2**m - (1 << np.arange(m, -1, -1))
    probs = np.add.reduceat(state.probabilities, starts)
    total = float(probs.sum())
    if abs(total - 1.0) > 2 * STATE_NORM_TOL:
        raise ValueError(f"not normalized: probabilities sum to {total!r}")
    return DestinationDistribution(probs / total)


def quantum_expected_payoff(problem: DriveProblem, state: StateVector) -> float:
    """Expected payoff of driving ``problem`` with the measurement plan ``state``."""
    if state.num_qubits != problem.num_intersections:
        raise ValueError(
            "strategy/problem mismatch: "
            f"{state.num_qubits} qubits for {problem.num_intersections} intersections"
        )
    dist = first_zero_distribution(state)
    return float(dist.probs @ np.asarray(problem.destination_payoffs))
