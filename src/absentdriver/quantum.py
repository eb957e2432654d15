"""Sparse statevector strategies for the rule "measure a qubit; 0 means exit".

The state for an ``m``-intersection problem carries one qubit per
intersection, and the leftmost symbol of a ket like ``|01>`` belongs to the
first intersection.  At intersection ``i`` the driver measures qubit ``i``
and exits on outcome 0, otherwise keeps driving.

A state stores only the kets it lists, so a GHZ or W plan costs the same at
any qubit count.  Destination ``i`` collects ``|amplitude|**2`` over every
basis string whose first 0 sits at position ``i``, and the all-ones string
feeds the terminal; this equals the sequential collapse computation because
the measurements are all in the computational basis.  Flipping every bit
(``2**m - 1 - index``) turns the leading run of ones into leading zeros, so
the first 0 sits at ``m + 1 - bit_length(2**m - 1 - index)``, and the
all-ones string (bit length 0) maps to the terminal ``m + 1``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classical import DestinationDistribution
from .model import DriveProblem

# product_state holds 2**m terms; the first-zero map is exact below 2**53.
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
    """Unit-norm state stored as its basis ``indices`` and their amplitude ``values``.

    An index is the bit string's value with the first intersection's qubit
    most significant.  Terms are stored sorted by index, exact zeros dropped.
    """

    num_qubits: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        m = int(self.num_qubits)
        if not 1 <= m <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {m}")
        indices = np.asarray(self.indices)
        values = np.asarray(self.values, dtype=complex)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError(f"indices {indices.shape} and values {values.shape} must match and be 1-d")
        if indices.dtype.kind not in "iu":
            raise ValueError(f"basis indices must be integers, got dtype {indices.dtype}")
        if not np.isfinite(values).all():
            raise ValueError("amplitudes must be finite")
        order = np.argsort(indices, kind="stable")
        indices, values = indices[order].astype(np.int64), values[order]
        repeated = indices[1:][np.diff(indices) == 0]
        if repeated.size:
            raise ValueError(f"duplicate term: {format(int(repeated[0]), f'0{m}b')!r}")
        if indices.size and (indices[0] < 0 or indices[-1] >= 2**m):
            raise ValueError(f"basis index out of range for {m} qubits")
        norm = float(np.linalg.norm(values))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"not normalized: state norm is {norm!r}")
        object.__setattr__(self, "num_qubits", m)
        nonzero = values != 0
        for name, array in (("indices", indices[nonzero]), ("values", values[nonzero])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    @property
    def probabilities(self) -> np.ndarray:
        """``|amplitude|**2`` per stored term, aligned with ``indices``."""
        return np.abs(self.values) ** 2

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only dense view over all ``2**m`` strings, built in O(2**m) per read."""
        amps = np.zeros(2**self.num_qubits, dtype=complex)
        amps[self.indices] = self.values
        amps.setflags(write=False)
        return amps


def build_state(terms, normalize: bool = False) -> StateVector:
    """Assemble a state from listed kets; amplitudes elsewhere are zero.

    ``terms`` is an iterable of :class:`BasisTerm` or ``(bits, amplitude)``
    pairs, all with the same bit-string length, in any order.  With
    ``normalize`` the result is rescaled to unit norm; without it, norms
    further than ``INPUT_NORM_TOL`` from 1 are rejected.
    """
    parsed = [t if isinstance(t, BasisTerm) else BasisTerm(*t) for t in terms]
    if not parsed:
        raise ValueError("empty state: at least one basis term is required")
    m = len(parsed[0].bits)
    if any(len(t.bits) != m for t in parsed):
        raise ValueError("ragged terms: basis strings have mixed lengths")
    if m > MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {m}")
    values = np.array([t.amplitude for t in parsed], dtype=complex)
    norm = float(np.linalg.norm(values))
    if normalize:
        if norm == 0.0:
            raise ValueError("not normalized: zero state cannot be rescaled")
    elif abs(norm - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"not normalized: state norm is {norm!r} (pass normalize to rescale)")
    if abs(norm - 1.0) > _RESCALE_SKIP:
        values = values / norm
    return StateVector(m, [int(t.bits, 2) for t in parsed], values)


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
    return StateVector(num_qubits, np.arange(amps.size), amps)


def first_zero_destination(index, num_qubits: int) -> np.ndarray:
    """Destination (1-based) of each basis index; ``frexp`` gives bit lengths exactly."""
    _, bit_length = np.frexp((2**num_qubits - 1 - np.asarray(index)).astype(float))
    return num_qubits + 1 - bit_length


def first_zero_distribution(state: StateVector) -> DestinationDistribution:
    """Distribution over destinations induced by the first-zero exit rule."""
    m = state.num_qubits
    dest = first_zero_destination(state.indices, m)
    probs = np.bincount(dest - 1, weights=state.probabilities, minlength=m + 1)
    total = float(probs.sum())
    if abs(total - 1.0) > 2 * STATE_NORM_TOL:
        raise ValueError(f"not normalized: probabilities sum to {total!r}")
    return DestinationDistribution(probs / total)


def check_qubit_count(state: StateVector, num_intersections: int) -> None:
    """Reject a plan that does not carry one qubit per intersection."""
    if state.num_qubits != num_intersections:
        raise ValueError(
            "strategy/problem mismatch: "
            f"{state.num_qubits} qubits for {num_intersections} intersections"
        )


def quantum_expected_payoff(problem: DriveProblem, state: StateVector) -> float:
    """Expected payoff of driving ``problem`` with the measurement plan ``state``."""
    check_qubit_count(state, problem.num_intersections)
    dist = first_zero_distribution(state)
    return float(dist.probs @ np.asarray(problem.destination_payoffs))
