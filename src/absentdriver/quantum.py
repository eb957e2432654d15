"""Sparse statevector strategies for the rule "measure a qubit; 0 means exit".

The state for an ``m``-intersection problem carries one qubit per
intersection, and the leftmost symbol of a ket like ``|01>`` belongs to the
first intersection.  At intersection ``i`` the driver measures qubit ``i``
and exits on outcome 0, otherwise keeps driving.

A state stores only the kets it lists, keyed by their bit strings, so its
cost grows with those kets and not with ``2**m``.  Destination ``i`` collects
``|amplitude|**2`` over every basis string whose first 0 sits at position
``i``, and the all-ones string feeds the terminal; this equals the
sequential collapse computation because the measurements are all in the
computational basis.

:class:`StateVector` is the one place a norm is checked and divided out.  It and
:func:`build_state` with ``normalize`` take the norm at a power-of-two scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DestinationDistribution, Stationary

# Caps only product_state, which holds all 2**m strings.
MAX_QUBITS = 20

# A state's amplitudes are accepted up to this deviation of their norm from 1.
INPUT_NORM_TOL = 1e-6
# Below this the stored amplitudes are left untouched, so emitting a state
# and parsing it back reproduces the exact same floats.
_RESCALE_SKIP = 1e-13


def _scaled(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(scaled, scaled_norm, norm)``: ``values`` scaled exactly below 1 by a power of
    two, their norm, which cannot over- or underflow, and it scaled back (inf past the range)."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    shift = math.frexp(np.abs(parts).max(initial=0.0))[1]
    scaled = np.ldexp(parts, -shift).view(complex)
    scaled_norm = float(np.linalg.norm(scaled))
    with np.errstate(over="ignore"):
        return scaled, scaled_norm, float(np.ldexp(scaled_norm, shift))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm state stored as its basis strings ``bits`` and amplitudes ``values``.

    ``bits`` is a numpy ``S{m}`` array of fixed-width ``0``/``1`` strings,
    the first intersection's qubit leftmost.  Terms are stored sorted by
    their strings, which for equal widths is basis-index order, exact zeros
    dropped.  A norm within ``INPUT_NORM_TOL`` of 1 is divided out (beyond
    ``_RESCALE_SKIP``), and any other is rejected.
    """

    bits: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.bytes_)
        values = np.asarray(self.values, dtype=complex)
        if bits.ndim != 1 or bits.shape != values.shape:
            raise ValueError(f"bits {bits.shape} and values {values.shape} must match and be 1-d")
        if not np.isfinite(values).all():
            raise ValueError("amplitudes must be finite")
        norm = _scaled(values)[2]
        if abs(norm - 1.0) > INPUT_NORM_TOL:
            raise ValueError(f"not normalized: state norm is {norm!r} (pass normalize to rescale)")
        if abs(norm - 1.0) > _RESCALE_SKIP:
            values = values / norm
        codes = bits.view(np.uint8)
        if codes.size and not ord("0") <= codes.min() <= codes.max() <= ord("1"):
            raise ValueError(f"bad basis strings: each must be {bits.itemsize} characters of 0 and 1")
        if not (bits[1:] > bits[:-1]).all():  # strictly ascending needs no sort and has no repeat
            order = np.argsort(bits, kind="stable")
            bits, values = bits[order], values[order]
            repeated = bits[1:][bits[1:] == bits[:-1]]
            if repeated.size:
                raise ValueError(f"duplicate term: {repeated[0].decode()!r}")
        nonzero = values != 0
        for name, array in (("bits", bits[nonzero]), ("values", values[nonzero])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return np.array_equal(self.bits, other.bits) and np.array_equal(self.values, other.values)

    @property
    def num_qubits(self) -> int:
        return self.bits.itemsize


def build_state(terms, normalize: bool = False) -> StateVector:
    """Assemble a state from listed kets; amplitudes elsewhere are zero.

    ``terms`` is an iterable of ``(bits, amplitude)`` pairs: ``0``/``1``
    strings of one length, in any order, each checked by :class:`StateVector`.
    With ``normalize`` the amplitudes are first divided by their norm, at any
    magnitude; otherwise :class:`StateVector`'s norm rule takes them as given.
    """
    pairs = list(terms)
    if not pairs:
        raise ValueError("empty state: at least one basis term is required")
    bits, amplitudes = zip(*pairs)
    if len(set(map(len, bits))) > 1:
        raise ValueError("ragged terms: basis strings have mixed lengths")
    if not bits[0]:
        raise ValueError("empty basis string: a ket needs one bit per intersection")
    values = np.array(amplitudes, dtype=complex)
    if normalize:
        if not np.isfinite(values).all():  # before inf / inf can warn
            raise ValueError("amplitudes must be finite")
        scaled, scaled_norm, _ = _scaled(values)
        if scaled_norm == 0.0:
            raise ValueError("not normalized: zero state cannot be rescaled")
        values = scaled / scaled_norm
    return StateVector(np.array(bits, dtype=np.bytes_), values)


def product_state(alpha: float, num_qubits: int) -> StateVector:
    """Tensor power of ``sqrt(alpha)|0> + sqrt(1 - alpha)|1>``.

    Under the first-zero rule this reproduces the classical stationary
    strategy with exit probability ``alpha`` exactly.
    """
    a = Stationary(alpha).alpha
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {num_qubits}")
    amps = np.ones(1)
    for _ in range(num_qubits):  # one more qubit, in front: its 0 half, then its 1 half
        amps = np.concatenate((math.sqrt(a) * amps, math.sqrt(1.0 - a) * amps))
    # basis index i in 32 binary digits, most significant first: strings in index order
    index = np.arange(2**num_qubits, dtype=">u4").view(np.uint8)
    digits = np.unpackbits(index).reshape(-1, 32)[:, 32 - num_qubits:] + ord("0")
    bits = digits.view(f"S{num_qubits}").ravel()
    return StateVector(bits, amps)


def first_zero_distribution(state: StateVector) -> DestinationDistribution:
    """Distribution over destinations induced by the first-zero exit rule."""
    m = state.num_qubits
    # 0-based slot of each ket: its first 0, or the terminal slot m when it has none
    first_zero = np.strings.find(state.bits, b"0")
    slot = np.where(first_zero < 0, m, first_zero)
    probs = np.bincount(slot, weights=np.abs(state.values) ** 2, minlength=m + 1)
    return DestinationDistribution(probs / probs.sum())
