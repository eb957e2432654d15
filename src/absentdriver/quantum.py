"""Sparse statevector strategies for the rule "measure a qubit; 0 means exit".

The state for an ``m``-intersection problem carries one qubit per
intersection, and the leftmost symbol of a ket like ``|01>`` belongs to the
first intersection.  At intersection ``i`` the driver measures qubit ``i``
and exits on outcome 0, otherwise keeps driving.

A state stores only the kets it lists, keyed by their bit strings, so its
cost grows with those kets and not with ``2**m``.  Nothing here builds all
``2**m`` kets: a product state, listed as every one of its kets, reproduces
the classical stationary strategy, while an entangled plan such as
``|01> + |10>`` lists only the kets it needs.  Destination ``i`` collects
``|amplitude|**2`` over every basis string whose first 0 sits at position
``i``, and the all-ones string feeds the terminal; this equals the
sequential collapse computation because the measurements are all in the
computational basis.

:class:`StateVector` is the one place a norm is checked and divided out.  It and
:func:`build_state` with ``normalize`` take the norm at a power-of-two scale.
Terms are Python strings and complex numbers; a norm and a distribution's total
are ``math.fsum`` sums, so neither depends on the order the terms are listed in.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import lt, mul

from .model import DestinationDistribution, _Frozen, _exponent

# A state's amplitudes are accepted up to this deviation of their norm from 1.
INPUT_NORM_TOL = 1e-6
# Below this the stored amplitudes are left untouched: a state normalized once,
# by build_state(normalize=True) or by its author, is not divided again, so its
# floats and the numbers printed from them stay as given.
_RESCALE_SKIP = 1e-13
# str.translate with this table deletes every 0 and 1: what is left is not a bit
_NOT_BITS = str.maketrans("", "", "01")


def _scaled(values: list[complex]) -> tuple[int, float, float]:
    """``(shift, scaled_norm, norm)``: ``values`` times ``2**-shift`` lie exactly below 1,
    their norm ``scaled_norm`` cannot over- or underflow, and ``norm`` is it scaled back
    (inf past the range).  The one check for non-finite amplitudes."""
    parts = [v.real for v in values] + [v.imag for v in values]
    if not all(map(math.isfinite, parts)):
        raise ValueError("amplitudes must be finite")
    shift = _exponent(parts or (0.0,))
    parts = list(map(math.ldexp, parts, repeat(-shift)))
    scaled_norm = math.sqrt(math.fsum(map(mul, parts, parts)))
    try:
        return shift, scaled_norm, math.ldexp(scaled_norm, shift)
    except OverflowError:
        return shift, scaled_norm, math.inf


class StateVector(_Frozen):
    """Unit-norm state stored as its basis strings ``bits`` and amplitudes ``values``.

    ``bits`` is a tuple of equal-width ``0``/``1`` strings, the first
    intersection's qubit leftmost; labels of any other type are rejected.
    Terms are stored sorted by their strings, which for equal widths is
    basis-index order, exact zeros dropped.  A norm within
    ``INPUT_NORM_TOL`` of 1 is divided out (beyond ``_RESCALE_SKIP``), and
    any other is rejected.
    """

    bits: tuple[str, ...]
    values: tuple[complex, ...]

    def __init__(self, bits, values) -> None:
        if not all(isinstance(b, str) for b in bits):
            raise ValueError("bad basis strings: each must be a str")
        bits = list(map(str, bits))
        values = list(map(complex, values))
        if len(bits) != len(values):
            raise ValueError(f"bits ({len(bits)}) and values ({len(values)}) must match in length")
        norm = _scaled(values)[2]
        if abs(norm - 1.0) > INPUT_NORM_TOL:
            raise ValueError(f"not normalized: state norm is {norm!r} (pass normalize to rescale)")
        if abs(norm - 1.0) > _RESCALE_SKIP:
            values = [v / norm for v in values]
        widths = set(map(len, bits))
        width = max((1, *widths))
        if widths - {width} or "".join(bits).translate(_NOT_BITS):
            raise ValueError(f"bad basis strings: each must be {width} characters of 0 and 1")
        if not all(map(lt, bits, bits[1:])):  # strictly ascending needs no sort and has no repeat
            order = sorted(range(len(bits)), key=bits.__getitem__)
            bits, values = [bits[i] for i in order], [values[i] for i in order]
            repeated = [a for a, b in zip(bits, bits[1:]) if a == b]
            if repeated:
                raise ValueError(f"duplicate term: {repeated[0]!r}")
        # compress keeps the terms whose amplitude is truthy: exact zeros are dropped
        object.__setattr__(self, "bits", tuple(compress(bits, values)))
        object.__setattr__(self, "values", tuple(compress(values, values)))

    @property
    def num_qubits(self) -> int:
        return len(self.bits[0])


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
    # not zip(*pairs): its iterator per pair sets off the garbage collector on long plans
    bits, amplitudes = [b for b, _ in pairs], [a for _, a in pairs]
    if len(set(map(len, bits))) > 1:
        raise ValueError("ragged terms: basis strings have mixed lengths")
    if not bits[0]:
        raise ValueError("empty basis string: a ket needs one bit per intersection")
    if normalize:
        values = list(map(complex, amplitudes))
        shift, scaled_norm, _ = _scaled(values)
        if scaled_norm == 0.0:
            raise ValueError("not normalized: zero state cannot be rescaled")
        amplitudes = [complex(math.ldexp(v.real, -shift), math.ldexp(v.imag, -shift)) / scaled_norm
                      for v in values]
    return StateVector(bits, amplitudes)


def first_zero_distribution(state: StateVector) -> DestinationDistribution:
    """Distribution over destinations induced by the first-zero exit rule."""
    m = state.num_qubits
    probs = [0.0] * (m + 1)
    for bits, amplitude in zip(state.bits, state.values):
        # 0-based slot of each ket: its first 0, or when it has none find's -1, the terminal
        weight = abs(amplitude)
        probs[bits.find("0")] += weight * weight
    total = math.fsum(probs)
    return DestinationDistribution([p / total for p in probs])
