"""Seeded Monte Carlo runs of the drive, for cross-checking the closed forms.

Determinism contract: a report depends only on ``(seed, trials, problem,
strategy)``.  A run draws the stream of numpy's ``default_rng(seed).binomial``
(the PCG64 generator of O'Neill, HMC-CS-2014-0905, seeded through numpy's
``SeedSequence``, feeding the inversion and BTPE binomial samplers of
Kachitvichyanukul & Schmeiser, CACM 31(2), 1988), computed here in Python
integers and floats, bit for bit, with or without numpy installed.  Each C
expression keeps its evaluation order: a reordered product changes last bits.

A run drives its ``trials`` cars as one population: at intersection ``j`` a
binomial draw of the ``left`` cars still on the highway exits, with the
step exit probability, and whoever is left at the end reaches the terminal.
That is the conditional-binomial method for multinomial variates (Davis,
Comput. Stat. Data Anal. 16(2), 1993): the counts have the distribution of
``trials`` separate drives, for at most ``m`` draws and O(m) memory, not
``trials * m`` uniforms.  Every strategy supplies its step probabilities, so
the draws never use the product form they check.  A quantum plan's steps are
its exit hazards, ``d_j / (d_j + ... + d_(m+1))`` over the first-zero
distribution ``d``: simulating a plan checks the sampler and the hazards,
not the first-zero map.  Mean and variance sum with ``math.fsum`` over the
destinations that cars reached, the variance as a corrected two-pass sum over
deviations from the mean.
"""

from __future__ import annotations

import math
from itertools import compress

from .classical import Strategy, step_exit_probabilities
from .model import DestinationDistribution, DriveProblem, _Frozen, _exponent

_MAX_SEED = 2**64
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash32(value: int, const: int, mult: int) -> tuple[int, int]:
    """One SeedSequence hash step: the hashed word and the next hash constant."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` for ``0 <= seed < 2**64``."""
    # the seed's one or two 32-bit words, low first, fill a pool of 4 padded with
    # zeros: no word is left over to mix in after the pool
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool, const = [], _INIT_A
    for word in entropy + [0] * (4 - len(entropy)):
        word, const = _hash32(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hash32(pool[src], const, _MULT_A)
                word = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * word) & _MASK32
                pool[dst] = word ^ word >> 16
    words, const = [], _INIT_B
    for i in range(8):
        word, const = _hash32(pool[i % 4], const, _MULT_B)
        words.append(word)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _stirling(x: float) -> float:
    """The Stirling-series term of BTPE's final acceptance test at ``x``."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


class _Binomials:
    """``numpy.random.default_rng(seed).binomial(n, p)``, one scalar draw per call."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int) -> None:
        # pcg64_set_seed: from state 0 one step gives inc; add the seed and step again
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _MASK128

    def double(self) -> float:
        """One LCG step, its XSL-RR output, and the top 53 bits as a float in [0, 1)."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53

    def binomial(self, n: int, p: float) -> int:
        """numpy's ``random_binomial``: a draw of ``p`` or, reflected, of ``1 - p < 0.5``."""
        if n == 0 or p == 0.0:
            return 0
        r = min(p, 1.0 - p)
        y = self._inversion(n, r) if r * n <= 30.0 else self._btpe(n, r)
        return y if p <= 0.5 else n - y

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        np_ = n * p
        bound = min(n, int(np_ + 10.0 * math.sqrt(np_ * q + 1)))
        x, px, u = 0, qn, self.double()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.double()
            else:
                u -= px
                px = (n - x + 1) * p * px / (x * q)
        return x

    def _btpe(self, n: int, r: float) -> int:
        # r <= 0.5 here, so numpy's min(p, 1 - p) is r and its Step 60 never reflects
        log, floor, double = math.log, math.floor, self.double
        q = 1.0 - r
        fm = n * r + r
        m = floor(fm)
        p1 = floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr, c = xm - p1, xm + p1, 0.134 + 20.5 / (15.3 + m)
        a, b = (fm - xl) / (fm - xl * r), (xr - fm) / (xr * q)
        laml, lamr = a * (1.0 + a / 2.0), b * (1.0 + b / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4, nrq = p3 + c / lamr, n * r * q
        while True:  # Step 10
            u = double() * p4
            v = double()
            if u <= p1:
                return floor(xm - p1 * v + u)
            if u <= p2:  # Step 20
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif v == 0.0:  # Steps 30 and 40 reject it, after C's undefined cast of log(0)
                continue
            elif u <= p3:  # Step 30
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # Step 40
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:  # Step 50
                s = r / q
                a = s * (n + 1)
                f = 1.0
                for i in range(m + 1, y + 1):
                    f *= a / i - s
                for i in range(y + 1, m + 1):
                    f /= a / i - s
                if v <= f:
                    return y
                continue
            # Step 52: squeeze, then the Stirling bound; C's log of v <= 0 accepts y
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = log(v) if v > 0.0 else -math.inf
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
            if big_a <= (xm * log(f1 / x1) + (n - m + 0.5) * log(z / w)
                         + (y - m) * log(w * r / (x1 * q))
                         + _stirling(f1) + _stirling(x1) + _stirling(z) + _stirling(w)):
                return y


class SimulationReport(_Frozen):
    """Summary of one batch of trials."""

    def __init__(self, trials: int, mean_payoff: float, std_error: float,
                 empirical_distribution: DestinationDistribution, seed: int) -> None:
        self.__dict__.update(trials=trials, mean_payoff=mean_payoff, std_error=std_error,
                             empirical_distribution=empirical_distribution, seed=seed)


def estimate_payoff(
    problem: DriveProblem, strategy: Strategy, trials: int, seed: int
) -> SimulationReport:
    """Mean payoff, standard error, and empirical distribution over ``trials`` runs."""
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (trials, seed)):
        raise ValueError(f"trials and seed must be integers, got {trials!r} and {seed!r}")
    if trials < 1:
        raise ValueError(f"no trials: trials must be >= 1, got {trials}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")

    steps = step_exit_probabilities(problem, strategy)
    rng = _Binomials(seed)
    counts = [0] * (len(steps) + 1)
    left = trials
    for j, p in enumerate(steps):
        counts[j] = out = rng.binomial(left, p)
        left -= out
        if left == 0:
            break
    counts[-1] = left

    # only the payoffs that cars reached, scaled by a power of two to below 1 so that no
    # sum of squares overflows: exactly, for each within a factor 2**1021 of the largest
    kept = list(compress(counts, counts))
    reached = list(compress(problem.destination_payoffs, counts))
    shift = _exponent(reached)
    payoffs = [math.ldexp(v, -shift) for v in reached]
    mean = math.fsum(c * v for c, v in zip(kept, payoffs)) / trials
    # corrected two-pass sum (Chan, Golub & LeVeque, Am. Stat. 37(3), 1983): the
    # deviations keep the spread of payoffs near one large value, and the second
    # sum takes out the error of the rounded mean
    deviations = [v - mean for v in payoffs]
    squares = math.fsum(c * (d * d) for c, d in zip(kept, deviations))
    correction = math.fsum(c * d for c, d in zip(kept, deviations))
    variance = max(squares - correction * correction / trials, 0.0) / max(trials - 1, 1)
    # each scaled |payoff| <= 1 - 2**-53, so mean and std error are too: ldexp stays finite
    return SimulationReport(
        trials=trials,
        mean_payoff=math.ldexp(mean, shift),
        std_error=math.ldexp(math.sqrt(variance / trials), shift),
        empirical_distribution=DestinationDistribution([c / trials for c in counts]),
        seed=seed,
    )
