import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from absentdriver import (
    Counting,
    Stationary,
    StateVector,
    build_state,
    destination_distribution,
    expected_payoff,
    first_zero_distribution,
    make_drive_problem,
)
from oracles import dense_amplitudes, product_state

INV_SQRT2 = 1 / math.sqrt(2)

BELL_01_10 = [("01", INV_SQRT2), ("10", INV_SQRT2)]          # exit first or second
SKIP_TWO = [("001", INV_SQRT2), ("110", INV_SQRT2)]          # exit first or third
THIRD_EXIT = [("110", 1.0)]                                  # always the third exit


def sequential_exit_distribution(state: StateVector) -> list[float]:
    """Oracle: measure qubit by qubit with explicit collapse.

    P(exit at i) = P(qubit i = 0 | earlier all 1) * P(all earlier were 1),
    tracked by slicing the surviving branch out of the state and
    renormalizing after every continue outcome.
    """
    m = state.num_qubits
    vec = dense_amplitudes(state).reshape([2] * m)
    survival = 1.0
    probs = []
    for _ in range(m):
        weights = np.abs(vec) ** 2
        total = float(weights.sum())
        p0 = float(weights[0].sum()) / total
        p1 = float(weights[1].sum()) / total
        probs.append(survival * p0)
        if p1 == 0.0:
            survival = 0.0
            break
        vec = vec[1] / math.sqrt(float(weights[1].sum()))  # renormalized collapse
        survival *= p1
    probs += [0.0] * (m - len(probs))
    probs.append(survival)
    return probs


def all_strings(m: int) -> list[str]:
    """Every ``m``-bit string, in basis-index order."""
    return [format(index, f"0{m}b") for index in range(2**m)]


def sparse_terms(rng: random.Random, m: int) -> list[tuple[str, complex]]:
    """Up to 40 distinct kets on ``m`` qubits, their first zeros spread over the
    drive, each amplitude part ``+-10**U(lo, hi)``: across a plan the parts span
    1e-200..1e200 or a window of six decades inside it."""
    lo = rng.uniform(-200.0, 194.0)
    lo, hi = rng.choice([(-200.0, 200.0), (lo, lo + 6.0)])
    kets = set()
    for _ in range(rng.randint(1, 40)):
        first = rng.randint(0, m)  # m: no 0, the terminal
        tail = "".join(rng.choice("01") for _ in range(m - first - 1))
        kets.add("1" * first + ("0" + tail if first < m else ""))

    def part() -> float:
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)

    return [(bits, complex(part(), part())) for bits in sorted(kets)]


def random_state(rng: np.random.Generator, m: int) -> StateVector:
    amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    return StateVector(all_strings(m), amps / np.linalg.norm(amps))


class TestBuildState:
    def test_bell_amplitudes_placed(self):
        state = build_state(BELL_01_10)
        assert state.num_qubits == 2
        assert dense_amplitudes(state) == pytest.approx([0, INV_SQRT2, INV_SQRT2, 0])

    def test_single_ket(self):
        state = build_state(THIRD_EXIT)
        assert dense_amplitudes(state) == pytest.approx([0, 0, 0, 0, 0, 0, 1, 0])

    def test_unnormalized_without_flag(self):
        with pytest.raises(ValueError, match="not normalized"):
            build_state([("0", 1.0), ("1", 1.0)])

    def test_normalize_flag_rescales(self):
        state = build_state([("0", 1.0), ("1", 1.0)], normalize=True)
        assert dense_amplitudes(state) == pytest.approx([INV_SQRT2, INV_SQRT2])

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.7e308, 5e-324, 0.3j])
    def test_normalize_at_any_magnitude(self, scale):
        # the norm of the raw amplitudes overflows to inf or underflows to 0
        state = build_state([("0", scale), ("1", scale)], normalize=True)
        base = build_state([("0", 1.0), ("1", 1.0)], normalize=True)
        phase = scale / abs(scale)
        assert state.values == pytest.approx([v * phase for v in base.values], rel=1e-15)

    def test_duplicate_term(self):
        with pytest.raises(ValueError, match="duplicate term"):
            build_state([("01", INV_SQRT2), ("01", INV_SQRT2)])

    def test_ragged_terms(self):
        with pytest.raises(ValueError, match="ragged terms"):
            build_state([("01", INV_SQRT2), ("110", INV_SQRT2)])

    def test_bad_bits(self):
        with pytest.raises(ValueError, match="bad basis string"):
            build_state([("0x1", 1.0)])

    def test_empty_bits(self):
        with pytest.raises(ValueError, match="empty basis string"):
            build_state([("", 1.0)])

    @pytest.mark.parametrize("amplitude", [math.inf, complex(0.0, -math.inf), math.nan])
    def test_non_finite_amplitude_rejected_before_scaling(self, amplitude):
        # scaling by an infinite norm would warn on inf / inf first
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            build_state([("0", amplitude), ("1", 1.0)], normalize=True)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            build_state([("01", 0.0)], normalize=True)

    def test_term_order_does_not_matter(self):
        terms = [("110", 0.6), ("001", 0.8j), ("011", 0.0)]
        state = build_state(terms)
        assert state == build_state(terms[::-1])
        assert state.bits == ("001", "110")

    def test_no_qubit_cap_on_listed_kets(self):
        state = build_state([("0" * 21, 1.0)])
        assert state.num_qubits == 21
        assert state.bits == ("0" * 21,)

    def test_complex_amplitudes_supported(self):
        state = build_state([("0", 1j * INV_SQRT2), ("1", INV_SQRT2)])
        assert abs(np.linalg.norm(dense_amplitudes(state)) - 1.0) < 1e-12


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match=r"^bits \(2\) and values \(1\) must match in length$"):
            StateVector(["01", "10"], [1.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(["0", "1"], [1.0, 1.0])

    @pytest.mark.parametrize("amplitude", [math.inf, complex(0.0, -math.inf), math.nan])
    def test_rejects_non_finite_amplitudes(self, amplitude):
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            StateVector(["0", "1"], [amplitude, 0.0])

    def test_not_equal_to_a_foreign_type(self):
        state = build_state(THIRD_EXIT)
        assert state.__eq__(state.values) is NotImplemented
        assert state != "110"

    def test_near_unit_norm_rescaled(self):
        # norm 1 + 2.7e-8: inside the 1e-6 rule that build_state applies too
        state = StateVector(["0", "1"], [0.7071068] * 2)
        assert state == build_state([("0", 0.7071068), ("1", 0.7071068)])
        assert abs(np.linalg.norm(state.values) - 1.0) < 1e-15

    def test_rejects_norm_past_tolerance(self):
        # norm 1 + 2.0e-6
        with pytest.raises(ValueError, match=r"^not normalized: state norm is .* \(pass normalize to rescale\)$"):
            StateVector(["0", "1"], [0.7071082] * 2)

    @pytest.mark.parametrize(
        "bits",
        [["2"], ["0x"], ["01", "1"], ["0\x001"], [""], [0.5, 2.7], [False, True], [1, 6],
         [0, 1], [10, 11], ["0", 1]],
    )
    def test_rejects_bad_strings(self, bits):
        with pytest.raises(ValueError, match="bad basis strings"):
            StateVector(bits, np.full(len(bits), len(bits) ** -0.5))

    def test_rejects_duplicate_string(self):
        with pytest.raises(ValueError, match="duplicate term: '01'"):
            StateVector(["01", "01"], [INV_SQRT2, INV_SQRT2])

    @pytest.mark.parametrize("bits", [[b"01", b"10"], ["01", b"10"], np.array([b"01", b"10"])])
    def test_rejects_bytes(self, bits):
        # labels are str; numpy's bytes_ labels are bytes and are rejected too
        with pytest.raises(ValueError, match="^bad basis strings: each must be a str$"):
            StateVector(bits, [INV_SQRT2, INV_SQRT2])

    def test_stores_sorted_terms_without_zeros(self):
        state = StateVector(["110", "000", "011"], [INV_SQRT2, 0.0, INV_SQRT2])
        assert state.bits == ("011", "110")
        assert state.values == (INV_SQRT2, INV_SQRT2)
        assert state == build_state([("011", INV_SQRT2), ("110", INV_SQRT2)])

    def test_terms_read_only(self):
        state = build_state(THIRD_EXIT)
        for terms in (state.bits, state.values):
            with pytest.raises(TypeError):
                terms[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.values = (0.0,)

    @pytest.mark.parametrize("bits", [["01", "10"], ["10", "01"]])
    def test_keeps_its_own_copy(self, bits):
        # input already in order skips the sort, but is never shared either;
        # numpy's str_ labels are str
        bits, values = np.array(bits), np.full(2, INV_SQRT2, dtype=complex)
        state = StateVector(bits, values)
        bits[0], values[0] = "11", 0.0
        assert state.bits == ("01", "10")
        assert state.values == (INV_SQRT2, INV_SQRT2)


class TestProductState:
    def test_alpha_third_two_qubits(self):
        # tensor arithmetic: (1/sqrt3, sqrt(2/3)) x (1/sqrt3, sqrt(2/3))
        state = product_state(1 / 3, 2)
        root2 = math.sqrt(2.0)
        want = [1 / 3, root2 / 3, root2 / 3, 2 / 3]
        assert dense_amplitudes(state) == pytest.approx(want, abs=1e-15)

    def test_alpha_one_always_exits(self):
        state = product_state(1.0, 3)
        assert dense_amplitudes(state) == pytest.approx([1] + [0] * 7)

    def test_alpha_zero_never_exits(self):
        state = product_state(0.0, 2)
        assert dense_amplitudes(state) == pytest.approx([0, 0, 0, 1])

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_lists_every_string_in_index_order(self, m):
        assert product_state(0.3, m).bits == tuple(all_strings(m))


class TestFirstZeroDistribution:
    def test_bell_state_on_two_intersections(self):
        dist = first_zero_distribution(build_state(BELL_01_10))
        assert dist.probs == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_skip_two_state(self):
        dist = first_zero_distribution(build_state(SKIP_TWO))
        assert dist.probs == pytest.approx([0.5, 0.0, 0.5, 0.0], abs=1e-12)

    def test_deterministic_third_exit(self):
        dist = first_zero_distribution(build_state(THIRD_EXIT))
        assert dist.probs == pytest.approx([0, 0, 1, 0], abs=0)

    def test_matches_sequential_collapse_on_named_states(self):
        for terms in (BELL_01_10, SKIP_TWO, THIRD_EXIT):
            state = build_state(terms)
            batch = first_zero_distribution(state).probs
            assert batch == pytest.approx(sequential_exit_distribution(state), abs=1e-9)

    def test_matches_sequential_collapse_on_random_states(self):
        rng = np.random.default_rng(424242)
        for _ in range(20):
            state = random_state(rng, 3)
            batch = first_zero_distribution(state).probs
            assert batch == pytest.approx(sequential_exit_distribution(state), abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 18, 19, 20])
    def test_matches_classical_stationary(self, m):
        # At 18+ qubits the 2**m weights can sum more than 1e-12 away from 1,
        # which the distribution's sum check rejects unless the bins renormalise.
        problem = make_drive_problem([1.0] * m, 0.0)
        alphas = np.linspace(0.0, 1.0, 11) if m <= 4 else (0.3, 0.7)
        for alpha in alphas:
            quantum = np.asarray(first_zero_distribution(product_state(alpha, m)).probs)
            classical = destination_distribution(problem, Stationary(alpha)).probs
            assert np.abs(quantum - classical).max() <= 1e-12

    @pytest.mark.parametrize("m", range(1, 11))
    def test_basis_states_land_at_their_first_zero(self, m):
        for index in range(2**m):
            bits = format(index, f"0{m}b")
            expected = bits.find("0") + 1 if "0" in bits else m + 1
            probs = np.asarray(first_zero_distribution(build_state([(bits, 1.0)])).probs)
            assert probs.tolist() == [float(d == expected) for d in range(1, m + 2)]

    @pytest.mark.parametrize("m", [64, 1024])
    def test_single_kets_past_float_precision(self, m):
        # Past 53 qubits a ket's index has no exact float; its string still
        # names the first 0.
        rng = np.random.default_rng(m)
        for first in (1, 2, 12, 53, 54, m - 1, m):
            tail = "".join(rng.choice(["0", "1"], m - first))
            probs = np.asarray(first_zero_distribution(build_state([("1" * (first - 1) + "0" + tail, 1.0)])).probs)
            assert probs.tolist() == [float(d == first) for d in range(1, m + 2)]
        assert first_zero_distribution(build_state([("1" * m, 1.0)])).probs[-1] == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_plans_match_exact_arithmetic(self, seed):
        # Each probability against the exact ratio of its slot's |v|**2 sum to
        # the whole, over the stored floats: within n + 2 relative roundings of
        # 2**-53 for n stored terms, plus one subnormal step 2**-1074 a term
        # for squares below the normal range.
        rng = random.Random(seed)
        for m in (1, 2, 7, 64, 1100, *(rng.randint(1, 1100) for _ in range(3))):
            terms = sparse_terms(rng, m)
            state = build_state(terms, normalize=True)
            weights = [Fraction(0)] * (m + 1)
            for bits, v in zip(state.bits, state.values):
                slot = bits.find("0")
                weights[slot if slot >= 0 else m] += Fraction(v.real) ** 2 + Fraction(v.imag) ** 2
            total, n = sum(weights), len(state.bits)
            probs = first_zero_distribution(state).probs
            for p, w in zip(probs, weights):
                exact = w / total
                assert abs(Fraction(p) - exact) <= (n + 2) * exact / 2**53 + Fraction(n, 2**1074)
            for _ in range(3):  # the input order changes no stored value and no probability
                rng.shuffle(terms)
                shuffled = build_state(terms, normalize=True)
                assert shuffled == state
                assert [p.hex() for p in first_zero_distribution(shuffled).probs] == [p.hex() for p in probs]

    @pytest.mark.parametrize("m", [3, 10, 20, 1024])
    def test_at_most_one_zero_state_is_counting(self, m):
        # One ket per destination: a single 0 at position i, or no 0 at all.
        # Uniform amplitudes give the counting strategy with no counter.
        terms = [("1" * i + "0" + "1" * (m - i - 1), 1.0) for i in range(m)]
        state = build_state([*terms, ("1" * m, 1.0)], normalize=True)
        problem = make_drive_problem([0.0] * m, 0.0)
        counting = destination_distribution(problem, Counting()).probs
        assert first_zero_distribution(state).probs == pytest.approx(counting, abs=1e-15)

    @given(theta=st.floats(min_value=0, max_value=2 * math.pi), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_phase_invariance(self, theta, seed):
        state = random_state(np.random.default_rng(seed), 3)
        rotated = StateVector(state.bits, np.asarray(state.values) * np.exp(1j * theta))
        base = first_zero_distribution(state).probs
        assert np.abs(np.asarray(first_zero_distribution(rotated).probs) - base).max() <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5))
    @settings(max_examples=60)
    def test_normalization(self, seed, m):
        state = random_state(np.random.default_rng(seed), m)
        assert abs(np.asarray(first_zero_distribution(state).probs).sum() - 1.0) <= 1e-9


class TestQuantumExpectedPayoff:
    def test_bell_doubles_example1(self):
        problem = make_drive_problem([0, 4], 1)
        assert expected_payoff(problem, build_state(BELL_01_10)) == pytest.approx(2.0)

    def test_skip_two_averages_first_and_third(self):
        problem = make_drive_problem([7, 99, 3], 0)
        payoff = expected_payoff(problem, build_state(SKIP_TWO))
        assert payoff == pytest.approx((7 + 3) / 2, abs=1e-12)

    def test_product_state_equals_stationary_payoff(self):
        problem = make_drive_problem([0, 4], 1)
        payoff = expected_payoff(problem, product_state(1 / 3, 2))
        assert payoff == pytest.approx(4 / 3, abs=1e-12)

    def test_dimension_mismatch(self):
        problem = make_drive_problem([0, 4], 1)
        with pytest.raises(ValueError, match="strategy/problem mismatch"):
            expected_payoff(problem, build_state(THIRD_EXIT))
