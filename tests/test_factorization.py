from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import resolvent_scalar
from semidecay import factorization, generate_instance, spectral
from semidecay.config import DEFAULT_TOLERANCES
from semidecay.errors import DimensionMismatchError, SingularityError
from semidecay.factorization import (IDENTITY_RESIDUAL_LIMIT,
                                     INVERSE_MISMATCH_LIMIT, BoundChainReport,
                                     FactorizationReport, SplitOperator,
                                     _dominates,
                                     enlarged_resolvent,
                                     enlargement_bound_chain, shift_sweep,
                                     verify_factorization)
from semidecay.hypotheses import FAIL, PASS, check_h4, sample_xi_region
from semidecay.runner import _check_instance
from semidecay.spaces import EmbeddedSpacePair, operator_norm, operator_norm_bracket
from semidecay.spectral import guarded_inverses, resolvent_matrix


def line_samples(cert, n=9):
    ims = np.linspace(-2.0, 2.0, n)
    return cert.a + 1e-6 + 1j * ims


class TestEnlargedResolvent:
    def test_pinned_diagonal_hand_check(self, pinned_instance):
        split, pair = pinned_instance.split, pinned_instance.pair
        xi = -0.5
        b_inv = resolvent_matrix(split.part_b, xi)
        npt.assert_allclose(b_inv, np.diag([2.0, -1.0]), atol=1e-14)
        npt.assert_allclose(split.part_a @ b_inv, np.diag([0.0, -0.5]), atol=1e-14)
        u = enlarged_resolvent(split, pair, xi)
        npt.assert_allclose(u, np.diag([2.0, -2.0]), atol=1e-13)
        direct = np.linalg.inv(split.full - xi * np.eye(2))
        npt.assert_allclose(u, direct, atol=1e-13)

    def test_zero_regularizer_reduces_to_plain_resolvent(self, rng):
        full = -np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        split = SplitOperator.from_regularizer(full, np.zeros((5, 5)))
        pair = EmbeddedSpacePair.from_weights(np.ones(5), rng.uniform(1, 4, 5))
        u = enlarged_resolvent(split, pair, 0.5j)
        npt.assert_allclose(u, resolvent_matrix(full, 0.5j), atol=1e-12)

    def test_random_instance_on_the_line(self):
        inst = generate_instance(11, 8)
        cert = inst.certificate
        for xi in line_samples(cert, 5):
            u = enlarged_resolvent(inst.split, inst.pair, xi)
            resid = operator_norm((inst.split.full - xi * np.eye(8)) @ u - np.eye(8),
                                  inst.pair.ambient, inst.pair.ambient)
            assert resid <= 1e-9


class TestVerifyFactorization:
    def test_three_instance_families(self, pinned_instance, rng):
        report = verify_factorization(shift_sweep(
            pinned_instance.split, pinned_instance.pair,
            line_samples(pinned_instance.certificate)))
        assert report.max_identity_residual <= 1e-9
        assert report.max_inverse_mismatch <= 1e-9

        full = -2 * np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        trivial = SplitOperator.from_regularizer(full, np.zeros((6, 6)))
        pair = EmbeddedSpacePair.from_weights(np.ones(6), np.full(6, 2.0))
        report = verify_factorization(shift_sweep(trivial, pair,
                                                  [0.5 + 1j, 1.0, 2.0 - 0.5j]))
        assert report.max_identity_residual <= 1e-9

        inst = generate_instance(23, 16)
        report = verify_factorization(shift_sweep(inst.split, inst.pair,
                                                  line_samples(inst.certificate)))
        assert report.max_identity_residual <= 1e-9
        assert report.max_inverse_mismatch <= 1e-8

    def test_one_inverse_per_matrix_per_sample(self, monkeypatch):
        """One instance check inverts B - xi and T - xi once per H4 sample.

        H4, the factorization check and the bound chain share one sweep, so
        every sampled xi is inverted once for B and once for T, however many
        times the three checks read its norms.
        """
        inst = generate_instance(23, 16)
        split = inst.split
        inverted = Counter()

        def counting(matrix, xis, tol=DEFAULT_TOLERANCES):
            kind = ("B" if np.array_equal(matrix, split.part_b)
                    else "T" if np.array_equal(matrix, split.full) else None)
            inverted.update((kind, complex(xi)) for xi in xis)
            return guarded_inverses(matrix, xis, tol)

        # the sweep holds it by name; resolvent_matrix reaches it through spectral
        for module in (spectral, factorization):
            monkeypatch.setattr(module, "guarded_inverses", counting)
        result = _check_instance(inst, DEFAULT_TOLERANCES, thin_samples=True)
        per_sample = Counter(complex(xi) for xi in result["h4"].samples)
        assert len(per_sample) > 0
        for xi, count in per_sample.items():
            assert inverted[("B", xi)] == count
            assert inverted[("T", xi)] == count
        assert result["factorization"].max_inverse_mismatch <= 1e-8


def test_report_verdicts():
    one = np.zeros(1)

    def fact(identity, mismatch):
        return FactorizationReport(identity, mismatch, one, one, one).verdict

    assert fact(IDENTITY_RESIDUAL_LIMIT, INVERSE_MISMATCH_LIMIT) == PASS
    assert fact(np.nextafter(IDENTITY_RESIDUAL_LIMIT, 1.0), 0.0) == FAIL
    assert fact(0.0, np.nextafter(INVERSE_MISMATCH_LIMIT, 1.0)) == FAIL
    for dominated, verdict in ((True, PASS), (False, FAIL)):
        chain = BoundChainReport(1.0, 1.0, dominated, one, one, one)
        assert chain.verdict == verdict


class TestBoundChain:
    def test_zero_regularizer_chain_equals_direct(self, rng):
        full = -np.eye(4) - np.diag([0.0, 1.0, 2.0, 3.0])
        split = SplitOperator.from_regularizer(full, np.zeros((4, 4)))
        pair = EmbeddedSpacePair.from_weights(rng.uniform(0.5, 1.0, 4),
                                              rng.uniform(1.0, 3.0, 4))
        samples = [0.3 + 0.2j, 1.0, 0.5 - 1j]
        report = enlargement_bound_chain(shift_sweep(split, pair, samples))
        npt.assert_allclose(report.chain_values, report.direct_values, rtol=1e-12)
        assert report.dominated

    def test_pinned_diagonal_arithmetic(self, pinned_instance):
        report = enlargement_bound_chain(shift_sweep(pinned_instance.split,
                                                     pinned_instance.pair, [-0.5]))
        # ||B(xi)^{-1}|| + c_J ||R(xi)|| ||A B(xi)^{-1}|| = 2 + 1 * 2 * 0.5
        assert report.chain_values[0] == pytest.approx(3.0, rel=1e-12)
        assert report.direct_values[0] == pytest.approx(2.0, rel=1e-12)
        assert report.dominated

    @given(seed=st.integers(2, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_domination_on_random_seeds(self, seed):
        inst = generate_instance(seed, 8)
        cert = inst.certificate
        samples = sample_xi_region(cert.a, cert.r, list(cert.xi),
                                   n_line=5, n_circle=6, grid_shape=(3, 3))
        report = enlargement_bound_chain(shift_sweep(inst.split, inst.pair, samples))
        assert report.dominated
        assert report.certified_bound >= report.direct_sup


class TestShiftCovariance:
    def test_shift_moves_spectrum_and_preserves_norms(self):
        inst = generate_instance(3, 10)
        cert = inst.certificate
        sigma = 0.37
        eye = np.eye(10)
        shifted = SplitOperator(full=inst.split.full + sigma * eye,
                                part_a=inst.split.part_a,
                                part_b=inst.split.part_b + sigma * eye)
        samples = line_samples(cert, 5)
        base = check_h4(inst.split, inst.pair, samples)
        moved = check_h4(shifted, inst.pair, samples + sigma)
        # resolvents at shifted points are equal matrices, so all bounds agree
        assert moved.sup_b_inverse == pytest.approx(base.sup_b_inverse, rel=1e-12)
        assert moved.sup_a_b_inverse == pytest.approx(base.sup_a_b_inverse, rel=1e-12)
        assert moved.sup_b_inverse_a == pytest.approx(base.sup_b_inverse_a, rel=1e-12)

        chain_base = enlargement_bound_chain(base.sweep)
        chain_moved = enlargement_bound_chain(moved.sweep)
        assert chain_moved.certified_bound == pytest.approx(
            chain_base.certified_bound, rel=1e-12)


def test_split_operator_rejects_inconsistent_parts():
    with pytest.raises(ValueError):
        SplitOperator(full=np.eye(3), part_a=np.eye(3), part_b=np.eye(3))


def test_split_operator_shape_and_finiteness_checks():
    with pytest.raises(DimensionMismatchError, match="square"):
        SplitOperator.from_regularizer(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError, match="square"):
        SplitOperator.from_regularizer(np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="shape"):
        SplitOperator(full=np.eye(3), part_a=np.eye(2), part_b=np.eye(2))
    bad = np.eye(3)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="full has non-finite"):
        SplitOperator(full=bad, part_a=np.zeros((3, 3)), part_b=np.eye(3))
    with pytest.raises(ValueError, match="part_a has non-finite"):
        SplitOperator.from_regularizer(np.eye(3), np.full((3, 3), np.inf))


# ----------------------------------------------------------------------
# dense oracle: the per-sample loops the shared sweep replaced, one guarded
# one-shift inverse (LU) per matrix and check, one exact norm (the sweep's
# kernel, one matrix at a time) per norm

EPS = np.finfo(float).eps


def _inverse(matrix, xi):
    """In the sweep's row-major layout, which the O(n^2) bounds' sums
    depend on at rounding level."""
    return np.ascontiguousarray(resolvent_scalar(np.asarray(matrix), xi,
                                                 DEFAULT_TOLERANCES))


class Oracle:
    """Per sample, the exact value and the O(n^2) bracket of each bracketed
    sweep column, and the exact, lower and upper chain values. Where
    T - xi is singular, its norms and the chain are NaN."""

    def __init__(self, split, pair, samples):
        amb, small = pair.ambient, pair.small
        b_invs = [_inverse(split.part_b, xi) for xi in samples]
        rs = [_inverse_or_none(split.full, xi) for xi in samples]
        matrices = {"b_inverse": (b_invs, amb, amb),
                    "a_b_inverse": ([split.part_a @ b for b in b_invs], amb, small),
                    "b_inverse_a": ([b @ split.part_a for b in b_invs], amb, small),
                    "resolvent_small": (rs, small, small),
                    "direct": (rs, amb, amb)}
        self.exact, self.lower, self.upper = {}, {}, {}
        for name, (stack, dom, cod) in matrices.items():
            self.exact[name] = np.array([np.nan if m is None else operator_norm(m, dom, cod)
                                         for m in stack])
            self.lower[name], self.upper[name] = np.array(
                [(np.nan, np.nan) if m is None
                 else [bound[0] for bound in operator_norm_bracket(m[None], dom, cod)]
                 for m in stack]).reshape(-1, 2).T
        self.direct = self.exact.pop("direct")
        c_j = pair.embedding_constant
        self.chain, self.chain_lower, self.chain_upper = (
            norms["b_inverse"] + c_j * norms["resolvent_small"] * norms["a_b_inverse"]
            for norms in (self.exact, self.lower, self.upper))


def _inverse_or_none(matrix, xi):
    try:
        return _inverse(matrix, xi)
    except SingularityError:
        return None


def assert_bracketed(values, exact, upper, sup, must_be_exact):
    """A bracketed column: exact (bit for bit) wherever its upper bound
    reaches the sup or ``must_be_exact``; elsewhere the exact value or its
    upper bound, which stays below the sup. Returns the unrefined mask."""
    reaches = (upper >= sup) | must_be_exact
    npt.assert_array_equal(values[reaches], exact[reaches])
    assert np.all((values == exact) | (values == upper))
    assert np.all(values[~reaches] < sup)
    return values != exact


def assert_h4_table(table, oracle, samples):
    """The three norm columns of an H4 table against the oracle: each is
    exact where its upper bound reaches the column's sup or where the
    sample's chain must be exact, and otherwise holds that upper bound.
    The sups are the oracle's. Returns the mask of rows with no exact
    entry."""
    npt.assert_array_equal(table[:, 0], samples)
    assert np.all(table.imag[:, 1:] == 0.0)
    chain_exact = chain_must_be_exact(oracle)
    unrefined = np.ones(len(samples), dtype=bool)
    for j, name in enumerate(("b_inverse", "a_b_inverse", "b_inverse_a"), start=1):
        exact = oracle.exact[name]
        sup = max(0.0, *exact)
        assert max(0.0, *table[:, j].real) == sup
        unrefined &= assert_bracketed(table[:, j].real, exact, oracle.upper[name], sup,
                                      chain_exact if name != "b_inverse_a" else False)
    return unrefined


def chain_must_be_exact(oracle):
    """Where the chain's upper bound reaches its max, or its lower bound
    does not dominate the direct value."""
    finite = np.isfinite(oracle.chain)
    return finite & ((oracle.chain_upper >= np.max(oracle.chain[finite], initial=0.0))
                     | ~_dominates(oracle.chain_lower, oracle.direct))


def assert_chain(report, oracle):
    """Chain values exact where :func:`chain_must_be_exact`, elsewhere
    between the oracle's lower bound and the exact value and dominating
    the direct value; the sups and the verdict are the oracle's. Returns
    the mask of unrefined chain values."""
    must = chain_must_be_exact(oracle)
    values = report.chain_values
    npt.assert_array_equal(values[must], oracle.chain[must])
    assert np.all(oracle.chain_lower <= values) and np.all(values <= oracle.chain)
    assert np.all(_dominates(values[~must], oracle.direct[~must]))
    npt.assert_array_equal(report.direct_values, oracle.direct)
    assert report.certified_bound == max(0.0, *oracle.chain)
    assert report.direct_sup == max(0.0, *oracle.direct)
    assert report.dominated == bool(np.all(_dominates(oracle.chain, oracle.direct)))
    return values != oracle.chain


def assert_certified_residuals(values, oracle, n):
    """A certified residual bounds the exact one from above, within the
    factor ``n`` of ``sqrt(n) ||X||_2 >= sqrt(||X||_1 ||X||_inf)`` and the
    column-norm bound ``sqrt(n) max_j ||x_j|| >= ||X||_2``."""
    assert np.all(oracle <= values)
    assert np.all(values <= n * (1.0 + 16.0 * n * EPS) * oracle)


def oracle_factorization(split, pair, samples):
    amb = pair.ambient
    eye = np.eye(split.dim)
    id_res = np.empty(len(samples))
    inv_mis = np.empty(len(samples))
    for i, xi in enumerate(samples):
        b_inv = _inverse(split.part_b, xi)
        direct = _inverse(split.full, xi)
        u = b_inv - direct @ (split.part_a @ b_inv)
        shifted = split.full - xi * eye
        cond = operator_norm(shifted, amb, amb) * operator_norm(direct, amb, amb)
        id_res[i] = operator_norm(shifted @ u - eye, amb, amb) / max(cond, 1.0)
        inv_mis[i] = (operator_norm(u - direct, amb, amb)
                      / max(operator_norm(direct, amb, amb), 1e-300))
    return id_res, inv_mis


def _oracle_error(matrix, xi):
    with pytest.raises(SingularityError) as info:
        _inverse(matrix, xi)
    return info.value


class TestSweepAgainstDenseOracle:
    @pytest.mark.parametrize("seed,n", [(1, 16), (2, 16), (3, 16), (1, 32), (2, 32)])
    def test_bitwise_equal_to_per_sample_loops(self, seed, n):
        inst = generate_instance(seed, n)
        split, pair, cert = inst.split, inst.pair, inst.certificate
        # the thinned sample the runner uses for sweeps of more than four seeds
        samples = sample_xi_region(cert.a, cert.r, list(cert.xi),
                                   n_line=9, n_circle=8, grid_shape=(6, 6))
        h4 = check_h4(split, pair, samples)
        fact = verify_factorization(h4.sweep)
        chain = enlargement_bound_chain(h4.sweep)

        assert h4.verdict == PASS
        oracle = Oracle(split, pair, samples)
        unrefined = assert_h4_table(h4.table, oracle, samples)
        assert [h4.sup_b_inverse, h4.sup_a_b_inverse, h4.sup_b_inverse_a] == [
            max(0.0, *oracle.exact[name])
            for name in ("b_inverse", "a_b_inverse", "b_inverse_a")]
        id_res, inv_mis = oracle_factorization(split, pair, samples)
        assert_certified_residuals(fact.identity_residuals, id_res, n)
        assert_certified_residuals(fact.inverse_mismatches, inv_mis, n)
        unrefined &= assert_chain(chain, oracle)
        # not vacuous: most rows take no exact norm but the direct one
        assert unrefined.sum() > len(samples) // 2
        assert h4.sweep.exact_norms < 2 * len(samples)
        # a sweep of its own agrees with the one H4 made
        alone = verify_factorization(shift_sweep(split, pair, samples))
        npt.assert_array_equal(alone.identity_residuals, fact.identity_residuals)


class TestSweepFailures:
    """T = diag(0, -1), A = diag(1/2, 0): B - xi is singular at xi = -1/2,
    T - xi at xi = 0 (each exactly, so the stacked solve itself fails).

    At n = 2 every sample here would fit one block, so the width is pinned
    to 8 shifts: the cases place their failures relative to that."""

    split = SplitOperator.from_regularizer(np.diag([0.0, -1.0]), np.diag([0.5, 0.0]))
    pair = EmbeddedSpacePair.from_weights(np.ones(2), np.full(2, 2.0))

    @pytest.fixture(autouse=True)
    def blocks_of_eight(self, monkeypatch):
        monkeypatch.setattr(spectral, "block_size", lambda n: 8)

    def test_h4_witness_at_first_singular_b(self):
        # ten regular shifts, so the singular one sits in the second block
        samples = np.concatenate([1.0 + 0.3j * np.arange(10), [-0.5, 2.0]])
        report = check_h4(self.split, self.pair, samples)
        exc = _oracle_error(self.split.part_b, samples[10])
        assert report.verdict == FAIL
        assert report.witness == (f"B - xi numerically singular at xi={samples[10]} "
                                  f"(distance {exc.distance:.3e})")
        assert_h4_table(report.table, Oracle(self.split, self.pair, samples[:10]),
                        samples[:10])
        for check in (verify_factorization, enlargement_bound_chain):
            with pytest.raises(SingularityError, match="numerically singular") as info:
                check(report.sweep)
            assert str(info.value) == str(exc)

    def test_earlier_singular_t_raises_first(self):
        samples = np.concatenate([1.0 + 0.3j * np.arange(9), [0.0, -0.5]])
        report = check_h4(self.split, self.pair, samples)
        # H4 does not look at T - xi: it fails at the singular B(xi) only
        assert report.verdict == FAIL and len(report.table) == 10
        t_exc = _oracle_error(self.split.full, samples[9])
        for check in (verify_factorization, enlargement_bound_chain):
            with pytest.raises(SingularityError) as info:
                check(report.sweep)
            assert str(info.value) == str(t_exc)
            assert info.value.witness == samples[9]

    def test_b_failure_ends_the_sweep_after_its_block(self):
        """A singular B - xi at the second sample of the first block: the
        block's other samples are still computed, B-dependent entries of
        the failed sample are NaN, and the later block is not computed."""
        samples = np.concatenate([[1.0, -0.5], 1.0 + 0.3j * np.arange(1, 11)])
        sweep = shift_sweep(self.split, self.pair, samples)
        assert sweep.b_failure[0] == 1 and sweep.t_failure is None
        exc = _oracle_error(self.split.part_b, samples[1])
        assert str(sweep.b_failure[1]) == str(exc)
        computed = np.array([0, 2, 3, 4, 5, 6, 7])
        oracle = Oracle(self.split, self.pair, samples[computed])
        npt.assert_array_equal(sweep.resolvent[computed], oracle.direct)
        for name in ("b_inverse", "a_b_inverse", "b_inverse_a"):
            values = getattr(sweep, name)[computed]
            assert np.all((values == oracle.exact[name]) | (values == oracle.upper[name]))
            assert np.isnan(getattr(sweep, name)[1])
        # T - xi is regular at the failed sample: its own norm is kept
        assert np.isfinite(sweep.resolvent[1])
        for name in ("resolvent", "b_inverse", "chain", "mismatch", "shifted"):
            assert np.all(np.isnan(getattr(sweep, name)[8:]))
        report = check_h4(self.split, self.pair, samples)
        assert report.verdict == FAIL and len(report.table) == 1

    def test_same_sample_raises_b_before_t(self):
        # at xi = 0, T - xi is exactly singular and B - xi = diag(1e-12, -1)
        # lies inside the conditioning band: the B error is raised
        split = SplitOperator.from_regularizer(np.diag([0.0, -1.0]),
                                               np.diag([-1e-12, 0.0]))
        samples = np.array([1.0, 0.0], dtype=complex)
        for check in (verify_factorization, enlargement_bound_chain):
            with pytest.raises(SingularityError, match="too close") as info:
                check(shift_sweep(split, self.pair, samples))
            assert str(info.value) == str(_oracle_error(split.part_b, samples[1]))

    @pytest.mark.parametrize("samples, exact_norms", [
        (np.concatenate([[1.0, -0.5], 1.0 + 0.3j * np.arange(1, 11)]), 13),
        (np.array([1.0, 0.0, 2.0 + 1j]), 9),
        (np.concatenate([1.0 + 0.3j * np.arange(10), [-0.5, 2.0]]), 17),
        (np.concatenate([1.0 + 0.3j * np.arange(9), [0.0, -0.5]]), 19),
    ], ids=["b_at_1", "t_alone", "b_at_10", "t_at_9_then_b_at_10"])
    def test_rejected_samples_never_reach_the_exact_kernel(self, samples, exact_norms,
                                                           monkeypatch):
        """A rejected inverse is NaN, and its NaN brackets must neither
        raise a floor nor send its sample to the exact norms."""
        refined, norms = factorization._refined_norms, factorization.operator_norms
        inside, stacks = [False], []

        def recording_norms(stack, dom, cod):
            if inside[0]:
                stacks.append(stack)
            return norms(stack, dom, cod)

        def recording_refined(*args):
            inside[0] = True
            try:
                return refined(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(factorization, "_refined_norms", recording_refined)
        monkeypatch.setattr(factorization, "operator_norms", recording_norms)
        sweep = shift_sweep(self.split, self.pair, samples)
        assert sweep.b_failure is not None or sweep.t_failure is not None
        assert sweep.exact_norms == exact_norms
        assert stacks and all(np.all(np.isfinite(stack)) for stack in stacks)

    def test_singular_t_alone_passes_h4(self):
        samples = np.array([1.0, 0.0, 2.0 + 1j])
        report = check_h4(self.split, self.pair, samples)
        assert report.verdict == PASS
        oracle = Oracle(self.split, self.pair, samples)
        assert_h4_table(report.table, oracle, samples)
        assert report.sup_b_inverse_a == max(0.0, *oracle.exact["b_inverse_a"])
        with pytest.raises(SingularityError) as info:
            verify_factorization(report.sweep)
        assert str(info.value) == str(_oracle_error(self.split.full, samples[1]))
