import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semidecay.errors import DimensionMismatchError
from semidecay.spaces import (EmbeddedSpacePair, WeightedSpace, norm_bounds,
                              norm_bracket, operator_norm, operator_norm_bounds,
                              operator_norms, rounding_margin, spectral_norms,
                              weighted_congruence, weighted_norm)

from helpers import spectral_norm_power_iteration, weighted_adjoint

finite_vectors = arrays(np.float64, (5,),
                        elements=st.floats(-1e6, 1e6, allow_nan=False))
positive_weights = arrays(np.float64, (5,), elements=st.floats(1e-3, 1e3))


def test_weighted_norm_mixed_weights():
    space = WeightedSpace([1.0, 4.0])
    npt.assert_allclose(weighted_norm([1.0, 1.0], space), np.sqrt(5.0), rtol=1e-15)


def test_weighted_norm_zero_vector():
    space = WeightedSpace([0.3, 7.0, 2.0])
    assert weighted_norm(np.zeros(3), space) == 0.0


def test_weighted_norm_euclidean_case():
    space = WeightedSpace(np.ones(2))
    assert weighted_norm([3.0, 4.0], space) == pytest.approx(5.0, abs=1e-15)


def test_weighted_norm_dimension_mismatch():
    space = WeightedSpace(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        weighted_norm([1.0, 2.0], space)


def test_nonpositive_weights_rejected():
    with pytest.raises(ValueError):
        WeightedSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        WeightedSpace([np.inf])


def test_operator_norm_identity():
    space = WeightedSpace([0.5, 2.0, 9.0])
    assert operator_norm(np.eye(3), space, space) == pytest.approx(1.0, rel=1e-14)


def test_operator_norm_diagonal_unweighted():
    space = WeightedSpace(np.ones(2))
    assert operator_norm(np.diag([2.0, 3.0]), space, space) == pytest.approx(3.0)


def test_operator_norm_mixed_weights():
    # oracle: largest singular value of W_cod^{1/2} M W_dom^{-1/2}
    dom = WeightedSpace([1.0, 4.0])
    cod = WeightedSpace(np.ones(2))
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    scaled = np.diag([1.0, 1.0]) @ m @ np.diag([1.0, 0.5])
    oracle = np.linalg.svd(scaled, compute_uv=False)[0]
    assert oracle == pytest.approx(0.5)
    assert operator_norm(m, dom, cod) == pytest.approx(0.5, rel=1e-14)


def test_unit_weight_norm_matches_power_iteration(rng):
    # cross-check of the two spectral-norm paths on plain matrices
    space = WeightedSpace(np.ones(8))
    m = rng.standard_normal((8, 8))
    svd_val = operator_norm(m, space, space)
    power_val = spectral_norm_power_iteration(m)
    assert abs(svd_val - power_val) <= 1e-10 * svd_val


@given(v=finite_vectors, w=positive_weights, alpha=st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_norm_homogeneity(v, w, alpha):
    space = WeightedSpace(w)
    npt.assert_allclose(weighted_norm(alpha * v, space),
                        abs(alpha) * weighted_norm(v, space),
                        rtol=1e-10, atol=1e-12)


@given(u=finite_vectors, v=finite_vectors, w=positive_weights)
@settings(max_examples=50, deadline=None)
def test_norm_triangle_inequality(u, v, w):
    space = WeightedSpace(w)
    lhs = weighted_norm(u + v, space)
    rhs = weighted_norm(u, space) + weighted_norm(v, space)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@given(w_dom=positive_weights, w_cod=positive_weights,
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_operator_norm_dominates_matvec(w_dom, w_cod, seed):
    gen = np.random.default_rng(seed)
    dom = WeightedSpace(w_dom)
    cod = WeightedSpace(w_cod)
    m = gen.standard_normal((5, 5))
    v = gen.standard_normal(5)
    bound = operator_norm(m, dom, cod)
    assert weighted_norm(m @ v, cod) <= bound * weighted_norm(v, dom) * (1 + 1e-10) + 1e-12


@given(w_dom=positive_weights, w_cod=positive_weights,
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_operator_norm_bounds_bracket_the_stacked_svd(w_dom, w_cod, seed):
    gen = np.random.default_rng(seed)
    dom = WeightedSpace(w_dom)
    cod = WeightedSpace(w_cod)
    stack = gen.standard_normal((3, 5, 5)) + 1j * gen.standard_normal((3, 5, 5))
    lower, upper = operator_norm_bounds(stack, dom, cod)
    exact = operator_norms(stack, dom, cod)
    assert np.all(lower <= exact) and np.all(exact <= upper)
    # within the sqrt(n) factor of both bounds
    assert np.all(upper <= np.sqrt(5.0) * exact * (1 + 1e-12))
    assert np.all(np.sqrt(5.0) * lower >= exact * (1 - 1e-12))


def _kernel_stack(kind, shape, complex_, seed=0):
    gen = np.random.default_rng(seed)
    stack = gen.standard_normal(shape)
    if complex_:
        stack = stack + 1j * gen.standard_normal(shape)
    if kind == "graded":
        stack *= np.logspace(-150, 150, shape[-1])
    elif kind == "rank_one":
        stack = (stack[..., :, :1] @ stack[..., :1, :]) + 1e-10 * stack
    elif kind == "zero":
        stack[1:] = 0.0
    elif kind == "huge":
        stack *= 1e200
    elif kind == "tiny":
        stack *= 1e-200
    return stack


@pytest.mark.parametrize("kind", ["plain", "graded", "rank_one", "zero", "huge", "tiny"])
@pytest.mark.parametrize("shape", [(5, 9, 9), (4, 7, 12), (4, 12, 7), (3, 1, 6)])
@pytest.mark.parametrize("complex_", [False, True])
def test_spectral_norms_match_the_svd_within_the_stated_bound(kind, shape, complex_):
    stack = _kernel_stack(kind, shape, complex_)
    svd = np.linalg.svd(stack, compute_uv=False)[..., 0]
    with np.errstate(all="raise"):
        values = spectral_norms(stack)
        lower, upper = norm_bounds(stack)
        bracket_lower, bracket_upper = norm_bracket(stack)
    margin = rounding_margin(stack)
    assert np.all(np.abs(values - svd) <= margin * svd)
    if kind == "zero":
        assert np.all(values[1:] == 0.0) and np.all(upper[1:] == 0.0)
    # both brackets hold the kernel's values; the power step only raises the floor
    assert np.all(lower <= values) and np.all(values <= upper)
    assert np.all(bracket_lower <= values) and np.all(bracket_upper == upper)
    assert np.all(lower <= bracket_lower)
    # a one-matrix stack is the batched value bit for bit
    npt.assert_array_equal([spectral_norms(m[None])[0] for m in stack], values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_norms_of_a_non_finite_matrix_are_nan(bad):
    stack = _kernel_stack("plain", (3, 6, 6), True)
    stack[1, 2, 4] = bad
    values = spectral_norms(stack)
    assert np.isnan(values[1])
    npt.assert_array_equal(values[[0, 2]], spectral_norms(stack[[0, 2]]))


def test_power_step_lower_bound_is_sharp_on_rank_one():
    stack = _kernel_stack("rank_one", (4, 16, 16), True, seed=3)
    lower, _ = norm_bracket(stack)
    npt.assert_allclose(lower, spectral_norms(stack), rtol=1e-9)


def test_operator_norm_power_method_agrees_with_svd(rng):
    dom = WeightedSpace(rng.uniform(0.2, 5.0, 20))
    cod = WeightedSpace(rng.uniform(0.2, 5.0, 20))
    m = rng.standard_normal((20, 20))
    svd_val = operator_norm(m, dom, cod)
    power_val = spectral_norm_power_iteration(weighted_congruence(m, dom, cod))
    assert power_val == pytest.approx(svd_val, rel=1e-9)


def test_weighted_adjoint_is_inner_product_adjoint(rng):
    space = WeightedSpace(rng.uniform(0.1, 5.0, 6))
    m = rng.standard_normal((6, 6))
    f = rng.standard_normal(6)
    g = rng.standard_normal(6)

    def inner(u, v):
        return np.sum(u * np.conjugate(v) * space.weights) * space.cell_measure

    lhs = inner(m @ f, g)
    rhs = inner(f, weighted_adjoint(m, space) @ g)
    npt.assert_allclose(lhs, rhs, rtol=1e-12)


def test_embedded_pair_constant_dominates_pointwise_bound():
    pair = EmbeddedSpacePair.from_weights([1.0, 2.0], [4.0, 2.0])
    assert pair.embedding_constant == 1.0
    # the embedding inequality holds for an arbitrary vector
    v = np.array([0.3, -1.7])
    assert (weighted_norm(v, pair.ambient)
            <= pair.embedding_constant * weighted_norm(v, pair.small) * (1 + 1e-12))


@given(ambient=positive_weights, small=positive_weights)
@settings(max_examples=50, deadline=None)
def test_embedding_constant_is_the_norm_of_the_identity(ambient, small):
    """c_J is the weighted norm of the identity from the small space into
    the ambient one, and the pointwise formula bit for bit."""
    pair = EmbeddedSpacePair.from_weights(ambient, small)
    eye = np.eye(pair.dim)[None]
    norm = operator_norms(eye, pair.small, pair.ambient)[0]
    assert abs(pair.embedding_constant - norm) <= rounding_margin(eye) * norm
    assert pair.embedding_constant == float(np.sqrt(np.max(ambient / small)))


def test_embedded_pair_requires_shared_index_set():
    with pytest.raises(DimensionMismatchError):
        EmbeddedSpacePair(ambient=WeightedSpace(np.ones(2)),
                          small=WeightedSpace(np.ones(3)))
