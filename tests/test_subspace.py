import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from doubles import block_hankel_labels, toeplitz_labels
from slra.subspace import HankelSubspace, LabelSubspace

#: rows x cols structure -> its subspace: Hankel, Toeplitz, and block
#: Hankel of three rows x cols blocks
STRUCTURES = {
    "hankel": HankelSubspace,
    "toeplitz": lambda m, n: LabelSubspace(toeplitz_labels(m, n)),
    "block_hankel": lambda m, n: LabelSubspace(block_hankel_labels(m, n, 3)),
}


def nearest_member_lstsq(x, labels):
    """Independent oracle: solve the least-squares problem over the
    generating coordinates of the label map explicitly."""
    idx = labels.ravel()
    basis = np.zeros((idx.size, idx.max() + 1))
    basis[np.arange(idx.size), idx] = 1.0
    v, *_ = np.linalg.lstsq(basis, x.ravel(), rcond=None)
    return v[idx].reshape(x.shape)


def test_project_fixed_point_on_hankel():
    sub = HankelSubspace(3, 3)
    h = sub.from_vector(np.arange(5.0))
    assert_allclose(sub.project(h), h)


def test_project_hand_example():
    out = HankelSubspace(2, 2).project(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]])


def test_project_matches_lstsq_oracle():
    rng = np.random.default_rng(0)
    for make in STRUCTURES.values():
        sub = make(4, 3)
        for _ in range(10):
            x = rng.standard_normal(sub.shape) + 1j * rng.standard_normal(sub.shape)
            oracle = nearest_member_lstsq(x, sub._idx)
            assert np.linalg.norm(sub.project(x) - oracle) <= 1e-10 * (1 + np.linalg.norm(x))


def test_from_vector_hand_example():
    assert_allclose(HankelSubspace(2, 2).from_vector(np.array([1.0, 2.0, 3.0])),
                    [[1.0, 2.0], [2.0, 3.0]])


def test_from_vector_constant():
    out = HankelSubspace(3, 4).from_vector(np.full(6, 2.5))
    assert_allclose(out, 2.5)


def test_vector_round_trip():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sub = HankelSubspace(4, 5)
    assert_allclose(sub.to_vector(sub.from_vector(v)), v)


def test_vector_from_non_hankel():
    assert_allclose(HankelSubspace(2, 2).to_vector(np.array([[0.0, 2.0], [0.0, 0.0]])),
                    [0.0, 1.0, 0.0])


def test_vector_from_zero():
    assert_allclose(HankelSubspace(3, 2).to_vector(np.zeros((3, 2))), 0.0)


def test_from_vector_length_mismatch():
    with pytest.raises(ValueError):
        HankelSubspace(2, 2).from_vector(np.ones(5))


def test_project_shape_mismatch():
    with pytest.raises(ValueError):
        HankelSubspace(3, 3).project(np.ones((2, 2)))


def test_project_factorizes_through_vector():
    rng = np.random.default_rng(2)
    sub = HankelSubspace(5, 4)
    x = rng.standard_normal((5, 4))
    assert_allclose(sub.project(x), sub.from_vector(sub.to_vector(x)))


def test_complement_in_orthogonal_complement():
    rng = np.random.default_rng(3)
    sub = HankelSubspace(6, 5)
    x = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    r = x - sub.project(x)
    assert np.linalg.norm(sub.project(r)) <= 1e-12 * (1 + np.linalg.norm(x))


def test_complement_of_member_is_zero():
    sub = HankelSubspace(3, 3)
    h = sub.from_vector(np.arange(5.0))
    assert np.linalg.norm(h - sub.project(h)) <= 1e-14


def test_complement_fixed_on_orthogonal_part():
    sub = HankelSubspace(3, 3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 3))
    r = x - sub.project(x)
    assert_allclose(r - sub.project(r), r, atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 12),
       st.booleans(), st.sampled_from(sorted(STRUCTURES)))
def test_projector_axioms(seed, m, n, cplx, structure):
    rng = np.random.default_rng(seed)
    sub = STRUCTURES[structure](m, n)
    x = rng.standard_normal(sub.shape)
    y = rng.standard_normal(sub.shape)
    v = rng.standard_normal(sub.length)
    if cplx:
        x = x + 1j * rng.standard_normal(sub.shape)
        y = y + 1j * rng.standard_normal(sub.shape)
        v = v + 1j * rng.standard_normal(sub.length)
    px, py = sub.project(x), sub.project(y)
    scale = 1 + np.linalg.norm(x) + np.linalg.norm(y)
    # linear
    a = rng.standard_normal() + (1j * rng.standard_normal() if cplx else 0.0)
    assert np.linalg.norm(sub.project(a * x + y) - (a * px + py)) <= 1e-12 * (1 + abs(a)) * scale
    # to_vector inverts from_vector, and from_vector's matrices are fixed
    h = sub.from_vector(v)
    assert np.linalg.norm(sub.to_vector(h) - v) <= 1e-12 * (1 + np.linalg.norm(v))
    assert np.linalg.norm(sub.project(h) - h) <= 1e-12 * (1 + np.linalg.norm(h))
    # idempotent
    assert np.linalg.norm(sub.project(px) - px) <= 1e-12 * scale
    # self-adjoint
    assert abs(np.vdot(px, y).real - np.vdot(x, py).real) <= 1e-12 * scale**2
    # pythagoras
    r = x - px
    assert abs(np.linalg.norm(x) ** 2
               - np.linalg.norm(px) ** 2 - np.linalg.norm(r) ** 2) <= 1e-10 * scale**2
    # contraction
    assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12
    # complement annihilates the projection
    assert np.linalg.norm(px - sub.project(px)) <= 1e-12 * scale


#: tall, wide and square matrices, a row and a column
SHAPES = [(7, 4), (4, 7), (6, 6), (1, 9), (9, 1), (129, 129)]


def _antidiagonal_means(x):
    """Independent oracle: the mean of each antidiagonal i + j = d, read as
    the diagonal of the column-reversed matrix at offset cols - 1 - d."""
    rows, cols = x.shape
    return np.array([np.diagonal(x[:, ::-1], cols - 1 - d).mean()
                     for d in range(rows + cols - 1)])


def _random(rng, shape, cplx):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if cplx else x


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_project_is_antidiagonal_means(shape, cplx):
    rng = np.random.default_rng(5)
    sub = HankelSubspace(*shape)
    for _ in range(5):
        x = _random(rng, shape, cplx)
        means = _antidiagonal_means(x)
        px = sub.project(x)
        assert px.dtype == x.dtype
        assert _rel(sub.to_vector(x), means) <= 1e-15
        assert _rel(px, means[np.add.outer(np.arange(shape[0]), np.arange(shape[1]))]) <= 1e-15
        # idempotent: a constant antidiagonal averages back to itself up
        # to the rounding of its sum
        assert _rel(sub.project(px), px) <= 1e-15


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_vector_round_trip_on_every_shape(shape, cplx):
    rng = np.random.default_rng(6)
    sub = HankelSubspace(*shape)
    for _ in range(5):
        v = _random(rng, sub.length, cplx)
        assert _rel(sub.to_vector(sub.from_vector(v)), v) <= 1e-15
    # a one-row or one-column matrix holds each entry once: no rounding
    if min(shape) == 1:
        assert_array_equal(sub.to_vector(sub.from_vector(v)), v)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_hankel_subspace_is_the_label_subspace_of_i_plus_j(shape):
    hankel = HankelSubspace(*shape)
    generic = LabelSubspace(np.add.outer(np.arange(shape[0]), np.arange(shape[1])))
    assert (hankel.shape, hankel.length) == (generic.shape, generic.length)
    for name in ("_idx", "_order", "_counts", "_starts"):
        assert_array_equal(getattr(hankel, name), getattr(generic, name))


def test_antidiagonal_counts():
    sub = HankelSubspace(3, 5)
    assert_allclose(sub._counts, [1, 2, 3, 3, 3, 2, 1])
    assert sub.length == 7


def test_dimensions_validated():
    with pytest.raises(ValueError):
        HankelSubspace(0, 3)
