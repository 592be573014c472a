import numpy as np
import pytest

from torusvae import geometry as g
from helpers import circular_error, sample_circles


def circle_point(theta):
    """The unit tuple embed_angles gives one angle: its D = 1 product block."""
    return g.embed_angles([[theta]])[0, :2]


def normalize(raw):
    return g.unit_tuples(np.reshape(np.asarray(raw, dtype=float), (1, 1, 2)))[0, 0]


def product(tuples):
    """Rank-1 product block of one row of unit tuples."""
    return g.embed(np.asarray(tuples, dtype=float)[None])[0, : 2 ** len(tuples)]


def kl(mu, sigma):
    """gaussian_kl of one (D, 2) row, with logvar = 2 log sigma."""
    return g.gaussian_kl(mu[None], 2.0 * np.log(sigma)[None])


class TestCirclePoint:
    def test_zero_angle(self):
        assert np.array_equal(circle_point(0.0), [1.0, 0.0])

    def test_quarter_turn(self):
        m = circle_point(np.pi / 2)
        assert m[1] == 1.0 and abs(m[0]) < 1e-15

    def test_periodicity(self):
        a = circle_point(0.3)
        b = circle_point(2.0 * np.pi + 0.3)
        assert np.abs(a - b).max() < 1e-12

    def test_unit_norm(self, rng):
        rows = g.embed_angles(rng.uniform(-20, 20, size=(50, 1)))
        assert np.abs(rows[:, 0] ** 2 + rows[:, 1] ** 2 - 1.0).max() < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            circle_point(float("nan"))
        with pytest.raises(ValueError):
            circle_point(float("inf"))


class TestNormalizePair:
    def test_three_four_five(self):
        assert np.array_equal(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_idempotent_on_unit(self):
        assert np.array_equal(normalize([1.0, 0.0]), [1.0, 0.0])

    def test_negative_axis(self):
        assert np.array_equal(normalize([-2.0, 0.0]), [-1.0, 0.0])

    def test_zero_vector_is_hard_error(self):
        with pytest.raises(g.DegenerateInputError):
            normalize([0.0, 0.0])


class TestTensorProduct:
    def test_single_circle_identity(self):
        assert np.allclose(product([(0.6, 0.8)]), [0.6, 0.8], atol=0)

    def test_one_hot_factors(self):
        assert np.array_equal(product([(1, 0), (0, 1)]), [0.0, 1.0, 0.0, 0.0])

    def test_joint_sign_flip_collides(self, rng):
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        m1, m2 = circle_point(t1), circle_point(t2)
        assert np.allclose(product([m1, m2]), product([-m1, -m2]), atol=1e-15)

    def test_unit_norm_invariant(self, rng):
        for _ in range(200):
            d = rng.integers(1, 9)
            tuples = [circle_point(t) for t in rng.uniform(0, 2 * np.pi, size=d)]
            assert abs(np.linalg.norm(product(tuples)) - 1.0) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            g.embed_angles(np.zeros((3, 0)))

    def test_flattening_order(self):
        # index = alpha_1 * 2 + alpha_2 for D=2: first tuple is the high bit
        v = product([(2.0, 3.0), (5.0, 7.0)])
        assert np.array_equal(v, [10.0, 14.0, 15.0, 21.0])


class TestEmbed:
    def test_single_circle(self):
        assert np.array_equal(g.embed_angles([[0.0]])[0], [1.0, 0.0, 1.0])

    def test_two_circles(self):
        v = g.embed_angles([[0.0, np.pi / 2]])[0]
        assert np.allclose(v, [0, 1, 0, 0, 1, 0], atol=1e-15)

    def test_angles_are_reduced_before_cos_and_sin(self, rng):
        # out-of-range angles, such as traverse anchors, embed bit for bit like
        # their canonical form
        theta = rng.uniform(-30.0, 30.0, size=(200, 3))
        assert np.array_equal(g.embed_angles(theta), g.embed_angles(g.canonical_angle(theta)))

    def test_injectivity_including_joint_flip(self, rng):
        # the paired flip m -> -m collides in the product block alone but not in v
        for d in (2, 4):
            theta = rng.uniform(0.2, np.pi / 2 - 0.2, size=d)
            a, b = g.embed_angles([theta, (theta + np.pi) % (2 * np.pi)])
            if d % 2 == 0:
                assert np.allclose(a[: 2**d], b[: 2**d], atol=1e-12)
            assert np.abs(a[2**d :] - b[2**d :]).max() > 0.1

    def test_distinct_angles_distinct_embeddings(self, rng):
        for _ in range(100):
            d = rng.integers(1, 7)
            t1 = rng.uniform(0, 2 * np.pi, size=d)
            t2 = rng.uniform(0, 2 * np.pi, size=d)
            if circular_error(t1, t2).min() <= 1e-6:
                continue
            a, b = g.embed_angles([t1, t2])
            assert np.abs(a - b).max() > 1e-9


# The row-major product loop and its VJP over (N, 2**a, 2) arrays, kept as the
# oracle for the circle-major code: the layouts differ, the bits may not.


def oracle_products(m):
    n, d = m.shape[0], m.shape[1]
    out = [m[:, 0, :]]
    for a in range(1, d):
        out.append((out[-1].reshape(n, -1, 1) * m[:, a, :].reshape(n, 1, 2)).reshape(n, -1))
    return out


def oracle_embed(m):
    return np.concatenate([oracle_products(m)[-1], m[:, :, 0]], axis=1)


def oracle_embed_vjp(m, grad):
    n, d = m.shape[0], m.shape[1]
    products = oracle_products(m)
    out = np.zeros_like(m)
    gp = grad[:, : 2**d]
    for a in range(d - 1, 0, -1):
        gp = gp.reshape(n, -1, 2)
        out[:, a, :] += (gp * products[a - 1].reshape(n, -1, 1)).sum(axis=1)
        gp = (gp * m[:, a, :].reshape(n, 1, 2)).sum(axis=2)
    out[:, 0, :] += gp
    out[:, :, 0] += grad[:, 2**d :]
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


class TestOracleParity:
    """embed, embed_angles and embed_vjp equal the row-major oracle bit for bit.

    N = 1 is where numpy may pick another inner loop for a reduction; exact
    zeros and -0.0 gradients check that no sum starts from an added +0.0.
    """

    @pytest.mark.parametrize("n", [1, 2, 7, 144])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_embed_and_vjp(self, d, n, rng):
        m = rng.standard_normal((n, d, 2))
        m[rng.random(m.shape) < 0.15] = 0.0
        m[rng.random(m.shape) < 0.05] = -0.0
        grad = rng.standard_normal((n, 2**d + d))
        grad[rng.random(grad.shape) < 0.2] = -0.0
        assert_same_bits(g.embed(m), oracle_embed(m))
        assert_same_bits(g.embed_vjp(m, grad), oracle_embed_vjp(m, grad))

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_signed_zero_gradient(self, d, rng):
        m = rng.standard_normal((7, d, 2))
        m[:, 0, 1] = 0.0
        grad = np.full((7, 2**d + d), -0.0)
        assert_same_bits(g.embed_vjp(m, grad), oracle_embed_vjp(m, grad))
        grad[:, : 2**d] = rng.standard_normal((7, 2**d))
        assert_same_bits(g.embed_vjp(m, grad), oracle_embed_vjp(m, grad))

    @pytest.mark.parametrize("n", [1, 2, 7, 144])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_embed_angles(self, d, n, rng):
        theta = rng.uniform(-10.0, 10.0, size=(n, d))
        theta[rng.random(theta.shape) < 0.2] = 0.0  # an exactly zero sine
        c = g.canonical_angle(theta)
        m = np.stack([np.cos(c), np.sin(c)], axis=2)
        assert_same_bits(g.embed_angles(theta), oracle_embed(m))


class TestRecoverAngles:
    def test_single_circle_origin(self):
        assert np.array_equal(g.recover_angles_batch(np.array([[1.0, 0.0, 1.0]]), 1), [[0.0]])

    def test_exact_zero_cosines(self):
        # both circles at +pi/2: the cos = 0 branch plus the parity convention
        rows = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        assert np.allclose(g.recover_angles_batch(rows, 2), [[np.pi / 2, np.pi / 2]], atol=0)

    def test_round_trip_random(self, rng):
        for d in range(1, 9):
            thetas = rng.uniform(0, 2 * np.pi, size=(2000, d))
            rec = g.recover_angles_batch(g.embed_angles(thetas), d)
            assert circular_error(rec, thetas).max() < 1e-9

    def test_round_trip_axis_aligned(self, rng):
        # one coordinate pinned to an axis per draw (cos or sin exactly at an extreme)
        for d in (1, 3, 5, 8):
            thetas = rng.uniform(0, 2 * np.pi, size=(500, d))
            cols = rng.integers(0, d, size=500)
            vals = rng.choice([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], size=500)
            thetas[np.arange(500), cols] = vals
            rec = g.recover_angles_batch(g.embed_angles(thetas), d)
            assert circular_error(rec, thetas).max() < 1e-9

    def test_garbage_rejected(self, rng):
        v = rng.standard_normal(2**4)
        v /= np.linalg.norm(v)
        emb = np.concatenate([v, rng.uniform(-0.6, 0.6, size=4)])[None, :]
        with pytest.raises(g.ReconstructionError):
            g.recover_angles_batch(emb, 4)

    def test_wrong_norm_rejected(self):
        with pytest.raises(g.ReconstructionError):
            g.recover_angles_batch(np.array([[2.0, 0.0, 1.0]]), 1)

    def test_tolerates_small_noise(self, rng):
        thetas = rng.uniform(0, 2 * np.pi, size=(50, 3))
        rows = g.embed_angles(thetas) + rng.uniform(-1e-7, 1e-7, size=(50, 11))
        rec = g.recover_angles_batch(rows, 3)
        assert circular_error(rec, thetas).max() < 1e-4


class TestSampleCircle:
    @staticmethod
    def sample(mu, sigma, noise):
        return sample_circles(mu, 2.0 * np.log(sigma), noise)[0]

    def test_zero_noise_is_normalized_mean(self):
        assert np.array_equal(self.sample([3.0, 4.0], [1.0, 1.0], [0.0, 0.0]), [0.6, 0.8])

    def test_unit_noise_diagonal(self):
        m = self.sample([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        assert np.allclose(m, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)

    def test_sigma_to_zero_limit(self, rng):
        mu = rng.standard_normal(2) * 2
        noise = rng.standard_normal(2)
        target = normalize(mu)
        for sigma in (1e-4, 1e-8, 1e-12):
            m = self.sample(mu, [sigma, sigma], noise)
            assert np.abs(m - target).max() < 1e-3

    def test_degenerate_sample(self):
        with pytest.raises(g.DegenerateInputError):
            self.sample([1.0, 0.0], [1.0, 1.0], [-1.0, 0.0])

    def test_angles_look_uniform(self, rng):
        # full-strength KS check lives in the acceptance suite
        noise = rng.standard_normal(size=(20_000, 2))
        m = sample_circles(np.zeros(2), np.zeros(2), noise)
        angles = np.mod(np.arctan2(m[:, 1], m[:, 0]), 2 * np.pi)
        sorted_angles = np.sort(angles) / (2 * np.pi)
        n = sorted_angles.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(n) / n
        stat = max(np.abs(ecdf_hi - sorted_angles).max(), np.abs(sorted_angles - ecdf_lo).max())
        assert stat < 0.02


class TestGaussianKl:
    def test_standard_prior_is_zero(self):
        assert kl(np.zeros((3, 2)), np.ones((3, 2))) == 0.0

    def test_single_shifted_component(self):
        mu = np.zeros((1, 2))
        mu[0, 0] = 1.0
        assert abs(kl(mu, np.ones((1, 2))) - 0.5) < 1e-15

    def test_permutation_invariance(self, rng):
        mu = rng.standard_normal((4, 2))
        sigma = rng.uniform(0.3, 2.0, size=(4, 2))
        perm = rng.permutation(4)
        assert abs(kl(mu, sigma) - kl(mu[perm], sigma[perm])) < 1e-12

    def test_monte_carlo_oracle(self, rng):
        mu = rng.uniform(-1.5, 1.5, size=(2, 2))
        sigma = rng.uniform(0.5, 1.8, size=(2, 2))
        closed = kl(mu, sigma)
        samples = mu[None] + sigma[None] * rng.standard_normal((1_000_000, 2, 2))
        log_q = -0.5 * ((samples - mu[None]) / sigma[None]) ** 2 - np.log(sigma[None])
        log_p = -0.5 * samples**2
        mc = float(np.mean(np.sum(log_q - log_p, axis=(1, 2))))
        assert abs(closed - mc) / closed < 0.01


class TestCanonicalAngle:
    def test_range(self, rng):
        out = g.canonical_angle(rng.uniform(-50, 50, size=1000))
        assert np.all((out >= 0) & (out < 2 * np.pi))

    def test_tiny_negative(self):
        assert 0.0 <= g.canonical_angle(-1e-18) < 2 * np.pi
