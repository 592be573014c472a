import csv
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusvae import metrics as m
from torusvae.errors import ConfigError
from helpers import (assert_same_bits, kkt_lasso_oracle, lasso_objective, null_threshold,
                     oracle_lasso_cd)


class TestStandardize:
    def test_small_column(self):
        out, dead = m.standardize_columns(np.array([[1.0], [2.0], [3.0]]))
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-12
        assert not dead.any()
        assert out[2, 0] == pytest.approx(np.sqrt(1.5))

    def test_already_standardized_unchanged(self, rng):
        x = rng.standard_normal((200, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out, _ = m.standardize_columns(x)
        assert np.abs(out - x).max() < 1e-12

    def test_constant_column_zeroed_with_warning(self):
        with pytest.warns(UserWarning, match="constant"):
            out = m.run_dci(np.ones((5, 2)), np.arange(10.0).reshape(5, 2), split_seed=0, folds=2)
        assert np.all(out.codes == 0.0)
        assert out.report.flags[:2] == ["constant_code:0", "constant_code:1"]
        assert np.abs(out.factors.mean(axis=0)).max() < 1e-12
        assert np.abs(out.factors.var(axis=0) - 1.0).max() < 1e-12

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            m.run_dci(np.ones((4, 2)), np.ones((5, 2)), split_seed=0)

    def test_one_dimensional_block_rejected(self):
        with pytest.raises(ValueError):
            m.run_dci(np.ones(20), np.ones((20, 2)), split_seed=0)


class TestLassoFit:
    def test_ols_on_orthonormal_columns(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
        X = q * np.sqrt(30)  # col_sq = 1 per column
        y = rng.standard_normal(30)
        w = m.lasso_fit(X, y, 0.0)
        assert np.abs(w - X.T @ y / 30).max() < 1e-12

    def test_null_threshold_exact(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((25, 4)))
        y = rng.standard_normal(25)
        y -= y.mean()
        threshold = null_threshold(X, y)
        assert threshold == pytest.approx(np.abs(X.T @ y).max() / 25, rel=1e-12)
        assert np.array_equal(m.lasso_fit(X, y, threshold), np.zeros(4))
        assert np.array_equal(m.lasso_fit(X, y, threshold * 1.5), np.zeros(4))
        assert np.any(m.lasso_fit(X, y, threshold * 0.5) != 0.0)

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_refuses_fewer_than_one_sweep(self, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
            m.lasso_fit(np.eye(3), np.ones(3), 0.1, max_sweeps=max_sweeps)

    def test_matches_kkt_oracle(self, rng):
        for _ in range(5):
            X, _ = m.standardize_columns(rng.standard_normal((20, 5)))
            y = rng.standard_normal(20)
            y = (y - y.mean()) / y.std()
            w = m.lasso_fit(X, y, 0.1)
            obj = lasso_objective(X, y, w, 0.1)
            oracle_obj, _ = kkt_lasso_oracle(X, y, 0.1)
            assert abs(obj - oracle_obj) < 1e-6

    def test_negative_alpha_rejected(self, rng):
        with pytest.raises(ValueError):
            m.lasso_fit(rng.standard_normal((5, 2)), rng.standard_normal(5), -0.1)

    def test_unconverged_problems_warn_with_count_and_delta(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((40, 4)) @ rng.standard_normal((4, 4)))
        Y = rng.standard_normal((40, 3))
        with pytest.warns(UserWarning, match=r"3 of 3 problems still moved after 1 sweeps, by up to"):
            m.lasso_fit(X, Y, 1e-3, max_sweeps=1)


def correlated_codes(seed=1, n=400):
    """Standardized codes (n, 10) that mix 5 standardized factors (n, 5) with
    noise; their correlated columns make coordinate descent take over 50
    sweeps on the default grid."""
    rng = np.random.default_rng(seed)
    factors = rng.uniform(-1, 1, (n, 5))
    codes = factors @ rng.standard_normal((5, 10)) + 0.3 * rng.standard_normal((n, 10))
    return m.standardize_columns(codes)[0], m.standardize_columns(factors)[0]


def recorded_lasso_cv(X, Y, seed, **kwargs):
    """lasso_cv's (best alphas, weights) and every lasso_fit call it made, as
    (X, Y, alpha, folds, weights)."""
    fit, calls = m.lasso_fit, []

    def recording(X, Y, alpha, **kw):
        weights = fit(X, Y, alpha, **kw)
        calls.append((X, Y, alpha, kw.get("folds"), weights))
        return weights

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(m, "lasso_fit", recording)
        return m.lasso_cv(X, Y, seed, **kwargs), calls


def kkt_residuals(X, Y, alpha, folds, weights):
    """The largest |c - G.w - alpha*sign(w)| over the support and the largest
    |c - G.w| - alpha off it, over every problem of one lasso_fit call."""
    folds = [slice(None)] if folds is None else folds
    weights = weights.reshape(len(folds), -1, Y.shape[1], X.shape[1])  # (F, A, K, D)
    a = np.broadcast_to(alpha, weights.shape[1:3])[..., None]
    on_support, off_support = 0.0, -np.inf
    for rows, w in zip(folds, weights):
        G, C = m._moments(X[rows], Y[rows])
        corr = C.T - w @ G
        on = w != 0.0
        on_support = max(on_support, np.where(on, np.abs(corr - a * np.sign(w)), 0.0).max())
        off_support = max(off_support, np.where(on, -np.inf, np.abs(corr) - a).max())
    return on_support, off_support


class TestLassoFinish:
    """The exact finish of lasso_fit: every FINISH_EVERY sweeps each live
    problem is solved on its support, and stops there if KKT holds."""

    @pytest.mark.parametrize("every, rounds", [(m.FINISH_EVERY, m.FINISH_ROUNDS), (1, 0)],
                             ids=["default", "each-sweep-no-rounds"])
    def test_every_problem_meets_kkt(self, monkeypatch, every, rounds):
        # with no active-set rounds, a finish after every sweep leaves many
        # problems unsolved, and those must go on with coordinate descent
        monkeypatch.setattr(m, "FINISH_EVERY", every)
        monkeypatch.setattr(m, "FINISH_ROUNDS", rounds)
        X, Y = correlated_codes()
        _, calls = recorded_lasso_cv(X, Y, seed=7)
        assert len(calls) == 2
        X_, Y_, alpha, folds, _ = calls[0]
        with pytest.warns(m.ConvergenceWarning):  # descent alone takes over 50 sweeps here
            oracle_lasso_cd(X_, Y_, alpha, max_sweeps=50, folds=folds)
        for X_, Y_, alpha, folds, weights in calls:
            on_support, off_support = kkt_residuals(X_, Y_, alpha, folds, weights)
            assert on_support <= 1e-9
            assert off_support <= 1e-12

    def test_failed_solve_leaves_coordinate_descent_bits(self, monkeypatch):
        X, Y = correlated_codes()
        folds = [np.arange(40, 400), np.arange(0, 360)]
        grid = np.asarray(m.DEFAULT_ALPHA_GRID)[:, None]
        oracle = oracle_lasso_cd(X, Y, grid, folds=folds)
        assert not np.array_equal(m.lasso_fit(X, Y, grid, folds=folds), oracle)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert_same_bits(m.lasso_fit(X, Y, grid, folds=folds), oracle)

    def test_duplicated_column_stops_without_warning(self, rng, recwarn):
        base = rng.standard_normal((20, 3))
        X, _ = m.standardize_columns(np.column_stack([base[:, 0], base]))
        assert np.array_equal(X[:, 0], X[:, 1])
        y = X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.standard_normal(20)
        y = (y - y.mean()) / y.std()
        for alpha in (1e-3, 0.01, 0.1):
            w = m.lasso_fit(X, y, alpha)
            oracle_obj, _ = kkt_lasso_oracle(X, y, alpha)
            assert abs(lasso_objective(X, y, w, alpha) - oracle_obj) < 1e-6
        assert not [r for r in recwarn if issubclass(r.category, m.ConvergenceWarning)]

    def test_ill_conditioned_solution_is_refused(self):
        # G's two columns differ by 2^-40, and b = c - alpha * sign lies along
        # their difference: the solution's signs agree with the support's, but
        # it is ~2^40 * 0.01 and its residual far above FINISH_RESIDUAL
        rho = 1.0 - 2.0**-40
        G = np.array([[1.0, rho], [rho, 1.0]])
        x = np.array([[0.5, -0.5]])
        alpha = np.array([0.1])
        c = 0.01 * np.array([[1.0, -1.0]]) + alpha * np.sign(x)
        z, solved = m._support_solve(G, c, x, alpha)
        assert np.array_equal(np.sign(z), np.sign(x))
        assert np.abs(c - z @ G - alpha * np.sign(z)).max() > m.FINISH_RESIDUAL
        assert not solved.any()

    @pytest.mark.parametrize("every", [1, 7])
    def test_other_cadences_keep_the_oracle_and_exact_zeros(self, rng, monkeypatch, every):
        monkeypatch.setattr(m, "FINISH_EVERY", every)
        instances = np.random.default_rng(4242)  # acceptance criterion 5's instances
        for _ in range(25):
            X, _ = m.standardize_columns(instances.standard_normal((20, 5)))
            y = instances.standard_normal(20)
            y = (y - y.mean()) / y.std()
            oracle_obj, _ = kkt_lasso_oracle(X, y, 0.1)
            assert abs(lasso_objective(X, y, m.lasso_fit(X, y, 0.1), 0.1) - oracle_obj) < 1e-6
            threshold = null_threshold(X, y)
            assert np.array_equal(m.lasso_fit(X, y, threshold), np.zeros(5))
            assert np.array_equal(m.lasso_fit(X, y, 1.3 * threshold), np.zeros(5))
        X, _ = m.standardize_columns(rng.standard_normal((25, 4)))  # test_null_threshold_exact's
        y = rng.standard_normal(25)
        y -= y.mean()
        threshold = null_threshold(X, y)
        assert np.array_equal(m.lasso_fit(X, y, threshold), np.zeros(4))
        assert np.array_equal(m.lasso_fit(X, y, threshold * 1.5), np.zeros(4))
        assert np.any(m.lasso_fit(X, y, threshold * 0.5) != 0.0)


class TestLassoCv:
    def test_noiseless_linear_recovers_weights(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((100, 5)))
        w_true = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ w_true
        (alpha,), (w,) = m.lasso_cv(X, y[:, None], seed=3)
        assert alpha == 1e-6
        assert np.abs(w - w_true).max() < 1e-3

    def test_pure_noise_selects_sparse(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((100, 5)))
        y = rng.standard_normal(100)
        y = (y - y.mean()) / y.std()
        _, w = m.lasso_cv(X, y[:, None], seed=7)
        assert np.abs(w).sum() < 0.1

    def test_deterministic_given_seed(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((60, 4)))
        y = rng.standard_normal((60, 1))
        assert np.array_equal(m.lasso_cv(X, y, seed=11)[0], m.lasso_cv(X, y, seed=11)[0])
        assert np.array_equal(m.lasso_cv(X, y, seed=11)[1], m.lasso_cv(X, y, seed=11)[1])

    def test_too_few_rows(self, rng):
        with pytest.raises(ConfigError):
            m.lasso_cv(rng.standard_normal((6, 2)), rng.standard_normal((6, 1)), seed=1, folds=10)

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_rejected(self, rng, folds):
        with pytest.raises(ConfigError, match="2 folds"):
            m.lasso_cv(rng.standard_normal((20, 2)), rng.standard_normal((20, 1)), seed=1,
                       folds=folds)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(20, 60), d=st.integers(1, 5), k=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_problems_match_one_problem_fits(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        X, _ = m.standardize_columns(rng.standard_normal((n, d)))
        Y, _ = m.standardize_columns(X @ rng.standard_normal((d, k)) + rng.standard_normal((n, k)))
        grid = (1e-4, 0.01, 0.1, 0.5)
        one_problem = m.lasso_fit
        passes = []

        def recording(*args, **kwargs):
            weights = one_problem(*args, **kwargs)
            passes.append((kwargs.get("folds"), weights))
            return weights

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(m, "lasso_fit", recording)
            alphas, weights = m.lasso_cv(X, Y, seed=seed, grid=grid, folds=3)
        (fold_rows, cv_weights), (_, refit) = passes
        assert cv_weights.shape == (3, len(grid), k, d)
        blocks = np.array_split(np.random.default_rng(seed).permutation(n), 3)
        for f, block in enumerate(blocks):
            rows = np.delete(np.arange(n), block)
            assert np.array_equal(fold_rows[f], rows)
            for a, alpha in enumerate(grid):
                for j in range(k):
                    w = cv_weights[f, a, j]
                    assert np.abs(w - one_problem(X[rows], Y[rows, j], alpha)).max() < 1e-9
                    oracle_obj, _ = kkt_lasso_oracle(X[rows], Y[rows, j], alpha)
                    assert abs(lasso_objective(X[rows], Y[rows, j], w, alpha) - oracle_obj) < 1e-6
        assert np.array_equal(refit, weights)
        for j in range(k):
            assert np.abs(weights[j] - one_problem(X, Y[:, j], alphas[j])).max() < 1e-9

    def test_ties_go_to_the_largest_alpha(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((50, 3)))
        Y = np.column_stack([np.zeros(50), X[:, 0]])  # every alpha fits factor 0 exactly
        alphas, weights = m.lasso_cv(X, Y, seed=2)
        assert alphas[0] == max(m.DEFAULT_ALPHA_GRID)
        assert alphas[1] == min(m.DEFAULT_ALPHA_GRID)
        assert np.all(weights[0] == 0.0)

    def test_all_zero_code_column_gets_exact_zero_weight(self, rng):
        X, dead = m.standardize_columns(
            np.column_stack([rng.standard_normal(80), np.full(80, 3.0), rng.standard_normal(80)])
        )
        assert dead.tolist() == [False, True, False]
        Y = np.column_stack([X[:, 0] - X[:, 2], X[:, 2]]) + 0.1 * rng.standard_normal((80, 2))
        alphas, weights = m.lasso_cv(X, Y, seed=4, folds=5)
        assert alphas.shape == (2,)
        assert np.all(weights[:, 1] == 0.0)
        assert np.abs(weights[0, [0, 2]]).min() > 0.5


class TestImportanceMatrix:
    """R = |W|^T of the per-factor lassos that run_dci fits on standardized blocks."""

    @staticmethod
    def importance(codes, factors, seed):
        codes, _ = m.standardize_columns(codes)
        factors, _ = m.standardize_columns(factors)
        _, weights = m.lasso_cv(codes, factors, seed)
        return np.abs(weights).T

    def test_identity_map_is_diagonal_dominant(self, rng):
        z = rng.standard_normal((300, 4))
        R = self.importance(z.copy(), z.copy(), seed=5)
        off_diagonal = R.sum() - np.trace(R)
        assert off_diagonal < 0.05 * np.trace(R)

    def test_independent_factors_give_near_zero(self, rng):
        R = self.importance(rng.standard_normal((300, 3)), rng.standard_normal((300, 2)), seed=5)
        assert R.max() < 0.15

    def test_shape(self, rng):
        R = self.importance(rng.standard_normal((50, 6)), rng.standard_normal((50, 2)), seed=1)
        assert R.shape == (6, 2)


class TestDisentanglement:
    def test_identity_is_perfect(self):
        res = m.disentanglement(np.eye(2))
        assert res.score == pytest.approx(1.0, abs=1e-12)
        assert res.rank == 2

    def test_uniform_is_zero(self):
        assert m.disentanglement(np.ones((2, 2))).score == pytest.approx(0.0, abs=1e-12)

    def test_rank_correction_single_code(self):
        res = m.disentanglement(np.array([[1.0, 0.0]]))
        assert res.per_code[0] == 1.0
        assert res.rank == 1
        assert res.score == pytest.approx(0.5, abs=1e-12)

    def test_zero_matrix_flagged(self):
        res = m.disentanglement(np.zeros((3, 2)))
        assert res.score == 0.0 and res.degenerate

    def test_zero_row_contributes_nothing(self):
        res = m.disentanglement(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert res.per_code[1] == 0.0
        assert res.code_weights[1] == 0.0

    def test_single_factor_convention(self):
        res = m.disentanglement(np.array([[2.0], [1.0]]))
        assert np.all(res.per_code == 1.0)
        assert res.score == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            m.disentanglement(np.array([[1.0, -0.5]]))


class TestCompleteness:
    def test_identity_is_perfect(self):
        assert m.completeness(np.eye(2)).score == pytest.approx(1.0, abs=1e-12)

    def test_shared_factor_is_zero(self):
        assert m.completeness(np.array([[1.0], [1.0]])).score == pytest.approx(0.0, abs=1e-12)

    def test_hand_derived_three_codes(self):
        res = m.completeness(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        expected_c2 = 1.0 + 2 * 0.5 * np.log(0.5) / np.log(3)
        assert res.per_factor[0] == pytest.approx(1.0, abs=1e-12)
        assert res.per_factor[1] == pytest.approx(expected_c2, abs=1e-12)
        assert res.score == pytest.approx((1.0 + expected_c2) / 2, abs=1e-12)
        assert res.score == pytest.approx(0.6845, abs=1e-4)

    def test_zero_column_flagged_zero(self):
        res = m.completeness(np.array([[1.0, 0.0], [0.5, 0.0]]))
        assert res.per_factor[1] == 0.0

    def test_single_code_convention(self):
        res = m.completeness(np.array([[1.0, 2.0]]))
        assert np.all(res.per_factor == 1.0)


class TestInvariances:
    def test_scale_invariance(self, rng):
        for _ in range(25):
            R = rng.uniform(0, 1, size=(rng.integers(1, 6), rng.integers(1, 6)))
            c = float(rng.uniform(0.1, 10))
            assert m.disentanglement(c * R).score == pytest.approx(
                m.disentanglement(R).score, abs=1e-10
            )
            assert m.completeness(c * R).score == pytest.approx(
                m.completeness(R).score, abs=1e-10
            )

    def test_code_permutation_equivariance(self, rng):
        for _ in range(25):
            R = rng.uniform(0, 1, size=(5, 3))
            perm = rng.permutation(5)
            assert m.disentanglement(R[perm]).score == pytest.approx(
                m.disentanglement(R).score, abs=1e-12
            )
            assert m.completeness(R[perm]).score == pytest.approx(
                m.completeness(R).score, abs=1e-12
            )

    def test_rank_correction_noop_at_full_rank(self, rng):
        R = np.eye(3) + 0.01 * rng.uniform(size=(3, 3))
        res = m.disentanglement(R)
        assert res.rank == 3
        assert res.score == pytest.approx(float(res.code_weights @ res.per_code), abs=1e-12)


class TestDcScore:
    def test_reported_score_pairs(self):
        assert m.dc_score(0.36, 0.43) == pytest.approx(0.39, abs=0.005)
        assert m.dc_score(0.69, 0.61) == pytest.approx(0.65, abs=0.005)

    def test_trivial_identities(self, rng):
        for x in rng.uniform(0, 1, size=10):
            assert m.dc_score(x, x) == pytest.approx(x, abs=1e-12)
        assert m.dc_score(0.0, 1.0) == 0.0

    def test_dominated_by_arithmetic_mean(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0, 1, size=2)
            assert m.dc_score(a, b) <= (a + b) / 2 + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            m.dc_score(1.2, 0.5)


class TestEvaluateDci:
    def test_identity_pipeline(self, rng):
        z = rng.standard_normal((800, 3))
        report = m.run_dci(z.copy(), z.copy(), split_seed=13).report
        assert report.disentanglement > 0.95
        assert report.completeness > 0.95
        assert report.informativeness < 1e-3
        assert report.dc_score == pytest.approx(
            np.sqrt(report.disentanglement * report.completeness), abs=1e-12
        )

    def test_independent_codes_uninformative(self, rng):
        codes = rng.standard_normal((600, 4))
        factors = rng.standard_normal((600, 3))
        report = m.run_dci(codes, factors, split_seed=13).report
        assert report.informativeness == pytest.approx(1.0, abs=0.15)

    def test_report_schema(self, rng):
        import jsonschema

        z = rng.standard_normal((200, 2))
        report = m.run_dci(z, z + 0.01 * rng.standard_normal((200, 2)), split_seed=3).report
        payload = json.loads(json.dumps(asdict(report)))
        jsonschema.validate(payload, m.DCI_REPORT_SCHEMA)
        assert report.flags == []

    def test_constant_columns_are_flagged(self, rng):
        import jsonschema

        codes = rng.standard_normal((60, 3))
        codes[:, 1] = 4.0
        factors = codes[:, :2] + 0.1 * rng.standard_normal((60, 2))
        factors[:, 0] = -1.0
        with pytest.warns(UserWarning, match="constant"):
            report = m.run_dci(codes, factors, split_seed=3).report
        assert report.flags[:2] == ["constant_code:1", "constant_factor:0"]
        jsonschema.validate(json.loads(json.dumps(asdict(report))), m.DCI_REPORT_SCHEMA)

    def test_unconverged_lasso_is_flagged(self, rng, monkeypatch):
        import jsonschema

        fit = m.lasso_fit
        monkeypatch.setattr(m, "lasso_fit", lambda *args, **kw: fit(*args, **kw, max_sweeps=1))
        codes = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 3))
        factors = codes[:, :2] + 0.1 * rng.standard_normal((200, 2))
        with pytest.warns(m.ConvergenceWarning, match="did not converge"):
            report = m.run_dci(codes, factors, split_seed=3).report
        assert report.flags == ["lasso_not_converged"]
        jsonschema.validate(json.loads(json.dumps(asdict(report))), m.DCI_REPORT_SCHEMA)

    @pytest.mark.parametrize("flag", ["surprise", "dead_code:x", "constant_code:01",
                                      "constant_row:0", "lasso_not_converged:0", ""])
    def test_schema_rejects_unknown_flags(self, rng, flag):
        import jsonschema

        z = rng.standard_normal((100, 2))
        payload = json.loads(json.dumps(asdict(m.run_dci(z, z, split_seed=3).report)))
        payload["flags"] = ["dead_factor:1", flag]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, m.DCI_REPORT_SCHEMA)

    def test_deterministic(self, rng):
        codes = rng.standard_normal((150, 3))
        factors = rng.standard_normal((150, 2))
        a = asdict(m.run_dci(codes, factors, split_seed=7).report)
        b = asdict(m.run_dci(codes, factors, split_seed=7).report)
        assert a == b

    def test_nonnegative_informativeness(self, rng):
        codes = rng.standard_normal((120, 2))
        report = m.run_dci(codes, rng.standard_normal((120, 2)), split_seed=1).report
        assert report.informativeness >= 0.0


def histogram2d_oracle(codes, factors, bins):
    """One np.histogram2d per (code, factor) pair over the observed ranges."""
    def observed(values):
        lo, hi = float(values.min()), float(values.max())
        return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)

    return {
        (a, j): np.histogram2d(codes[:, a], factors[:, j], bins=bins,
                               range=[observed(codes[:, a]), observed(factors[:, j])])[0]
        for a in range(codes.shape[1]) for j in range(factors.shape[1])
    }


def csv_writer_oracle(path, matrix, header):
    """csv.writer rows: the header, then every value formatted with FLOAT_FORMAT."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([m.FLOAT_FORMAT % v for v in row])


def _heatmap_case(name, rng):
    if name == "random":
        return rng.standard_normal((300, 3)), rng.uniform(-2, 5, (300, 2))
    if name == "on_edges":  # integers land on interior edges and on the last edge
        return rng.integers(0, 5, (200, 3)).astype(float), rng.integers(-3, 1, (200, 2)) * 0.25
    if name == "repeated":
        return rng.choice([-1.5, 0.1, 0.1, 2.0], (150, 2)), rng.choice([1e-9, 3.0], (150, 3))
    if name == "constant":
        codes, factors = rng.standard_normal((80, 3)), rng.standard_normal((80, 2))
        codes[:, 1], factors[:, 0] = 2.5, -7.0
        return codes, factors
    if name == "one_row":
        return rng.standard_normal((1, 3)), rng.standard_normal((1, 2))
    raise ValueError(name)


HEATMAP_CASES = ["random", "on_edges", "repeated", "constant", "one_row"]


class TestHeatmaps:
    @pytest.mark.parametrize("bins", [1, 4, 32])
    @pytest.mark.parametrize("case", HEATMAP_CASES)
    def test_counts_match_histogram2d(self, rng, case, bins):
        codes, factors = _heatmap_case(case, rng)
        bundle = m.heatmap_export(codes, factors, np.ones((codes.shape[1], factors.shape[1])),
                                  bins=bins)
        expected = histogram2d_oracle(codes, factors, bins)
        assert bundle.histograms.keys() == expected.keys()
        for key, counts in bundle.histograms.items():
            assert counts.dtype == np.intp
            assert np.array_equal(counts, expected[key]), key

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_range_rejected(self, rng, bad):
        codes = rng.standard_normal((20, 2))
        codes[3, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            m.heatmap_export(codes, rng.standard_normal((20, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("bins", [1, 32])
    @pytest.mark.parametrize("case", HEATMAP_CASES)
    def test_csv_bytes_match_csv_writer(self, tmp_path, rng, case, bins):
        codes, factors = _heatmap_case(case, rng)
        R = np.abs(rng.standard_normal((codes.shape[1], factors.shape[1])))
        R[0, 0], R[-1, -1] = 1e-300, 123456789.25
        bundle = m.heatmap_export(codes, factors, R, bins=bins)
        paths = m.write_heatmap_bundle(bundle, tmp_path / "new")
        (tmp_path / "old").mkdir()
        csv_writer_oracle(tmp_path / "old" / "importance.csv", R,
                          [f"factor_{j}" for j in range(R.shape[1])])
        for (a, j), counts in bundle.histograms.items():
            csv_writer_oracle(tmp_path / "old" / f"hist_code{a}_factor{j}.csv", counts,
                              [f"factor_bin_{b}" for b in range(bins)])
        old = sorted(p.name for p in (tmp_path / "old").iterdir())
        assert sorted(p.name for p in paths) == old
        for path in paths:
            assert path.read_bytes() == (tmp_path / "old" / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("written", [1, 4])
    def test_interrupted_rewrite_keeps_the_previous_bundle(self, tmp_path, rng, monkeypatch,
                                                          written):
        def bundle():
            return m.heatmap_export(rng.standard_normal((100, 2)), rng.standard_normal((100, 2)),
                                    np.abs(rng.standard_normal((2, 2))))

        m.write_heatmap_bundle(bundle(), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        opened, sized_output = [], m.sized_output

        def failing_sized_output(path, size):
            if len(opened) == written:
                raise OSError("no space left on device")
            opened.append(path)
            return sized_output(path, size)

        monkeypatch.setattr(m, "sized_output", failing_sized_output)
        with pytest.raises(OSError, match="no space"):
            m.write_heatmap_bundle(bundle(), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_smaller_bundle_removes_stale_histograms(self, tmp_path, rng):
        # a 3-code bundle and then a 1-code bundle, 2 factors each, written
        # into one directory leave only the second bundle's 3 files
        def bundle(n_codes):
            return m.heatmap_export(rng.standard_normal((50, n_codes)),
                                    rng.standard_normal((50, 2)),
                                    np.abs(rng.standard_normal((n_codes, 2))))

        m.write_heatmap_bundle(bundle(3), tmp_path)
        assert len(list(tmp_path.iterdir())) == 7
        paths = m.write_heatmap_bundle(bundle(1), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths) == [
            "hist_code0_factor0.csv", "hist_code0_factor1.csv", "importance.csv"]
        # files that only resemble a histogram's name are not the bundle's
        others = ["notes.csv", "hist_code1_factor0.csv.bak", "hist_codeA_factor0.csv"]
        for name in others:
            (tmp_path / name).write_text("kept")
        m.write_heatmap_bundle(bundle(1), tmp_path)
        assert all((tmp_path / name).read_text() == "kept" for name in others)

    def test_counts_sum_to_n(self, rng):
        codes = rng.standard_normal((250, 2))
        factors = rng.standard_normal((250, 3))
        bundle = m.heatmap_export(codes, factors, np.abs(rng.standard_normal((2, 3))))
        for counts in bundle.histograms.values():
            assert counts.sum() == 250

    def test_identity_mass_on_diagonal(self, rng):
        z = rng.uniform(0, 1, size=(500, 1))
        bundle = m.heatmap_export(z, z, np.ones((1, 1)))
        counts = bundle.histograms[(0, 0)]
        assert np.trace(counts) == 500

    def test_csv_round_trip(self, tmp_path, rng):
        codes = rng.standard_normal((100, 2))
        factors = rng.standard_normal((100, 2))
        bundle = m.heatmap_export(codes, factors, np.abs(rng.standard_normal((2, 2))))
        paths = m.write_heatmap_bundle(bundle, tmp_path)
        assert (tmp_path / "importance.csv").exists()
        loaded = np.loadtxt(tmp_path / "hist_code0_factor1.csv", delimiter=",", skiprows=1)
        assert np.array_equal(loaded, bundle.histograms[(0, 1)])
        assert len(paths) == 1 + 4
