import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusvae import metrics as m
from torusvae.errors import ConfigError
from conftest import kkt_lasso_oracle


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
        table = m.CodeFactorTable(np.ones((5, 2)), np.arange(10.0).reshape(5, 2))
        with pytest.warns(UserWarning, match="constant"):
            out = m.standardize(table)
        assert np.all(out.codes == 0.0)
        assert out.standardized

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            m.CodeFactorTable(np.ones((4, 2)), np.ones((5, 2)))


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
        threshold = m.null_threshold(X, y)
        assert threshold == pytest.approx(np.abs(X.T @ y).max() / 25, rel=1e-12)
        assert np.array_equal(m.lasso_fit(X, y, threshold), np.zeros(4))
        assert np.array_equal(m.lasso_fit(X, y, threshold * 1.5), np.zeros(4))
        assert np.any(m.lasso_fit(X, y, threshold * 0.5) != 0.0)

    def test_matches_kkt_oracle(self, rng):
        for _ in range(5):
            X, _ = m.standardize_columns(rng.standard_normal((20, 5)))
            y = rng.standard_normal(20)
            y = (y - y.mean()) / y.std()
            w = m.lasso_fit(X, y, 0.1)
            obj = m.lasso_objective(X, y, w, 0.1)
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


class TestLassoCv:
    def test_noiseless_linear_recovers_weights(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((100, 5)))
        w_true = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ w_true
        alpha, w = m.lasso_cv(X, y, seed=3)
        assert alpha == 1e-6
        assert np.abs(w - w_true).max() < 1e-3

    def test_pure_noise_selects_sparse(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((100, 5)))
        y = rng.standard_normal(100)
        y = (y - y.mean()) / y.std()
        _, w = m.lasso_cv(X, y, seed=7)
        assert np.abs(w).sum() < 0.1

    def test_deterministic_given_seed(self, rng):
        X, _ = m.standardize_columns(rng.standard_normal((60, 4)))
        y = rng.standard_normal(60)
        assert m.lasso_cv(X, y, seed=11)[0] == m.lasso_cv(X, y, seed=11)[0]
        assert np.array_equal(m.lasso_cv(X, y, seed=11)[1], m.lasso_cv(X, y, seed=11)[1])

    def test_too_few_rows(self, rng):
        with pytest.raises(ConfigError):
            m.lasso_cv(rng.standard_normal((6, 2)), rng.standard_normal(6), seed=1, folds=10)

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
                    assert abs(m.lasso_objective(X[rows], Y[rows, j], w, alpha) - oracle_obj) < 1e-6
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
    def test_identity_map_is_diagonal_dominant(self, rng):
        z = rng.standard_normal((300, 4))
        table = m.standardize(m.CodeFactorTable(z.copy(), z.copy()))
        R = m.fit_factor_regressors(table, seed=5).importance()
        off_diagonal = R.sum() - np.trace(R)
        assert off_diagonal < 0.05 * np.trace(R)

    def test_independent_factors_give_near_zero(self, rng):
        table = m.standardize(
            m.CodeFactorTable(rng.standard_normal((300, 3)), rng.standard_normal((300, 2)))
        )
        R = m.fit_factor_regressors(table, seed=5).importance()
        assert R.max() < 0.15

    def test_shape(self, rng):
        table = m.standardize(
            m.CodeFactorTable(rng.standard_normal((50, 6)), rng.standard_normal((50, 2)))
        )
        assert m.fit_factor_regressors(table, seed=1).importance().shape == (6, 2)


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
        payload = json.loads(json.dumps(report.to_dict()))
        jsonschema.validate(payload, m.DCI_REPORT_SCHEMA)

    def test_deterministic(self, rng):
        codes = rng.standard_normal((150, 3))
        factors = rng.standard_normal((150, 2))
        a = m.run_dci(codes, factors, split_seed=7).report.to_dict()
        b = m.run_dci(codes, factors, split_seed=7).report.to_dict()
        assert a == b

    def test_nonnegative_informativeness(self, rng):
        codes = rng.standard_normal((120, 2))
        report = m.run_dci(codes, rng.standard_normal((120, 2)), split_seed=1).report
        assert report.informativeness >= 0.0


class TestHeatmaps:
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
