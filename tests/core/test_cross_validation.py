"""Tests for the 10-fold cross-validation and RE curve."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import AnalysisConfig
from repro.core.cross_validation import (
    RECurve,
    cross_validated_sse,
    fold_indices,
    relative_error_curve,
)
from repro.runtime.jobs import JobSpec, execute_job
from repro.sparse import CSRMatrix


def phased_dataset(m=80, n=10, noise=0.0, seed=0):
    """CPI fully determined by which feature block is hot."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((m, n))
    y = np.empty(m)
    for i in range(m):
        phase = i % 4
        matrix[i, phase] = 10 + rng.integers(0, 3)
        y[i] = [1.0, 2.0, 3.0, 4.0][phase] + rng.normal(0, noise)
    return matrix, y


def noise_dataset(m=80, n=10, seed=0):
    """CPI independent of the EIPVs."""
    rng = np.random.default_rng(seed)
    matrix = (rng.random((m, n)) < 0.4) * rng.integers(1, 20, (m, n))
    y = rng.normal(2.0, 0.5, m)
    return matrix.astype(float), y


class TestFolds:
    def test_partition_is_exact(self):
        rng = np.random.default_rng(0)
        folds = fold_indices(53, 10, rng)
        combined = np.concatenate(folds)
        assert sorted(combined.tolist()) == list(range(53))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            fold_indices(10, 1, rng)
        with pytest.raises(ValueError):
            fold_indices(5, 10, rng)


class TestRECurve:
    def test_predictable_data_low_re(self):
        matrix, y = phased_dataset(noise=0.02)
        curve = relative_error_curve(matrix, y, k_max=15)
        assert curve.re_kopt < 0.1
        assert curve.k_opt <= 6
        assert curve.explained_fraction > 0.85

    def test_unpredictable_data_re_near_or_above_one(self):
        matrix, y = noise_dataset()
        curve = relative_error_curve(matrix, y, k_max=20)
        assert curve.re_kopt > 0.8
        # Complex models overfit: the curve's tail exceeds its start.
        assert curve.re_inf >= curve.re[0] - 0.1

    def test_re_at_k1_close_to_one(self):
        """T_1 predicts the fold-train mean: RE ~ 1 by construction."""
        for maker in (phased_dataset, noise_dataset):
            matrix, y = maker()
            curve = relative_error_curve(matrix, y, k_max=3)
            assert curve.re[0] == pytest.approx(1.0, abs=0.15)

    def test_zero_variance_target(self):
        matrix, _ = noise_dataset()
        curve = relative_error_curve(matrix, np.full(len(matrix), 1.5),
                                     k_max=5)
        assert curve.re == pytest.approx(np.zeros(5))
        assert curve.re_kopt == 0.0

    def test_k_opt_is_smallest_within_tolerance(self):
        matrix, y = phased_dataset(noise=0.01)
        curve = relative_error_curve(matrix, y, k_max=20)
        re_min = curve.re.min()
        assert curve.re[curve.k_opt - 1] <= re_min + 0.005
        for k in range(1, curve.k_opt):
            assert curve.re[k - 1] > re_min + 0.005

    def test_seed_changes_folds_but_not_conclusion(self):
        matrix, y = phased_dataset(noise=0.05)
        re1 = relative_error_curve(matrix, y, seed=1, k_max=10).re_kopt
        re2 = relative_error_curve(matrix, y, seed=2, k_max=10).re_kopt
        assert abs(re1 - re2) < 0.15

    def test_curve_properties(self):
        matrix, y = phased_dataset()
        curve = relative_error_curve(matrix, y, k_max=12)
        assert isinstance(curve, RECurve)
        assert len(curve.re) == 12
        assert list(curve.k_values) == list(range(1, 13))
        rows = curve.as_rows()
        assert rows[0][0] == 1
        assert rows[-1][0] == 12

    def test_sse_monotone_in_information(self):
        """More noise -> more cross-validated error."""
        clean_matrix, clean_y = phased_dataset(noise=0.01, seed=3)
        noisy_matrix, noisy_y = phased_dataset(noise=0.8, seed=3)
        clean = cross_validated_sse(clean_matrix, clean_y, k_max=8)
        noisy = cross_validated_sse(noisy_matrix, noisy_y, k_max=8)
        assert noisy[4] > clean[4]

    def test_folds_fewer_than_points_rejected(self):
        matrix, y = phased_dataset(m=6)
        with pytest.raises(ValueError):
            relative_error_curve(matrix, y, folds=10)


class TestParallelFolds:
    def test_jobs_match_serial_bit_for_bit(self):
        """Fold fan-out is a performance knob: same bytes either way."""
        matrix, y = phased_dataset(m=60, n=8, noise=0.1)
        serial = cross_validated_sse(matrix, y, k_max=10, jobs=1)
        parallel = cross_validated_sse(matrix, y, k_max=10, jobs=4)
        np.testing.assert_array_equal(serial, parallel)

    def test_jobs_match_serial_on_sparse_input(self):
        from repro.sparse import CSRMatrix
        matrix, y = phased_dataset(m=60, n=8, noise=0.1)
        sparse = CSRMatrix.from_dense(matrix)
        serial = cross_validated_sse(sparse, y, k_max=10, jobs=1)
        parallel = cross_validated_sse(sparse, y, k_max=10, jobs=3)
        np.testing.assert_array_equal(serial, parallel)

    def test_curve_identical_through_jobs(self):
        matrix, y = phased_dataset(m=60, n=8, noise=0.1)
        one = relative_error_curve(matrix, y, k_max=10, jobs=1)
        four = relative_error_curve(matrix, y, k_max=10, jobs=4)
        np.testing.assert_array_equal(one.re, four.re)
        assert one.k_opt == four.k_opt
        assert one.re_kopt == four.re_kopt

    def test_impossible_partition_raises_the_same_error_at_any_jobs(
            self, monkeypatch):
        """Too few points for the folds is a ValueError before any pool
        is touched, whatever ``jobs`` says (it used to fork a pool, fail
        every fold job and raise a RuntimeError at jobs=2)."""
        from repro.runtime import pool as pool_mod
        from repro.runtime.metrics import METRICS

        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
        pool_mod.shutdown_default()
        matrix, y = phased_dataset(m=6)
        config = AnalysisConfig(k_max=3, folds=10)
        spawns = METRICS.count("pool.spawns")
        messages = []
        for jobs in (1, 2):
            with pytest.raises(ValueError) as excinfo:
                cross_validated_sse(matrix, y, config=config, jobs=jobs)
            messages.append(str(excinfo.value))
        assert messages == ["cannot make 10 folds from 6 points"] * 2
        assert METRICS.count("pool.spawns") == spawns


class TestPrefixInvariant:
    """The curve at ``k_max=k`` is the first k entries of the curve at
    any larger ``k_max``: what lets the daemon derive analyses."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(10, 60),
           n=st.integers(1, 6), folds=st.integers(2, 10),
           min_leaf=st.integers(1, 6), k=st.integers(2, 12),
           extra=st.integers(0, 15), sparse=st.booleans())
    # One feature with three values: every tree stops at <= 3 chambers.
    @example(seed=0, m=40, n=1, folds=4, min_leaf=1, k=6, extra=10,
             sparse=False)
    def test_sse_at_k_is_a_prefix_bit_for_bit(self, seed, m, n, folds,
                                              min_leaf, k, extra, sparse):
        rng = np.random.default_rng(seed)
        matrix = ((rng.random((m, n)) < 0.5)
                  * rng.integers(1, 4, (m, n))).astype(float)
        y = np.round(rng.random(m) * 3, 2)
        if sparse:
            matrix = CSRMatrix.from_dense(matrix)

        def sse(k_max):
            return cross_validated_sse(matrix, y, config=AnalysisConfig(
                k_max=k_max, folds=folds, seed=seed, min_leaf=min_leaf))

        assert sse(k).tobytes() == sse(k + extra)[:k].tobytes()

    @settings(max_examples=15, deadline=None)
    @given(workload=st.sampled_from(["spec.gzip", "spec.mcf", "odbh.q13"]),
           seed=st.integers(1, 3), k=st.integers(2, 14),
           extra=st.integers(0, 12))
    def test_truncated_result_equals_fresh_execution(self, workload, seed,
                                                     k, extra):
        def spec(k_max):
            return JobSpec(workload=workload, n_intervals=12, seed=seed,
                           scale="tiny", k_max=k_max)

        truncated = execute_job(spec(k + extra)).truncated(spec(k))
        fresh = execute_job(spec(k))
        assert truncated == replace(fresh, spans=())
