"""Tests for basic-block vector construction."""

import numpy as np
import pytest

from repro.trace.bbv import build_bbvs
from repro.trace.eipv import build_eipvs

from tests.trace.test_eipv import synthetic_trace


class TestBuildBBVs:
    def test_fewer_or_equal_features_than_eipvs(self):
        trace = synthetic_trace(100, n_eips=40)
        eipv = build_eipvs(trace, 10_000)
        bbv = build_bbvs(trace, 10_000, block_bytes=128)
        assert bbv.n_eips <= eipv.n_eips
        assert bbv.n_intervals == eipv.n_intervals

    def test_counts_conserved(self):
        trace = synthetic_trace(100, n_eips=40)
        bbv = build_bbvs(trace, 10_000, block_bytes=128)
        assert (bbv.matrix.sum(axis=1) == 10).all()

    def test_cpis_identical_to_eipv_pipeline(self):
        trace = synthetic_trace(100)
        eipv = build_eipvs(trace, 10_000)
        bbv = build_bbvs(trace, 10_000)
        assert bbv.cpis == pytest.approx(eipv.cpis)

    def test_block_addresses_aligned(self):
        trace = synthetic_trace(100)
        bbv = build_bbvs(trace, 10_000, block_bytes=128)
        assert (bbv.eip_index % 128 == 0).all()

    def test_block_bytes_one_equals_eipv(self):
        trace = synthetic_trace(60)
        eipv = build_eipvs(trace, 10_000)
        bbv = build_bbvs(trace, 10_000, block_bytes=1)
        assert np.array_equal(bbv.eip_index, eipv.eip_index)
        assert np.array_equal(bbv.matrix.toarray(), eipv.matrix.toarray())

    def test_huge_blocks_collapse_to_one_feature(self):
        trace = synthetic_trace(60)
        bbv = build_bbvs(trace, 10_000, block_bytes=1 << 40)
        assert bbv.n_eips == 1
        assert (bbv.matrix.toarray() == 10).all()

    def test_validation(self):
        trace = synthetic_trace(60)
        with pytest.raises(ValueError):
            build_bbvs(trace, 10_000, block_bytes=0)
        with pytest.raises(ValueError):
            build_bbvs(trace, 500)


def test_aggregation_sums_member_eips():
    """Each block's count equals the sum of its member EIPs' counts."""
    trace = synthetic_trace(100, n_eips=32)
    eipv = build_eipvs(trace, 10_000)
    bbv = build_bbvs(trace, 10_000, block_bytes=128)
    bbv_matrix, eipv_matrix = bbv.matrix.toarray(), eipv.matrix.toarray()
    for b, block in enumerate(bbv.eip_index):
        members = ((eipv.eip_index >= block)
                   & (eipv.eip_index < block + 128))
        assert np.array_equal(bbv_matrix[:, b],
                              eipv_matrix[:, members].sum(axis=1))
