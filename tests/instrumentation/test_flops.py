"""Tests for the BCPNN cost model (Section II-B reproduction)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.instrumentation import BCPNNCostModel


class TestCostModel:
    def _model(self, **overrides):
        defaults = dict(n_input_units=280, n_hypercolumns=1, n_minicolumns=300, batch_size=128)
        defaults.update(overrides)
        return BCPNNCostModel(**defaults)

    def test_gemm_flops_formula(self):
        model = self._model()
        cost = model.batch_cost()
        assert cost.support_gemm_flops == 2.0 * 128 * 280 * 300
        assert cost.statistics_gemm_flops == cost.support_gemm_flops
        assert cost.total_flops > cost.support_gemm_flops

    def test_cost_scales_linearly_with_minicolumns(self):
        small = self._model(n_minicolumns=100).batch_cost().total_flops
        large = self._model(n_minicolumns=300).batch_cost().total_flops
        assert large / small == pytest.approx(3.0, rel=0.05)

    def test_cost_scales_linearly_with_hypercolumns(self):
        one = self._model(n_hypercolumns=1).epoch_cost(10000).total_flops
        four = self._model(n_hypercolumns=4).epoch_cost(10000).total_flops
        assert four / one == pytest.approx(4.0, rel=0.05)

    def test_density_does_not_change_dense_gemm_cost(self):
        """The paper's observation: receptive-field size barely affects time."""
        dense = self._model(density=1.0).batch_cost().total_flops
        sparse = self._model(density=0.05).batch_cost().total_flops
        assert dense == pytest.approx(sparse)

    def test_sparse_gemm_mode_scales_with_density(self):
        full = self._model(density=1.0, sparse_gemm=True).batch_cost().total_flops
        tenth = self._model(density=0.1, sparse_gemm=True).batch_cost().total_flops
        assert tenth < 0.5 * full

    def test_epoch_cost_scales_with_samples(self):
        model = self._model()
        one = model.epoch_cost(1000).total_flops
        ten = model.epoch_cost(10000).total_flops
        assert ten / one == pytest.approx(10.0, rel=0.15)

    def test_arithmetic_intensity_positive(self):
        cost = self._model().batch_cost()
        assert cost.arithmetic_intensity > 0
        assert cost.bytes_touched > 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BCPNNCostModel(0, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            self._model(density=1.5)
        with pytest.raises(ConfigurationError):
            self._model(dtype_bytes=3)
        with pytest.raises(ConfigurationError):
            self._model().epoch_cost(0)

    def test_as_dict_keys(self):
        cost = self._model().batch_cost()
        assert "total_flops" in cost.as_dict()
        assert "arithmetic_intensity" in cost.as_dict()
