"""Tests for the backend registry."""

import pytest

from repro.backend import NumpyBackend, get_backend, list_backends
from repro.exceptions import BackendError

#: StreamBrain backend names and simulations this registry no longer carries.
RETIRED_BACKENDS = ("parallel", "distributed", "openmp", "mpi", "fpga")


class TestRegistry:
    def test_builtin_backends_listed(self):
        assert list_backends() == ["float16", "float32", "numpy", "posit16"]

    def test_none_gives_numpy(self):
        assert isinstance(get_backend(None), NumpyBackend)

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_names_match_exactly(self):
        # The config schema and /predict check exact membership in
        # list_backends(); the registry applies the same rule.
        with pytest.raises(BackendError, match="unknown backend 'NumPy'"):
            get_backend("NumPy")

    @pytest.mark.parametrize("name", ["float32", "float16", "posit16"])
    def test_low_precision_names_resolve(self, name):
        assert get_backend(name).precision == name

    @pytest.mark.parametrize("name", ("cuda-a100",) + RETIRED_BACKENDS)
    def test_unknown_name(self, name):
        with pytest.raises(BackendError) as excinfo:
            get_backend(name)
        message = str(excinfo.value)
        assert f"unknown backend '{name}'" in message
        assert "['float16', 'float32', 'numpy', 'posit16']" in message

    def test_invalid_type(self):
        with pytest.raises(BackendError):
            get_backend(42)
