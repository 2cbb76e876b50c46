"""Tests for precisions and quantization."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Precision,
    dequantize,
    fake_quantize,
    quantization_error,
    quantize,
)


class TestPrecision:
    def test_bits_and_bytes(self):
        assert Precision.FP32.bits == 32
        assert Precision.FP16.bytes_per_element == 2
        assert Precision.INT8.bytes_per_element == 1

    def test_throughput_ordering(self):
        assert (
            Precision.INT8.relative_throughput
            > Precision.FP16.relative_throughput
            > Precision.FP32.relative_throughput
        )

    def test_ordering_helper(self):
        assert Precision.ordered() == (Precision.INT8, Precision.FP16, Precision.FP32)
        assert Precision.INT8 < Precision.FP32

    def test_only_int8_is_integer(self):
        assert Precision.INT8.is_integer
        assert not Precision.FP16.is_integer


class TestQuantization:
    def test_fp32_roundtrip_exact(self):
        x = np.random.default_rng(0).normal(size=100)
        assert np.array_equal(fake_quantize(x, Precision.FP32), x)

    def test_int8_bounded_codes(self):
        x = np.random.default_rng(0).normal(size=1000) * 10
        codes, scale = quantize(x, Precision.INT8)
        assert np.all(np.abs(codes) <= 127)
        assert np.allclose(dequantize(codes, scale), x, atol=scale)

    def test_zero_tensor(self):
        codes, scale = quantize(np.zeros(10), Precision.INT8)
        assert np.all(codes == 0)
        assert scale == 1.0

    def test_error_monotonic_in_precision(self):
        x = np.random.default_rng(1).normal(size=500)
        e32 = quantization_error(x, Precision.FP32)
        e16 = quantization_error(x, Precision.FP16)
        e8 = quantization_error(x, Precision.INT8)
        assert e32 == 0.0
        assert e32 <= e16 <= e8

    def test_empty_tensor_error_zero(self):
        assert quantization_error(np.zeros(0), Precision.INT8) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_property_int8_error_bounded_by_scale(self, values):
        x = np.array(values)
        codes, scale = quantize(x, Precision.INT8)
        assert np.all(np.abs(dequantize(codes, scale) - x) <= scale * 0.5 + 1e-9)
