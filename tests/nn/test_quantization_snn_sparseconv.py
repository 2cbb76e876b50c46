"""Tests for precisions and quantization."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Precision,
    dequantize,
    fake_quantize,
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


class TestQuantization:
    def test_fp32_roundtrip_exact(self):
        x = np.random.default_rng(0).normal(size=100)
        assert np.array_equal(fake_quantize(x, Precision.FP32), x)

    def test_float_precisions_quantize_with_unit_scale(self):
        x = np.array([0.1, -2.5, 3.14159265, 1e-5])
        codes, scale = quantize(x, Precision.FP32)
        assert scale == 1.0
        assert np.array_equal(codes, x)
        assert codes is not x
        codes, scale = quantize(x, Precision.FP16)
        assert scale == 1.0
        assert np.array_equal(codes, x.astype(np.float16).astype(np.float64))
        assert np.array_equal(codes, fake_quantize(x, Precision.FP16))

    def test_int8_bounded_codes(self):
        x = np.random.default_rng(0).normal(size=1000) * 10
        codes, scale = quantize(x, Precision.INT8)
        assert np.all(np.abs(codes) <= 127)
        assert np.allclose(dequantize(codes, scale), x, atol=scale)

    def test_zero_tensor(self):
        codes, scale = quantize(np.zeros(10), Precision.INT8)
        assert np.all(codes == 0)
        assert scale == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_property_int8_error_bounded_by_scale(self, values):
        x = np.array(values)
        codes, scale = quantize(x, Precision.INT8)
        assert np.all(np.abs(dequantize(codes, scale) - x) <= scale * 0.5 + 1e-9)
