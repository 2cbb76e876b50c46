"""Tests for per-layer occupancy propagation (repro.nn.occupancy)."""

from __future__ import annotations

import pytest

from repro.nn import (
    LayerGraph,
    LayerKind,
    LayerSpec,
    OccupancyProfile,
    layer_output_occupancy,
    propagate_occupancy_graph,
)


def _conv(name, kind=LayerKind.CONV2D, k=3, stride=1, sparsity=0.0, timesteps=1):
    return LayerSpec(
        name=name,
        kind=kind,
        in_channels=2,
        out_channels=4,
        in_height=32,
        in_width=32,
        kernel_size=k,
        stride=stride,
        timesteps=timesteps,
        activation_sparsity=sparsity,
    )


def _chain(specs):
    graph = LayerGraph("chain")
    graph.chain(specs)
    return graph


class TestLayerOutputOccupancy:
    def test_dilation_never_decreases_support(self):
        # A K x K receptive field can only grow the active-site fraction.
        for kind in (LayerKind.CONV2D, LayerKind.CONV_LIF, LayerKind.POOL):
            spec = _conv("l", kind=kind, k=3)
            for d in (0.0, 0.01, 0.1, 0.5, 0.9, 1.0):
                assert layer_output_occupancy(spec, d) >= d - 1e-15

    def test_pooling_dilates_like_conv(self):
        pool = _conv("p", kind=LayerKind.POOL, k=2)
        d = 0.2
        assert layer_output_occupancy(pool, d) == pytest.approx(1 - (1 - d) ** 4)

    def test_monotone_in_input_density(self):
        spec = _conv("l", k=3)
        previous = -1.0
        for d in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0):
            value = layer_output_occupancy(spec, d)
            assert value >= previous
            previous = value

    def test_fc_mixes_globally(self):
        fc = LayerSpec(name="fc", kind=LayerKind.FC, in_channels=8, out_channels=4)
        assert layer_output_occupancy(fc, 1e-6) == 1.0
        assert layer_output_occupancy(fc, 0.0) == 0.0

    def test_elementwise_preserves_support(self):
        ew = _conv("e", kind=LayerKind.ELEMENTWISE)
        assert layer_output_occupancy(ew, 0.37) == pytest.approx(0.37)

    def test_deconv_spreads_over_upsampled_grid(self):
        deconv = _conv("d", kind=LayerKind.DECONV2D, k=3, stride=2)
        d = 0.2
        assert layer_output_occupancy(deconv, d) == pytest.approx(
            1 - (1 - d) ** (9 / 4)
        )

    def test_empty_input_stays_empty_through_local_layers(self):
        for kind in (LayerKind.CONV2D, LayerKind.POOL, LayerKind.DECONV2D):
            assert layer_output_occupancy(_conv("l", kind=kind), 0.0) == 0.0


class TestPropagateOccupancy:
    """Graph propagation over serial chains of layers."""

    def test_first_entry_is_the_measured_input(self):
        graph = _chain([_conv("a", sparsity=0.95), _conv("b", sparsity=0.85)])
        entries = propagate_occupancy_graph(graph, 0.0123)
        # The input density is ground truth: the first layer's modelled
        # sparsity must not rewrite it.
        assert entries[0] == pytest.approx(0.0123)

    def test_activation_sparsification_caps_dilation(self):
        specs = [_conv("a"), _conv("b", sparsity=0.85)]
        entries = propagate_occupancy_graph(_chain(specs), 0.5)
        dilated = layer_output_occupancy(specs[0], 0.5)
        assert entries[1] == pytest.approx(dilated * 0.15)
        assert entries[1] <= 0.15 + 1e-12  # never above the modelled activity

    def test_monotone_in_input_density_at_every_layer(self):
        # Profile monotonicity under pooling/activation layers: a denser
        # input can never produce a sparser layer anywhere in the chain.
        graph = _chain(
            [
                _conv("a", kind=LayerKind.CONV_LIF, sparsity=0.95, timesteps=3),
                _conv("p", kind=LayerKind.POOL, k=2, sparsity=0.0),
                _conv("b", kind=LayerKind.CONV_LIF, sparsity=0.85, timesteps=3),
                _conv("c", sparsity=0.3),
            ]
        )
        low = propagate_occupancy_graph(graph, 0.01)
        high = propagate_occupancy_graph(graph, 0.2)
        for lo, hi in zip(low, high):
            assert lo <= hi + 1e-15

    def test_profiles_converge_deep_in_a_serial_chain(self):
        # Along a serial chain the propagation is a contraction onto the
        # modelled-activity fix point.  (Joins re-inject the input density
        # through their skip branches, so DAG networks need not converge.)
        specs = []
        for i in range(6):
            specs.append(
                _conv(f"enc{i}", kind=LayerKind.CONV_LIF, sparsity=0.85, timesteps=3)
            )
            specs.append(_conv(f"pool{i}", kind=LayerKind.POOL, k=2))
        graph = _chain(specs)
        a = propagate_occupancy_graph(graph, 0.05)
        b = propagate_occupancy_graph(graph, 0.12)
        assert abs(a[0] - b[0]) > 0.05  # inputs genuinely differ
        # By the deep half of the chain the propagated occupancies sit
        # within one default bucket width (1/64) of each other — the
        # convergence the layered cost stack's sharing relies on.
        for x, y in zip(a[len(a) // 2 :], b[len(b) // 2 :]):
            assert abs(x - y) < 1.0 / 64.0


class TestOccupancyProfile:
    def test_flat_profile_shape(self):
        profile = OccupancyProfile.flat(0.25, 4)
        assert profile.entries == (0.25, None, None, None)
        assert profile.is_flat
        assert len(profile) == 4

    def test_flat_empty(self):
        assert OccupancyProfile.flat(0.5, 0).entries == ()

    def test_combine_is_weighted_mean(self):
        a = OccupancyProfile((0.1, 0.2))
        b = OccupancyProfile((0.3, 0.4))
        combined = OccupancyProfile.combine([a, b], weights=[3, 1])
        assert combined.entries[0] == pytest.approx(0.15)
        assert combined.entries[1] == pytest.approx(0.25)

    def test_combine_preserves_flat_none_entries(self):
        a = OccupancyProfile.flat(0.1, 3)
        b = OccupancyProfile.flat(0.3, 3)
        combined = OccupancyProfile.combine([a, b])
        assert combined.entries == (pytest.approx(0.2), None, None)

    def test_combine_rejects_mixed_flat_and_propagated(self):
        # Silently collapsing a propagated member's measured occupancy to
        # "modelled sparsity" would miscost the batch — mixing is an error.
        with pytest.raises(ValueError):
            OccupancyProfile.combine(
                [OccupancyProfile((0.1, None)), OccupancyProfile((0.1, 0.2))]
            )

    def test_combine_validation(self):
        with pytest.raises(ValueError):
            OccupancyProfile.combine([])
        with pytest.raises(ValueError):
            OccupancyProfile.combine(
                [OccupancyProfile((0.1,)), OccupancyProfile((0.1, 0.2))]
            )
        with pytest.raises(ValueError):
            OccupancyProfile.combine([OccupancyProfile((0.1,))], weights=[0.0])
        with pytest.raises(ValueError):
            OccupancyProfile.combine([OccupancyProfile((0.1,))], weights=[1, 2])

    def test_equality_and_hash(self):
        assert OccupancyProfile((0.1, None)) == OccupancyProfile((0.1, None))
        assert hash(OccupancyProfile((0.1, None))) == hash(
            OccupancyProfile((0.1, None))
        )
        assert OccupancyProfile((0.1,)) != OccupancyProfile((0.2,))
