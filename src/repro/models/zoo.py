"""Model zoo: the six networks of the paper's Table 1.

Each builder returns a :class:`~repro.nn.graph.LayerGraph` whose layer count
and SNN/ANN split match Table 1:

=========================  ======================  ========  ==================
Network                    Task                    Type      Layers
=========================  ======================  ========  ==================
Spike-FlowNet              optical flow            SNN-ANN   12 (4 SNN, 8 ANN)
Fusion-FlowNet             optical flow            SNN-ANN   29 (10 SNN, 19 ANN)
Adaptive-SpikeNet          optical flow            SNN       8
HALSIE                     semantic segmentation   SNN-ANN   16 (3 SNN, 13 ANN)
Hidalgo-Carrio et al.      depth estimation        ANN       15
DOTIE                      object tracking         SNN       1
=========================  ======================  ========  ==================

Weights are not needed: the graphs carry layer shapes, MAC counts,
timesteps and expected activation sparsity, which is all the hardware model,
the Network Mapper and the experiment harnesses consume (see the README's
"Substitutions" section).  Input spatial sizes default to the DAVIS 346x260
resolution used by MVSEC.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..nn.graph import LayerGraph
from ..nn.layers import LayerKind, LayerSpec

__all__ = [
    "build_spikeflownet",
    "build_fusionflownet",
    "build_adaptive_spikenet",
    "build_halsie",
    "build_e2depth",
    "build_dotie",
    "build_evflownet",
    "build_network",
    "available_networks",
    "table1_summary",
]

# Typical spiking-activation sparsity observed for event-driven layers; ANN
# encoder/decoder layers still see sparse inputs near the input but densify
# deeper into the network.
_SNN_SPARSITY = 0.85
_EVENT_INPUT_SPARSITY = 0.95
_ANN_SPARSITY = 0.30


def _conv(name, c_in, c_out, h, w, stride=1, kind=LayerKind.CONV2D, timesteps=1, sparsity=_ANN_SPARSITY, kernel=3):
    return LayerSpec(
        name=name,
        kind=kind,
        in_channels=c_in,
        out_channels=c_out,
        in_height=h,
        in_width=w,
        kernel_size=kernel,
        stride=stride,
        timesteps=timesteps,
        activation_sparsity=sparsity,
    )


def build_spikeflownet(height: int = 260, width: int = 346, timesteps: int = 5) -> LayerGraph:
    """Spike-FlowNet [7]: hybrid SNN encoder + ANN residual/decoder, 12 layers."""
    g = LayerGraph("spikeflownet", task="optical_flow")
    h, w = height, width
    # 4 spiking encoder layers (stride-2 conv + LIF)
    g.add_layer(_conv("enc1", 2, 16, h, w, 2, LayerKind.CONV_LIF, timesteps, _EVENT_INPUT_SPARSITY))
    g.add_layer(_conv("enc2", 16, 32, h // 2, w // 2, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["enc1"])
    g.add_layer(_conv("enc3", 32, 64, h // 4, w // 4, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["enc2"])
    g.add_layer(_conv("enc4", 64, 128, h // 8, w // 8, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["enc3"])
    # 2 ANN residual blocks at the bottleneck
    g.add_layer(_conv("res1", 128, 128, h // 16, w // 16), ["enc4"])
    g.add_layer(_conv("res2", 128, 128, h // 16, w // 16), ["res1"])
    # 4 ANN decoder (transposed conv) layers with skip connections
    g.add_layer(_conv("dec4", 128, 64, h // 16, w // 16, 2, LayerKind.DECONV2D), ["res2", "enc3"])
    g.add_layer(_conv("dec3", 64, 32, h // 8, w // 8, 2, LayerKind.DECONV2D), ["dec4", "enc2"])
    g.add_layer(_conv("dec2", 32, 16, h // 4, w // 4, 2, LayerKind.DECONV2D), ["dec3", "enc1"])
    g.add_layer(_conv("dec1", 16, 16, h // 2, w // 2, 2, LayerKind.DECONV2D), ["dec2"])
    # 2 ANN flow prediction heads
    g.add_layer(_conv("flow_mid", 16, 2, h, w, 1, LayerKind.CONV2D, kernel=1), ["dec1"])
    g.add_layer(_conv("flow_out", 2, 2, h, w, 1, LayerKind.CONV2D, kernel=1), ["flow_mid"])
    return g


def build_fusionflownet(height: int = 260, width: int = 346, timesteps: int = 5) -> LayerGraph:
    """Fusion-FlowNet [8]: two-stream (event SNN + frame ANN) fusion network, 29 layers."""
    g = LayerGraph("fusionflownet", task="optical_flow")
    h, w = height, width
    # Event stream: 10 spiking layers (5 stride-2 stages, 2 convs each)
    previous = None
    c = 2
    for stage in range(5):
        c_out = min(16 * 2**stage, 256)
        for rep in range(2):
            name = f"ev_enc{stage+1}_{rep+1}"
            stride = 2 if rep == 0 else 1
            layer = _conv(
                name, c, c_out, h // 2**stage if rep == 0 else h // 2 ** (stage + 1),
                w // 2**stage if rep == 0 else w // 2 ** (stage + 1),
                stride, LayerKind.CONV_LIF, timesteps,
                _EVENT_INPUT_SPARSITY if stage == 0 and rep == 0 else _SNN_SPARSITY,
            )
            g.add_layer(layer, [previous] if previous else None)
            previous = name
            c = c_out
    # Frame stream: 5 ANN encoder layers
    frame_prev = None
    c = 1
    for stage in range(5):
        c_out = min(16 * 2**stage, 256)
        name = f"fr_enc{stage+1}"
        g.add_layer(
            _conv(name, c, c_out, h // 2**stage, w // 2**stage, 2),
            [frame_prev] if frame_prev else None,
        )
        frame_prev = name
        c = c_out
    # Fusion
    g.add_layer(
        _conv("fuse", 512, 256, h // 32, w // 32, 1, LayerKind.ELEMENTWISE),
        ["ev_enc5_2", "fr_enc5"],
    )
    # 2 residual blocks
    g.add_layer(_conv("res1", 256, 256, h // 32, w // 32), ["fuse"])
    g.add_layer(_conv("res2", 256, 256, h // 32, w // 32), ["res1"])
    # 5 decoder layers with skips + 6 flow heads = 11 ANN layers
    skips = ["ev_enc4_2", "ev_enc3_2", "ev_enc2_2", "ev_enc1_2"]
    previous = "res2"
    c = 256
    for stage in range(5):
        name = f"dec{5-stage}"
        c_out = max(c // 2, 16)
        inputs = [previous] + ([skips[stage]] if stage < len(skips) else [])
        g.add_layer(
            _conv(name, c, c_out, h // 2 ** (5 - stage), w // 2 ** (5 - stage), 2, LayerKind.DECONV2D),
            inputs,
        )
        previous = name
        c = c_out
    for i in range(6):
        name = f"flow{i+1}"
        c_out = 2 if i == 5 else 16
        g.add_layer(_conv(name, c, c_out, h, w, 1, LayerKind.CONV2D, kernel=1), [previous])
        previous = name
        c = c_out
    return g


def build_adaptive_spikenet(height: int = 260, width: int = 346, timesteps: int = 10) -> LayerGraph:
    """Adaptive-SpikeNet [1]: fully spiking optical flow network, 8 layers."""
    g = LayerGraph("adaptive_spikenet", task="optical_flow")
    h, w = height, width
    g.add_layer(_conv("enc1", 2, 32, h, w, 2, LayerKind.CONV_LIF, timesteps, _EVENT_INPUT_SPARSITY))
    g.add_layer(_conv("enc2", 32, 64, h // 2, w // 2, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["enc1"])
    g.add_layer(_conv("enc3", 64, 128, h // 4, w // 4, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["enc2"])
    g.add_layer(_conv("res1", 128, 128, h // 8, w // 8, 1, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["enc3"])
    g.add_layer(_conv("res2", 128, 128, h // 8, w // 8, 1, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["res1"])
    g.add_layer(_conv("dec3", 128, 64, h // 8, w // 8, 2, LayerKind.DECONV_LIF, timesteps, _SNN_SPARSITY), ["res2", "enc2"])
    g.add_layer(_conv("dec2", 64, 32, h // 4, w // 4, 2, LayerKind.DECONV_LIF, timesteps, _SNN_SPARSITY), ["dec3", "enc1"])
    g.add_layer(_conv("dec1", 32, 2, h // 2, w // 2, 2, LayerKind.DECONV_LIF, timesteps, _SNN_SPARSITY), ["dec2"])
    return g


def build_halsie(height: int = 260, width: int = 346, timesteps: int = 5) -> LayerGraph:
    """HALSIE [16]: hybrid event/frame semantic segmentation, 16 layers (3 SNN, 13 ANN)."""
    g = LayerGraph("halsie", task="semantic_segmentation")
    h, w = height, width
    # Event branch: 3 spiking encoder layers
    g.add_layer(_conv("ev_enc1", 2, 16, h, w, 2, LayerKind.CONV_LIF, timesteps, _EVENT_INPUT_SPARSITY))
    g.add_layer(_conv("ev_enc2", 16, 32, h // 2, w // 2, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["ev_enc1"])
    g.add_layer(_conv("ev_enc3", 32, 64, h // 4, w // 4, 2, LayerKind.CONV_LIF, timesteps, _SNN_SPARSITY), ["ev_enc2"])
    # Image branch: 4 ANN encoder layers
    g.add_layer(_conv("im_enc1", 1, 16, h, w, 2))
    g.add_layer(_conv("im_enc2", 16, 32, h // 2, w // 2, 2), ["im_enc1"])
    g.add_layer(_conv("im_enc3", 32, 64, h // 4, w // 4, 2), ["im_enc2"])
    g.add_layer(_conv("im_enc4", 64, 64, h // 8, w // 8, 1), ["im_enc3"])
    # Fusion + bottleneck: 3 ANN layers
    g.add_layer(_conv("fuse", 128, 128, h // 8, w // 8, 1, LayerKind.ELEMENTWISE), ["ev_enc3", "im_enc4"])
    g.add_layer(_conv("bott1", 128, 128, h // 8, w // 8), ["fuse"])
    g.add_layer(_conv("bott2", 128, 128, h // 8, w // 8), ["bott1"])
    # Decoder: 4 ANN deconv layers + 2 segmentation heads
    g.add_layer(_conv("dec3", 128, 64, h // 8, w // 8, 2, LayerKind.DECONV2D), ["bott2", "ev_enc2"])
    g.add_layer(_conv("dec2", 64, 32, h // 4, w // 4, 2, LayerKind.DECONV2D), ["dec3", "ev_enc1"])
    g.add_layer(_conv("dec1", 32, 16, h // 2, w // 2, 2, LayerKind.DECONV2D), ["dec2"])
    g.add_layer(_conv("head1", 16, 16, h, w), ["dec1"])
    g.add_layer(_conv("head2", 16, 8, h, w, 1, LayerKind.CONV2D, kernel=1), ["head1"])
    g.add_layer(_conv("head3", 8, 8, h, w, 1, LayerKind.CONV2D, kernel=1), ["head2"])
    return g


def build_e2depth(height: int = 260, width: int = 346) -> LayerGraph:
    """Hidalgo-Carrio et al. [11]: recurrent ANN monocular depth from events, 15 layers."""
    g = LayerGraph("e2depth", task="depth_estimation")
    h, w = height, width
    g.add_layer(_conv("head", 5, 32, h, w, 1, LayerKind.CONV2D, timesteps=1, sparsity=_EVENT_INPUT_SPARSITY, kernel=5))
    # 4 encoder stages
    g.add_layer(_conv("enc1", 32, 64, h, w, 2), ["head"])
    g.add_layer(_conv("enc2", 64, 128, h // 2, w // 2, 2), ["enc1"])
    g.add_layer(_conv("enc3", 128, 256, h // 4, w // 4, 2), ["enc2"])
    g.add_layer(_conv("enc4", 256, 256, h // 8, w // 8, 2), ["enc3"])
    # 2 residual blocks (each modelled as 2 convs) = 4 layers
    g.add_layer(_conv("res1a", 256, 256, h // 16, w // 16), ["enc4"])
    g.add_layer(_conv("res1b", 256, 256, h // 16, w // 16), ["res1a"])
    g.add_layer(_conv("res2a", 256, 256, h // 16, w // 16), ["res1b"])
    g.add_layer(_conv("res2b", 256, 256, h // 16, w // 16), ["res2a"])
    # 4 decoder stages
    g.add_layer(_conv("dec4", 256, 128, h // 16, w // 16, 2, LayerKind.DECONV2D), ["res2b", "enc3"])
    g.add_layer(_conv("dec3", 128, 64, h // 8, w // 8, 2, LayerKind.DECONV2D), ["dec4", "enc2"])
    g.add_layer(_conv("dec2", 64, 32, h // 4, w // 4, 2, LayerKind.DECONV2D), ["dec3", "enc1"])
    g.add_layer(_conv("dec1", 32, 32, h // 2, w // 2, 2, LayerKind.DECONV2D), ["dec2"])
    # 2 prediction heads
    g.add_layer(_conv("depth1", 32, 16, h, w), ["dec1"])
    g.add_layer(_conv("depth2", 16, 1, h, w, 1, LayerKind.CONV2D, kernel=1), ["depth1"])
    return g


def build_evflownet(height: int = 260, width: int = 346) -> LayerGraph:
    """EV-FlowNet [4]: fully-accumulated event frames, all-ANN U-Net, 10 layers.

    Not part of Table 1 but used by the paper's multi-task all-ANN
    configuration ([4] + [11]).
    """
    g = LayerGraph("evflownet", task="optical_flow")
    h, w = height, width
    g.add_layer(_conv("enc1", 4, 32, h, w, 2, sparsity=_EVENT_INPUT_SPARSITY))
    g.add_layer(_conv("enc2", 32, 64, h // 2, w // 2, 2), ["enc1"])
    g.add_layer(_conv("enc3", 64, 128, h // 4, w // 4, 2), ["enc2"])
    g.add_layer(_conv("enc4", 128, 256, h // 8, w // 8, 2), ["enc3"])
    g.add_layer(_conv("res1", 256, 256, h // 16, w // 16), ["enc4"])
    g.add_layer(_conv("res2", 256, 256, h // 16, w // 16), ["res1"])
    g.add_layer(_conv("dec4", 256, 128, h // 16, w // 16, 2, LayerKind.DECONV2D), ["res2", "enc3"])
    g.add_layer(_conv("dec3", 128, 64, h // 8, w // 8, 2, LayerKind.DECONV2D), ["dec4", "enc2"])
    g.add_layer(_conv("dec2", 64, 32, h // 4, w // 4, 2, LayerKind.DECONV2D), ["dec3", "enc1"])
    g.add_layer(_conv("flow", 32, 2, h // 2, w // 2, 2, LayerKind.DECONV2D), ["dec2"])
    return g


def build_dotie(height: int = 260, width: int = 346, timesteps: int = 8) -> LayerGraph:
    """DOTIE [13]: single-layer spiking architecture for object tracking."""
    g = LayerGraph("dotie", task="object_tracking")
    g.add_layer(
        _conv("spike_filter", 2, 4, height, width, 1, LayerKind.CONV_LIF, timesteps, _EVENT_INPUT_SPARSITY, kernel=5)
    )
    return g


_BUILDERS: Dict[str, Callable[..., LayerGraph]] = {
    "spikeflownet": build_spikeflownet,
    "fusionflownet": build_fusionflownet,
    "adaptive_spikenet": build_adaptive_spikenet,
    "halsie": build_halsie,
    "e2depth": build_e2depth,
    "dotie": build_dotie,
    "evflownet": build_evflownet,
}

# (task, type, total layers, SNN layers, ANN layers) from the paper's Table 1.
TABLE1_REFERENCE = {
    "spikeflownet": ("Optical Flow", "SNN-ANN", 12, 4, 8),
    "fusionflownet": ("Optical Flow", "SNN-ANN", 29, 10, 19),
    "adaptive_spikenet": ("Optical Flow", "SNN", 8, 8, 0),
    "halsie": ("Semantic Segmentation", "SNN-ANN", 16, 3, 13),
    "e2depth": ("Depth Estimation", "ANN", 15, 0, 15),
    "dotie": ("Object Tracking", "SNN", 1, 1, 0),
}


def available_networks() -> List[str]:
    """Names of every network the zoo can build."""
    return sorted(_BUILDERS)


def build_network(name: str, height: int = 260, width: int = 346) -> LayerGraph:
    """Build a network by name at the given input resolution."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown network '{name}'; available: {available_networks()}")
    return _BUILDERS[name](height=height, width=width)


def table1_summary(height: int = 260, width: int = 346) -> List[Dict[str, object]]:
    """Reproduce the paper's Table 1 from the model zoo graphs."""
    rows = []
    for name in available_networks():
        if name not in TABLE1_REFERENCE:
            continue
        net = build_network(name, height, width)
        task, net_type, layers, snn, ann = TABLE1_REFERENCE[name]
        rows.append(
            {
                "network": name,
                "task": net.task,
                "type": net.network_type,
                "layers": net.num_layers,
                "snn_layers": net.num_snn_layers,
                "ann_layers": net.num_ann_layers,
                "paper_type": net_type,
                "paper_layers": layers,
                "paper_snn_layers": snn,
                "paper_ann_layers": ann,
                "total_gmacs": net.total_macs / 1e9,
            }
        )
    return rows
