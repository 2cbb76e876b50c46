"""Ev-Edge reproduction: efficient execution of event-based vision algorithms
on commodity edge platforms (DAC 2024).

The package is organised as:

* :mod:`repro.events`   — event camera substrate (DVS simulation, datasets, noise)
* :mod:`repro.frames`   — sparse (COO) event frames, dense event bins, conversion costs
* :mod:`repro.nn`       — neural network substrate (layers, graphs, occupancy, quantization)
* :mod:`repro.models`   — the six networks of the paper's Table 1
* :mod:`repro.hw`       — heterogeneous edge platform model (Jetson Xavier AGX)
* :mod:`repro.runtime`  — discrete-event execution engine and scheduling baselines
* :mod:`repro.scenarios`— declarative traffic scenarios and the parallel sweep runner
* :mod:`repro.baselines`— static aggregation and multi-stream baselines
* :mod:`repro.core`     — the paper's contribution: E2SF, DSFA and NMP
* :mod:`repro.metrics`  — task accuracy metrics (AEE, mIOU, depth error)
* :mod:`repro.experiments` — one module per paper figure/table
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
