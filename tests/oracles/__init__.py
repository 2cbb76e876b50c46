"""Frozen reference implementations pinned by the equivalence tests.

Each module holds the implementation a production path in ``src/``
replaced, kept so the tests can require bit-identical results:

* :mod:`.events` — dense DVS event generation (the camera);
* :mod:`.frames` — per-bin E2SF rendering, per-frame merges and DSFA;
* :mod:`.occupancy` — serial-chain occupancy propagation;
* :mod:`.nmp` — the graph-walking NMP list scheduler;
* :mod:`.hw` — the energy formula that re-ran the roofline, and the
  profiler built on it;
* :mod:`.runtime` — the pre-refactor kernel, server, cost stacks (the
  object-walking one the compiled stack replaced among them) and stream
  clients, and a remap client that runs every search.
"""
