"""Every name a ``repro`` module lists in ``__all__`` is defined there."""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    missing = []
    for name in sorted(names):
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                missing.append(f"{name}.{export}")
    assert len(names) > 1
    assert missing == []
