"""Correctness checks applied to every simulation the benchmark runs.

A simulation passes when its aggregates equal the first simulation of the
run (determinism), equal the recorded reference for the default seed, and
its per-stream frame accounting is conserved.  Evictions are modelled
outcomes of the platform, never failures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Integer aggregates must match exactly; float aggregates to a relative
# 1e-9, which admits a reordered floating-point sum but no change of result.
FLOAT_RTOL = 1e-9


def aggregates(report) -> Dict[str, float]:
    """The simulated statistics a run is checked on (and prints)."""
    return {
        "frames_generated": int(report.frames_generated),
        "frames_evicted": int(report.frames_dropped),
        "inferences": int(report.total_inferences),
        "mean_latency_s": float(report.mean_latency),
        "energy_j": float(report.total_energy),
        "makespan_s": float(report.makespan),
        "kernel_events": int(report.events_processed),
    }


def mismatches(got: Dict[str, float], want: Dict[str, float]) -> List[str]:
    """Names of aggregates that differ between two runs."""
    out = []
    for key, expected in want.items():
        value = got.get(key)
        if value is None:
            out.append(key)
        elif isinstance(expected, int) and not isinstance(expected, bool):
            if value != expected:
                out.append(key)
        elif not math.isclose(value, expected, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            out.append(key)
    return out


def conservation_errors(report, uses_dsfa: bool) -> List[str]:
    """Per-stream frame-accounting violations of one report.

    Without DSFA every generated frame is either inferred alone or evicted;
    with DSFA a frame is merged at most once.
    """
    errors = []
    for name, stream in report.reports.items():
        generated = stream.frames_generated
        if uses_dsfa:
            if stream.frames_merged > generated:
                errors.append(f"{name}: merged {stream.frames_merged} > generated {generated}")
        elif generated != stream.num_inferences + stream.frames_dropped:
            errors.append(
                f"{name}: generated {generated} != inferred {stream.num_inferences}"
                f" + evicted {stream.frames_dropped}"
            )
    return errors


def load_references() -> Dict[str, Dict[str, float]]:
    """Recorded default-seed aggregates, keyed by simulation kind."""
    if not REFERENCE_PATH.exists():
        return {}
    with REFERENCE_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Checks each simulation of one run and counts the failures.

    ``kind`` names what was simulated (the workload, or the workload on N
    shards, whose aggregates differ); each kind is compared with its own
    first simulation and, when ``references`` is given, its recorded
    reference.
    """

    def __init__(self, uses_dsfa: bool, references: Optional[Dict] = None) -> None:
        self.uses_dsfa = uses_dsfa
        self.references = references
        self.first: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def check(self, report, kind: str, label: str) -> None:
        problems = self.problems(aggregates(report), kind)
        problems += conservation_errors(report, self.uses_dsfa)[:3]
        self.count(problems, label)

    def check_aggregates(self, values: Dict[str, float], kind: str, label: str) -> None:
        """Check aggregates reported by another process (set-up probes)."""
        self.count(self.problems(values, kind), label)

    def count(self, problems: List[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: " + "; ".join(problems))

    def problems(self, values: Dict[str, float], kind: str) -> List[str]:
        first = self.first.setdefault(kind, dict(values))
        out = [f"{k} differs from the first run" for k in mismatches(values, first)]
        if self.references is not None:
            reference = self.references.get(kind)
            if reference is None:
                out.append(f"no recorded reference for {kind}")
            else:
                out += [
                    f"{k} differs from the reference" for k in mismatches(values, reference)
                ]
        return out

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
