"""Scenario registry: named families and named built-in scenarios.

The registry maps *family* names to compiler callables
(``ScenarioSpec -> List[StreamSource]``) and *scenario* names to concrete
:class:`~repro.scenarios.spec.ScenarioSpec` defaults.  The module-level
:func:`default_registry` ships one built-in scenario per built-in family, so
``python -m repro.scenarios list`` / the sweep harness work out of the box;
experiments register their own families or specs on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..runtime.streams import StreamSource
from .families import BUILTIN_FAMILIES
from .spec import ScenarioSpec

__all__ = ["ScenarioFamily", "ScenarioRegistry", "default_registry"]


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered workload family."""

    name: str
    compiler: Callable[[ScenarioSpec], List[StreamSource]]
    description: str = ""


class ScenarioRegistry:
    """Name → family / name → spec lookup with compile dispatch."""

    def __init__(self) -> None:
        self._families: Dict[str, ScenarioFamily] = {}
        self._scenarios: Dict[str, ScenarioSpec] = {}

    # -- families ------------------------------------------------------
    def register_family(
        self,
        name: str,
        compiler: Callable[[ScenarioSpec], List[StreamSource]],
        description: str = "",
    ) -> ScenarioFamily:
        """Register a compiler under ``name``."""
        if name in self._families:
            raise ValueError(f"family '{name}' is already registered")
        family = ScenarioFamily(name, compiler, description)
        self._families[name] = family
        return family

    def family(self, name: str) -> ScenarioFamily:
        """The registered family, or ``KeyError`` listing what exists."""
        try:
            return self._families[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario family '{name}'; available: {', '.join(self.families())}"
            ) from None

    def families(self) -> List[str]:
        """Sorted names of every registered family."""
        return sorted(self._families)

    # -- named scenarios -----------------------------------------------
    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Register a named scenario (its family must exist)."""
        self.family(spec.family)  # validate early
        if spec.name in self._scenarios:
            raise ValueError(f"scenario '{spec.name}' is already registered")
        self._scenarios[spec.name] = spec
        return spec

    def spec(self, name: str) -> ScenarioSpec:
        """The registered spec, or ``KeyError`` listing what exists."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario '{name}'; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        """Sorted names of every registered scenario."""
        return sorted(self._scenarios)

    def describe(self, name: str) -> str:
        """One-line human description of a registered scenario."""
        spec = self.spec(name)
        family = self.family(spec.family)
        return (
            f"{spec.name:<12s} family={spec.family:<12s} streams={spec.num_streams} "
            f"duration={spec.duration}s — {family.description}"
        )

    # -- compilation ---------------------------------------------------
    def resolve(
        self, scenario: Union[str, ScenarioSpec], **overrides
    ) -> ScenarioSpec:
        """Look up a named spec (or pass one through) and apply overrides."""
        spec = self.spec(scenario) if isinstance(scenario, str) else scenario
        return spec.replace(**overrides) if overrides else spec

    def compile(
        self, scenario: Union[str, ScenarioSpec], **overrides
    ) -> List[StreamSource]:
        """Compile a scenario (by name or spec) to its stream sources."""
        spec = self.resolve(scenario, **overrides)
        sources = self.family(spec.family).compiler(spec)
        if len(sources) != spec.num_streams:
            raise RuntimeError(
                f"family '{spec.family}' compiled {len(sources)} streams "
                f"for a spec requesting {spec.num_streams}"
            )
        return sources


_DEFAULT: Optional[ScenarioRegistry] = None


def default_registry() -> ScenarioRegistry:
    """The process-wide registry preloaded with the built-in families.

    One named scenario per built-in family is registered with small
    test-friendly defaults; override ``num_streams`` / ``duration`` /
    ``scale`` at compile time for heavier studies.
    """
    global _DEFAULT
    if _DEFAULT is None:
        registry = ScenarioRegistry()
        for name, (compiler, description) in BUILTIN_FAMILIES.items():
            registry.register_family(name, compiler, description)
            registry.register(ScenarioSpec(name=name, family=name))
        _DEFAULT = registry
    return _DEFAULT
