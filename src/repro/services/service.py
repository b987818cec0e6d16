"""Service and component model.

A *service* (Sec. III-A) is an ordered chain of components
``C_s = <c_1, ..., c_ns>`` that every flow requesting the service must
traverse in order.  A *component* can be instantiated at any node; all
instances are identical and independent.  Processing a flow at an instance
of component ``c``:

- delays the flow by the component's processing delay ``d_c``,
- consumes node resources ``r_c(λ_f)`` as a function of the flow's data
  rate for as long as the flow resides in the instance.

Starting a new instance adds startup delay ``d^up_c``; instances that stay
idle for the component's timeout ``δ_c`` are removed automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Component", "Service", "ServiceCatalog"]


@dataclass(frozen=True)
class Component:
    """One service component (e.g. a VNF, a microservice, an ML stage).

    Attributes:
        name: Unique component identifier (unique across *all* services).
        processing_delay: ``d_c`` — added to a flow's end-to-end delay each
            time the flow traverses an instance of this component.
        startup_delay: ``d^up_c`` — extra one-time delay a flow experiences
            when its processing decision triggers the creation of a new
            instance.
        idle_timeout: ``δ_c`` — an instance that has processed no flow for
            this long is removed (scale-in).
        resource_coefficient: Slope of the linear resource function
            ``r_c(λ) = resource_coefficient * λ``.
    """

    name: str
    processing_delay: float = 5.0
    startup_delay: float = 0.0
    idle_timeout: float = 100.0
    resource_coefficient: float = 1.0

    def __post_init__(self) -> None:
        if self.processing_delay < 0:
            raise ValueError(f"component {self.name!r}: processing_delay must be >= 0")
        if self.startup_delay < 0:
            raise ValueError(f"component {self.name!r}: startup_delay must be >= 0")
        if self.idle_timeout <= 0:
            raise ValueError(f"component {self.name!r}: idle_timeout must be > 0")

    def resources(self, rate: float) -> float:
        """Resource demand ``r_c(λ)`` for processing a flow of data rate ``λ``."""
        if rate < 0:
            raise ValueError(f"data rate must be >= 0, got {rate}")
        return self.resource_coefficient * rate


@dataclass(frozen=True)
class Service:
    """A service: an ordered chain of components.

    Attributes:
        name: Unique service identifier.
        components: The chain ``C_s``; flows traverse it front to back.
    """

    name: str
    components: Tuple[Component, ...]

    def __init__(self, name: str, components: Sequence[Component]) -> None:
        if not components:
            raise ValueError(f"service {name!r} must have at least one component")
        seen = set()
        for comp in components:
            if comp.name in seen:
                raise ValueError(
                    f"service {name!r}: duplicate component {comp.name!r} in chain"
                )
            seen.add(comp.name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "components", tuple(components))

    @property
    def length(self) -> int:
        """Chain length ``n_s`` (used to scale the +1/n_s shaping reward)."""
        return len(self.components)

    def component_at(self, index: int) -> Component:
        """The ``index``-th component of the chain (0-based)."""
        return self.components[index]


class ServiceCatalog:
    """Registry of all services offered in a scenario.

    Enforces the paper's uniqueness assumptions: service names are unique
    and component names are unique across services (set ``C`` contains all
    components from all services).
    """

    def __init__(self, services: Iterable[Service] = ()) -> None:
        self._services: Dict[str, Service] = {}
        self._components: Dict[str, Component] = {}
        for service in services:
            self.add(service)

    def add(self, service: Service) -> None:
        """Register ``service``; rejects duplicate service/component names."""
        if service.name in self._services:
            raise ValueError(f"duplicate service name {service.name!r}")
        for comp in service.components:
            existing = self._components.get(comp.name)
            if existing is not None and existing is not comp:
                raise ValueError(
                    f"component name {comp.name!r} already registered by another service"
                )
        self._services[service.name] = service
        for comp in service.components:
            self._components[comp.name] = comp

    def service(self, name: str) -> Service:
        """Look up a service by name (KeyError if absent)."""
        return self._services[name]

    def component(self, name: str) -> Component:
        """Look up a component by name across all services (KeyError if absent)."""
        return self._components[name]

    @property
    def components(self) -> List[Component]:
        """All components of all services (set ``C``)."""
        return list(self._components.values())

    def __contains__(self, name: str) -> bool:
        return name in self._services

    def __len__(self) -> int:
        return len(self._services)
