"""Service chains: components, services, catalogs, pre-built examples."""

from repro.services.service import (
    Component,
    Service,
    ServiceCatalog,
)
from repro.services.catalog import (
    default_catalog,
    ml_inference_pipeline,
    video_streaming_service,
)

__all__ = [
    "Component",
    "Service",
    "ServiceCatalog",
    "default_catalog",
    "ml_inference_pipeline",
    "video_streaming_service",
]
