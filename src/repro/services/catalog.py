"""Pre-built services used in the paper's evaluation and in the examples."""

from __future__ import annotations

from repro.services.service import Component, Service, ServiceCatalog

__all__ = [
    "video_streaming_service",
    "ml_inference_pipeline",
    "default_catalog",
]


#: The base scenario's component timings (Sec. V-A1): 5 ms processing,
#: no startup delay, an instance removed after 100 idle time units.
PROCESSING_DELAY = 5.0
STARTUP_DELAY = 0.0
IDLE_TIMEOUT = 100.0


def video_streaming_service() -> Service:
    """The paper's base-scenario service ``s`` with ``C_s = <FW, IDS, video>``.

    All three components have the same processing delay
    (:data:`PROCESSING_DELAY`, 5 ms in the paper) and resource demand
    linear in the flow's data rate.
    """
    make = lambda name: Component(
        name,
        processing_delay=PROCESSING_DELAY,
        startup_delay=STARTUP_DELAY,
        idle_timeout=IDLE_TIMEOUT,
        resource_coefficient=1.0,
    )
    return Service("video-streaming", [make("FW"), make("IDS"), make("video")])


def ml_inference_pipeline(processing_delay: float = 4.0) -> Service:
    """A four-stage ML pipeline <ingest, preprocess, model, postprocess>.

    Mirrors the paper's motivation of machine-learning functions chained in
    a pipeline (ITU-T Y.3172); the longer chain stresses scaling/placement.
    """
    make = lambda name, coeff: Component(
        name, processing_delay=processing_delay, resource_coefficient=coeff
    )
    return Service(
        "ml-pipeline",
        [
            make("ingest", 0.3),
            make("preprocess", 0.6),
            make("model", 1.2),
            make("postprocess", 0.4),
        ],
    )


def default_catalog() -> ServiceCatalog:
    """Catalog holding the paper's base-scenario video streaming service."""
    return ServiceCatalog([video_streaming_service()])
