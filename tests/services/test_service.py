"""Tests for the service/component model."""

import pytest

from repro.services.catalog import (
    default_catalog,
    ml_inference_pipeline,
    video_streaming_service,
)
from repro.services.service import Component, Service, ServiceCatalog


class TestComponent:
    def test_defaults(self):
        c = Component("fw")
        assert c.processing_delay == 5.0
        assert c.idle_timeout == 100.0

    def test_linear_resources(self):
        c = Component("fw", resource_coefficient=2.0)
        assert c.resources(1.5) == 3.0
        assert c.resources(0.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="data rate"):
            Component("fw").resources(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"processing_delay": -1.0},
            {"startup_delay": -0.5},
            {"idle_timeout": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Component("fw", **kwargs)


class TestService:
    def test_chain_ordering(self):
        svc = Service("s", [Component("a"), Component("b"), Component("c")])
        assert svc.length == 3
        assert svc.component_at(0).name == "a"
        assert svc.component_at(2).name == "c"

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Service("s", [])

    def test_duplicate_component_in_chain_rejected(self):
        c = Component("a")
        with pytest.raises(ValueError, match="duplicate component"):
            Service("s", [c, Component("a")])

    def test_immutable(self):
        svc = Service("s", [Component("a")])
        with pytest.raises(Exception):
            svc.name = "other"


class TestServiceCatalog:
    def test_lookup(self):
        cat = ServiceCatalog([Service("s", [Component("a"), Component("b")])])
        assert cat.service("s").length == 2
        assert cat.component("b").name == "b"
        assert "s" in cat
        assert len(cat) == 1

    def test_duplicate_service_rejected(self):
        cat = ServiceCatalog([Service("s", [Component("a")])])
        with pytest.raises(ValueError, match="duplicate service"):
            cat.add(Service("s", [Component("b")]))

    def test_component_names_unique_across_services(self):
        cat = ServiceCatalog([Service("s1", [Component("shared")])])
        with pytest.raises(ValueError, match="already registered"):
            cat.add(Service("s2", [Component("shared")]))

    def test_same_component_object_shareable(self):
        shared = Component("shared")
        cat = ServiceCatalog(
            [Service("s1", [shared]), Service("s2", [shared, Component("extra")])]
        )
        assert len(cat.components) == 2

    def test_components_lists_all(self):
        cat = ServiceCatalog(
            [
                Service("s1", [Component("a")]),
                Service("s2", [Component("b"), Component("c")]),
            ]
        )
        assert sorted(c.name for c in cat.components) == ["a", "b", "c"]


class TestPrebuiltServices:
    def test_video_streaming_matches_paper(self):
        svc = video_streaming_service()
        assert [c.name for c in svc.components] == ["FW", "IDS", "video"]
        assert all(c.processing_delay == 5.0 for c in svc.components)

    def test_default_catalog(self):
        cat = default_catalog()
        assert cat.service("video-streaming").length == 3

    def test_ml_pipeline(self):
        svc = ml_inference_pipeline()
        assert svc.length == 4
        # The model stage is the heavy one.
        model = svc.components[2]
        assert model.name == "model"
        assert model.resources(1.0) > svc.components[0].resources(1.0)
