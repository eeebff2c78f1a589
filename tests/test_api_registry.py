"""The generic registry: registration, discovery, errors."""

from __future__ import annotations

import pytest

from repro.api.registry import Registry
from repro.errors import RegistryError, UnknownEntryError


@pytest.fixture
def registry() -> Registry:
    return Registry("widget")


class TestRegistration:
    def test_register_and_get(self, registry):
        registry.register("a", 1, description="first")
        assert registry.get("a") == 1
        assert registry.get_entry("a").description == "first"

    def test_decorator_form_returns_object(self, registry):
        @registry.register("fn", description="callable entry")
        def fn():
            return 42

        assert fn() == 42
        assert registry.get("fn") is fn

    def test_registration_order_preserved(self, registry):
        for name in ("z", "a", "m"):
            registry.register(name, name)
        assert registry.names() == ["z", "a", "m"]

    def test_duplicate_rejected_without_overwrite(self, registry):
        registry.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    @pytest.mark.parametrize("bad", ["", "with space", "a,b", "a:b", ":x", None, 3])
    def test_invalid_names_rejected(self, registry, bad):
        with pytest.raises(RegistryError, match="invalid widget name"):
            registry.register(bad, 1)

    def test_description_defaults_to_first_doc_line(self, registry):
        def documented():
            """Short summary.

            Long tail that must not leak into the description.
            """

        registry.register("d", documented)
        assert registry.get_entry("d").description == "Short summary"

    def test_unregister(self, registry):
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(UnknownEntryError):
            registry.unregister("a")


class TestLookupErrors:
    def test_unknown_enumerates_registered_names(self, registry):
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownEntryError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "alpha" in message and "beta" in message
        assert excinfo.value.known == ["alpha", "beta"]

    def test_typo_gets_nearest_match_hint(self, registry):
        registry.register("LSM", 1)
        registry.register("RRS", 2)
        with pytest.raises(UnknownEntryError, match="did you mean 'LSM'"):
            registry.get("LMS")

    def test_case_folded_hint(self, registry):
        registry.register("MxM", 1)
        with pytest.raises(UnknownEntryError, match="did you mean 'MxM'"):
            registry.get("mxm")

    def test_empty_registry_message(self, registry):
        with pytest.raises(UnknownEntryError, match="no widgets are registered"):
            registry.get("anything")

    def test_unknown_entry_error_is_keyerror(self, registry):
        with pytest.raises(KeyError):
            registry.get("missing")

    def test_str_is_not_double_quoted(self, registry):
        registry.register("a", 1)
        with pytest.raises(UnknownEntryError) as excinfo:
            registry.get("b")
        assert not str(excinfo.value).startswith('"')


class TestContainerProtocol:
    def test_contains_iter_len(self, registry):
        registry.register("a", 1)
        registry.register("b", 2)
        assert "a" in registry and "missing" not in registry
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2
