"""The error a malformed scenario raises; a leaf module, so that both
``ingest`` and ``factors`` can raise it."""


class ScenarioError(ValueError):
    """A series or scenario document failed validation."""
