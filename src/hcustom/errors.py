"""Exception types shared across the package."""


class HCustomError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(HCustomError):
    """Array shape incompatible with the operation's contract."""


class ConfigMismatchError(HCustomError):
    """Data was produced under a different configuration."""


class FrameCountError(HCustomError):
    """Audio/video frame counts violate the compression relation."""


class NumericalFailureError(HCustomError):
    """NaN or Inf appeared in activations or the loss."""


class InfeasibleCropError(HCustomError):
    """No in-frame crop can reach the requested coverage."""


class TemplateError(HCustomError):
    """Prompt template construction failed (descriptor problems)."""


class MissingDescriptorError(TemplateError):
    """Embedded template requires the descriptor word to occur in the text."""


class DuplicateDescriptorError(TemplateError):
    """Descriptor word occurs more than once, placement is ambiguous."""


class ContainerError(HCustomError, ValueError):
    """A file is not a well-formed array container (header, entries or body)."""


class ConfigError(HCustomError, ValueError):
    """Invalid run configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
