"""Exception types shared across the sampler modules."""


class ShapeMismatch(ValueError):
    """Array shapes are inconsistent with the network or batch layout."""


class DimensionMismatch(ValueError):
    """Two densities or states live in different dimensions."""


class NonFiniteState(FloatingPointError):
    """ODE state blew up during flow integration."""


class NonFiniteGradient(FloatingPointError):
    """A parameter gradient is not finite; training has diverged upstream."""


class NonFiniteLoss(FloatingPointError):
    """The training objective is not finite."""


class FactorizationFailure(ValueError):
    """A covariance matrix is numerically indefinite."""


class DegenerateWeights(RuntimeError):
    """Every importance weight underflowed to zero."""


class TooFewSamples(ValueError):
    """An estimator needs more samples than were provided."""


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
