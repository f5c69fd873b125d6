"""Error types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, unknown keys, impossible settings."""


class EvaluationError(RuntimeError):
    """A forward pass produced non-finite activations."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the offending step index."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step
        self.value = value
