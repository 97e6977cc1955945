"""Exception types: one per exit code of the CLI, and ShapeError."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected matrix shapes."""


class ConfigError(ValueError):
    """A configuration or generator argument is out of its valid range."""


class InputError(ValueError):
    """An input file or dataset is malformed, outdated, or does not fit the
    run."""


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss; carries a diagnostic dump."""

    def __init__(self, message, epoch=None, batch=None, components=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.components = components or {}
