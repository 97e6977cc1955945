"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected matrix shapes."""


class ConfigError(ValueError):
    """A configuration or generator argument is out of its valid range."""


class DatasetFormatError(ValueError):
    """A dataset file is structurally malformed (carries a line number)."""


class DatasetValidationError(ValueError):
    """A dataset file parsed but its body contradicts its header."""


class ArtifactFormatError(ValueError):
    """A unit-graph or relabel-audit CSV is malformed (names file and line)."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed, outdated, or does not fit the dataset."""


class IntegrityError(ValueError):
    """A record refers to a sample id that does not exist."""


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss; carries a diagnostic dump."""

    def __init__(self, message, epoch=None, batch=None, components=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.components = components or {}
