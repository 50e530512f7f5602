"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array length or alphabet sizes inconsistent with the declared box shape."""


class SignallingError(ValueError):
    """An operation requiring a no-signalling box received a signalling one."""

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation


class AsymmetryError(ValueError):
    """An operation requiring a symmetric box received an asymmetric one."""

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the documented enumeration/size caps."""


class ConvergenceError(RuntimeError):
    """A solver hit its iteration cap or ended without an optimal solution."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics
