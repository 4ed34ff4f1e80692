"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration: bad option value, unknown key, malformed profile."""


class DomainError(ValueError):
    """Evaluation requested outside the arc-length domain [0, L] (or t < 0)."""


class SolverFault(RuntimeError):
    """A solver produced a non-finite or diverged state.

    The stepping loop stops the run at the fault and keeps its message and
    step in the record (``nc_reason``, ``nc_step``).
    """
