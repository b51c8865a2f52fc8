"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A configuration or input value violates a documented constraint.

    The message names the offending field. The CLI maps this to exit code 1.
    """


class TraceParseError(ValueError):
    """A trace file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ProtocolError(RuntimeError):
    """A component was driven outside its legal state sequence.

    Raised e.g. for resetting a log index that is not pending a full event,
    or folding a round that is not held. Indicates a bug in the caller, not
    bad user input.
    """


class PredicateContractError(RuntimeError):
    """A caller-supplied probe violated the contract it was declared under."""
