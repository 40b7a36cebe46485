"""Exception hierarchy shared by every module.

Each class carries a fixed message prefix so CLI output and logs stay
greppable; the CLI maps ConfigError/LabelError to exit code 1 (bad input)
and everything else to exit code 2 (runtime failure).
"""


class KitError(Exception):
    prefix = "error"

    def __str__(self) -> str:
        return f"{self.prefix}: {super().__str__()}"


class ConfigError(KitError):
    """Invalid configuration value, unknown key, or inconsistent settings."""

    prefix = "config error"


class DimensionError(KitError):
    """Operand shapes are incompatible with the requested operation."""

    prefix = "dimension error"


class NumericError(KitError):
    """Non-finite values at a graph boundary, or a diverged computation."""

    prefix = "numeric error"


class LabelError(KitError):
    """A mask value that is not a label of the 6-class set."""

    prefix = "label error"


class ContractError(KitError):
    """An internal invariant was violated (caller or kit bug)."""

    prefix = "contract error"


class DegenerateBatchError(KitError):
    """Batch statistics are undefined (fewer than two values per channel)."""

    prefix = "degenerate-batch error"


class DataIOError(KitError):
    """File could not be read, written, or parsed."""

    prefix = "io error"
