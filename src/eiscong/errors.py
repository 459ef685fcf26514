"""Exception hierarchy shared across the package.

Parameter errors map to CLI exit code 1, computation errors to exit code 2.
"""


class EiscongError(Exception):
    """Base class for all package errors."""


class ParameterError(EiscongError, ValueError):
    """Invalid user-supplied parameters (bad modulus, parity mismatch, ...)."""


class ComputationError(EiscongError):
    """A computation could not be completed at the requested settings."""


class RamifiedPrimeError(ParameterError):
    """p divides the cyclotomic conductor; only unramified primes are supported."""


class ConductorTooLargeError(ParameterError):
    """Conductor exceeds the hard guard on cyclotomic polynomial degrees."""


class SchemaError(ParameterError):
    """An external eigensystem record file violates the JSON schema."""
