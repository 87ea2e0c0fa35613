"""The exception type shared across the toolkit."""


class DataError(Exception):
    """Invalid, inconsistent or missing input data (CLI exit code 2)."""
