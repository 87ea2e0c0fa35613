"""Exception types shared across the toolkit."""


class DataError(Exception):
    """Invalid, inconsistent or missing input data (CLI exit code 2)."""


class RankDeficientWarning(UserWarning):
    """PCA fit found fewer positive eigenvalues than requested dimensions."""
