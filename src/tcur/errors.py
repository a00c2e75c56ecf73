"""Exception types shared across the library; bad argument values are also ValueErrors."""


class TcurError(Exception):
    """Base class for all library errors."""


class DimMismatch(TcurError, ValueError):
    """Operand dimensions are not conformable."""


class ResidualImaginary(TcurError):
    """Inverse FFT left an imaginary residue above tolerance.

    Signals a spectrum that is not conjugate-symmetric along mode 3,
    i.e. one that cannot have come from a real tensor (a caller bug).
    """


class NonFiniteInput(TcurError, ValueError):
    """A NaN or infinite entry where finite values are required."""


class ZeroTensor(TcurError):
    """An all-zero tensor where a nonzero one is required."""


class ZeroReference(TcurError):
    """Relative error requested against a zero-norm reference."""


class RankOutOfRange(TcurError, ValueError):
    """Requested rank outside the valid range for the given dims."""


class DivergenceDetected(TcurError):
    """Training loss blew past the divergence guard."""


class CurvatureMismatch(TcurError):
    """The closed-form Hessian eigenpair does not hold for the Hessian operator."""


class CheckpointError(TcurError):
    """Base for checkpoint serialization failures."""


class CorruptCheckpoint(CheckpointError):
    """Bad magic, checksum, or structural metadata in a checkpoint file."""


class UnsupportedVersion(CheckpointError):
    """Recognized checkpoint container but unknown format version."""
