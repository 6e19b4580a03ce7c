"""Exception types shared across the package."""


class IpsZetaError(Exception):
    """Base class for all errors raised by this package."""


class SparsityViolation(IpsZetaError):
    """A forbidden local-operator entry (one that would change the right site) is nonzero."""

    def __init__(self, k, l, i, j, value):
        self.index = (k, l, i, j)
        self.value = value
        super().__init__(
            "forbidden entry a[(%d,%d)][(%d,%d)] = %r; the right site may not change (j must equal l)"
            % (k, l, i, j, value)
        )


class SizeCapExceeded(IpsZetaError):
    """Requested size is beyond the byte budget or the eigensolver's cap."""


class LengthMismatch(IpsZetaError):
    """A state vector does not have length 2**n."""


class NoConvergence(IpsZetaError):
    """The eigensolver failed to converge or missed its residual contract."""


class ParamOutOfRange(IpsZetaError):
    """A model parameter lies outside its admissible range."""


class NoBracket(IpsZetaError):
    """A critical-value scan never crossed the survival threshold."""


class SingularFactor(IpsZetaError):
    """An Euler-type factor 1 - lambda*u vanished at the requested point."""
