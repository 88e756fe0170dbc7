"""Exception hierarchy for ternalg."""

from __future__ import annotations


class TernalgError(Exception):
    """Base class for all ternalg errors."""


class InternalError(RuntimeError):
    """A library invariant failed: a bug in ternalg, never a fault of the input.

    Deliberately not a TernalgError, so the CLI does not report it as bad
    input (exit code 2).
    """


class DimensionMismatch(TernalgError):
    """Operands have incompatible dimensions."""


class SingularMatrix(TernalgError):
    """Matrix inversion attempted on a rank-deficient matrix."""


class BundleError(TernalgError):
    """An algebra bundle violates a construction invariant (bad unit, bad shape)."""


class DimensionCapExceeded(BundleError):
    """Bundle dimension exceeds the configured cap for dense exhaustive checks."""


class MissingTensor(TernalgError):
    """The bundle does not carry a tensor the operation requires."""

    def __init__(self, slot: str, context: str = ""):
        self.slot = slot
        msg = f"bundle has no {slot!r} tensor"
        if context:
            msg += f" (required by {context})"
        super().__init__(msg)


class MissingRep(TernalgError):
    """The representation bundle does not carry the component the check requires."""


class ArityMismatch(TernalgError):
    """Wrong number of arguments for the requested identity."""


class UnknownIdentity(TernalgError):
    """Identity id not present in the registry."""


class UnknownKind(TernalgError):
    """Structure or representation kind name not recognised."""


class SchemaError(TernalgError):
    """JSON document does not conform to the bundle/report schema."""


class PreconditionError(TernalgError):
    """A builder's verified precondition failed; carries the failing report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotATrace(PreconditionError):
    """Functional is not a trace for the binary bracket."""


class NotRelativeRB(PreconditionError):
    """Map fails the relative Rota-Baxter identities."""


class NotRotaBaxter(NotRelativeRB):
    """Square map fails the Rota-Baxter identities against the adjoint action."""


class NotNijenhuis(PreconditionError):
    """Map fails the Nijenhuis integrability conditions."""


class NotCoherent(PreconditionError):
    """Bundle fails the coherence identities."""


class NotSkew(TernalgError):
    """Bilinear form is not skew-symmetric."""


class NotCyclicCocycle(PreconditionError):
    """Form fails the cyclic 2-cocycle identity over the product."""


class NotSymplectic(PreconditionError):
    """Form fails the symplectic identity over the ternary bracket."""
