"""Exception types raised by the library, and the tolerances that decide
when they are raised.

All errors derive from :class:`BlochvecError` (itself a ``ValueError``) so
callers can catch everything from this package with one handler while still
being able to distinguish failure kinds.

Every zero test in the package reads one of the four ``EPS_*`` cutoffs
below; no other cutoff is written anywhere.  Only the verdict band can be
changed by a caller, through the ``tol`` of
:func:`~blochvec.positivity_verdict` and :func:`~blochvec.check_positivity`
(the CLI's ``--tol`` and ``BLOCHVEC_TOL``), up to :data:`MAX_TOL`.
"""

#: Largest Hermiticity residual max|A - A^dag| accepted, relative to
#: max(1, largest entry); also the default of :meth:`BasisSet.validate`,
#: which runs whenever a ``BasisSet`` is made.
EPS_HERM = 1e-10

#: Absolute "counts as zero" cutoff: the trace-one check, the pure-state and
#: orthogonality predicates, the degeneracy rule of
#: :meth:`ClosedInvariants.degeneracy` (|n| at most EPS_ZERO, Hankel singular
#: values relative to the largest, and sqrt(EPS_ZERO) for the integrality of
#: multiplicities), the smallest eigenvalue accepted as PSD before a matrix
#: square root, the S_2 clamp of the three-tangle, the CKW slack, the range
#: slack of the inversion family's parameter and the CLI's ``--verify``
#: eigenvalues.
EPS_ZERO = 1e-9

#: Default verdict band: S_k counts as zero when |S_k| <= EPS_POS times the
#: last non-negligible coefficient.
EPS_POS = 1e-9

#: Largest verdict band a caller may set; a larger ``tol`` raises
#: :class:`DomainError`.  A band of ``tol`` treats eigenvalues within about
#: ``tol`` of the spectrum's scale as zero, so a much looser band calls
#: clearly indefinite states Boundary (diag(0.5, 0.75, -0.25) at 0.5).
MAX_TOL = 1e-3

#: Largest |<psi|psi> - 1| accepted for a ket.
EPS_KET = 1e-12


class BlochvecError(ValueError):
    """Base class for all errors raised by blochvec."""


class DimensionError(BlochvecError):
    """Invalid Hilbert-space dimension (e.g. N < 2)."""


class LayoutError(BlochvecError):
    """Vector/matrix shapes or subsystem layout are inconsistent."""


class InconsistentBasisError(BlochvecError):
    """A basis failed its orthogonality / tracelessness / hermiticity checks."""


class HermiticityError(BlochvecError):
    """An operator expected to be Hermitian is not, beyond tolerance."""


class NormalizationError(BlochvecError):
    """A trace or state norm differs from one beyond tolerance."""


class StarUndefinedError(BlochvecError):
    """The star product is undefined for two-level systems (d-tensor is zero)."""


class UnsupportedOrderError(BlochvecError):
    """Requested invariant order outside the implemented range."""


class DomainError(BlochvecError):
    """Scalar argument outside its admissible range."""


class ConsistencyError(BlochvecError):
    """An internal numerical consistency check failed beyond tolerance."""
