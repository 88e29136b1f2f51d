"""Exception types shared across the package.

The CLI maps these onto exit codes: budget overruns exit 2, everything
else here exits 1 with a message naming the violated condition.  Exit
code 2 is shared with argparse, which exits 2 on a usage error.
"""


class XmcurvesError(Exception):
    """Base class for all package errors."""


class DegenerateCurve(XmcurvesError):
    """Curve has fewer than 2 vertices or non-increasing x coordinates."""


class NotCrossingAxis(XmcurvesError):
    """Curve lies entirely in one closed half-plane of the y-axis."""


class EmptySubset(XmcurvesError):
    """An index subset that must be nonempty is empty."""


class InvalidFamily(XmcurvesError):
    """Curve list failed family validation; carries the report."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__(f"family validation failed: {first}")


class BudgetExceeded(XmcurvesError):
    """Exact solver or detector ran past its configured budget."""


class NotAPoset(XmcurvesError):
    """Derived disjointness order on arcs is not transitive."""


class KTooSmall(XmcurvesError):
    """Threshold schedule requires k >= 2."""


class PreconditionFailed(XmcurvesError, ValueError):
    """A stated operation precondition does not hold for the input."""


class NotCrossing(XmcurvesError):
    """The chosen index pair is not an edge of the intersection graph."""


class GenerationFailed(XmcurvesError):
    """Generator exhausted its retry budget without a valid family."""


class InvalidFileFormat(XmcurvesError):
    """Input text is not a well-formed curve file."""
