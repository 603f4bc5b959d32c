"""Exception types raised across the pipeline."""


class AutoFeedbackError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(AutoFeedbackError):
    """Documentation or dataset file violates the expected schema.

    Carries a dotted path to the offending element (e.g. ``apis[2].parameters[0].type``).
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class EmptyDocumentError(AutoFeedbackError):
    """An operation needed at least one API in the documentation."""


class EmptyDatasetError(AutoFeedbackError):
    """A benchmark run received no tasks."""


class UnknownTruthApiError(AutoFeedbackError):
    """A ground-truth request names an API missing from the documentation."""


class NoErrorFindingError(AutoFeedbackError):
    """Feedback was requested for a finding that contains no error, or for
    E4.other, a label of ``classify_against_truth`` that ``detect`` never
    finds and that has no feedback text."""


class TransportError(AutoFeedbackError):
    """An HTTP gateway failed after exhausting its retries."""


class ProtocolError(AutoFeedbackError):
    """A remote endpoint answered with an error status or a body we cannot read."""


class EmptyInputError(AutoFeedbackError):
    """A metric was asked to aggregate an empty collection."""


class ZeroAccuracyError(AutoFeedbackError):
    """Overhead is undefined at zero accuracy."""


class LengthMismatchError(AutoFeedbackError):
    """Paired score vectors must have equal length."""


class TooShortError(AutoFeedbackError):
    """Rank correlation needs at least two observations."""
