"""Exception hierarchy shared by every maliot module.

CLI exit-code families: usage errors exit 2, data errors 3, I/O 4,
network 5.  Plain OSError is used for file I/O failures.
"""


class MaliotError(Exception):
    """Base class for all maliot domain errors."""


class BadConfigError(MaliotError):
    """Invalid configuration value (maps to usage errors, exit 2)."""


# --- data errors (exit 3) ---------------------------------------------------

class ParseError(MaliotError):
    """One flow row could not be parsed.

    ``reason`` is one of ``malformed_row`` (wrong field count) or
    ``bad_numeric`` (numeric field is neither a number nor the missing
    marker, or violates a range invariant).
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {message}" if message else reason)


class EmptyDatasetError(MaliotError):
    """An operation that needs data received none."""


class SingleClassDataError(MaliotError):
    """Discriminative training requires both classes to be present."""


class InsufficientDataError(MaliotError):
    """Input smaller than the minimum an operation requires."""


class DimensionMismatchError(MaliotError):
    """Feature vector width does not match what the model was trained on."""


class CodecMismatchError(MaliotError):
    """Model was trained against a different feature codec (fingerprints differ)."""


class VersionMismatchError(MaliotError):
    """Serialized file uses an unsupported format version."""


class VersionRegressionError(MaliotError):
    """Hot swap rejected: replacement model version is not newer."""


class CorruptModelError(MaliotError):
    """Model file failed checksum or structural validation."""


class ModelLoadError(MaliotError):
    """Model/codec pair could not be loaded into the engine."""


# --- broker errors ----------------------------------------------------------

class BrokerError(MaliotError):
    """Base class for broker-side failures."""


class TopicExistsError(BrokerError):
    pass


class BadPartitionCountError(BrokerError):
    pass


class UnknownTopicError(BrokerError):
    pass


class OffsetOutOfRangeError(BrokerError):
    pass


class BackpressureTimeoutError(BrokerError):
    """Partition buffer stayed above its configured bound past the timeout."""


class BrokerUnreachableError(BrokerError):
    """TCP broker could not be reached after bounded retries (exit 5)."""


class ProtocolError(BrokerError):
    """Malformed frame on the wire, or a reply that cannot fit in one."""


class MessageTooLargeError(BrokerError):
    """Produce refused: the message alone would not fit in a POLL reply."""


class LogFormatError(BrokerError):
    """A partition log is in a layout this broker does not read."""


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# name -> class registry so the wire protocol can rehydrate errors
ERROR_REGISTRY = {cls.__name__: cls for cls in _subclasses(MaliotError)}
