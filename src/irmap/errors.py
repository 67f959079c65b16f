"""Exception hierarchy shared across the toolkit."""


class IrmapError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(IrmapError, ValueError):
    """An argument violates a documented precondition."""


class DataError(IrmapError):
    """Input data (geometry, frames, a store) is malformed or unusable."""


class DegenerateHistogramError(DataError):
    """Thresholding requested on an image whose histogram has a single occupied bin."""


class BelowFloorError(DataError):
    """Counts at or below the non-object background term: object colder than surroundings."""


class IllConditionedError(IrmapError):
    """A fit objective is flat and the optimum is not identifiable."""


class DegeneracyError(IrmapError):
    """Point configuration is rank-deficient; no unique homography exists."""


class HorizonError(IrmapError):
    """Projective denominator vanished: the point lies on the horizon line."""


class StlParseError(DataError):
    """Malformed STL input."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class StlTruncationError(StlParseError):
    """Binary STL ended before the declared triangle records."""

    def __init__(self, message, offset):
        super().__init__(message)
        self.offset = offset


class OutOfFrameError(DataError):
    """A voxel registered to a pixel outside the camera frame."""

    def __init__(self, message, voxels=()):
        super().__init__(message)
        self.voxels = list(voxels)


class NoPrescanError(DataError):
    """Laser activity already present in frame 0; no pre-scan window exists."""


class StoreFormatError(DataError):
    """Bad magic or unsupported version in a feature store."""


class StoreCorruptionError(StoreFormatError):
    """Feature store ended mid-block or breaks a rule of its layout."""

    def __init__(self, message, offset, layer=None, feature_id=None):
        super().__init__(message)
        self.offset = offset
        self.layer = layer
        self.feature_id = feature_id


class FeatureNotFoundError(DataError):
    """Requested (layer, feature) pair is absent from the store."""


class ConfigError(IrmapError):
    """Run configuration invalid or referencing missing files."""
