"""Exception hierarchy shared by all ethcluster modules."""


class EthClusterError(Exception):
    """Base class for every error raised by this package."""


# --- ingest ---------------------------------------------------------------

class InvalidInput(EthClusterError):
    """Malformed caller input (empty source, bad address, bad fraction)."""


class TransportError(EthClusterError):
    """HTTP-level failure talking to a block explorer."""


class NotVerified(EthClusterError):
    """The explorer has no verified source for this address."""


class RateLimited(EthClusterError):
    """The explorer asked us to back off; the caller should retry later."""


class StoreError(EthClusterError):
    """I/O failure while reading or writing the contract store."""


class InsufficientData(EthClusterError):
    """Not enough clean records to hit the requested vulnerable fraction."""


# --- detect ---------------------------------------------------------------

class InvalidKind(EthClusterError):
    """Unknown vulnerability kind, or one with no regex pattern."""


# --- artifacts ------------------------------------------------------------

class FormatError(EthClusterError):
    """A dataset, config, tokens, flags, embedding, vectors, keywords or model file is malformed."""


class VersionError(EthClusterError):
    """A persisted artifact carries no header or an unsupported format version."""


# --- vectorize ------------------------------------------------------------

class EmptyCorpus(EthClusterError):
    """Every document in the corpus is empty."""


# --- cluster --------------------------------------------------------------

class InvalidComponents(EthClusterError):
    """num_components exceeds what the data can support."""


class DimError(EthClusterError):
    """Vector or matrix dimensions do not line up."""


class TooManyClusters(EthClusterError):
    """k exceeds the number of data rows."""


class AlignmentError(EthClusterError):
    """An artifact or sequence does not cover the same contracts in the same order."""


# --- evaluate -------------------------------------------------------------

class EmptyEvaluation(EthClusterError):
    """Metrics requested over zero evaluated documents."""


# --- pipeline / cli -------------------------------------------------------

class PathError(EthClusterError):
    """A required input path is missing or unreadable."""


class ModelNotFound(EthClusterError):
    """Inference requested but the trained artifacts are absent."""


class PipelineStageError(EthClusterError):
    """Wraps a failure inside run_pipeline with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
