//! Typed configuration errors for the MPI-IO layer.
//!
//! Application, pattern and collective-buffering validation all report
//! through [`ConfigError`] so that the `calciom` session layer can wrap
//! the failure without losing which field of which application was wrong.

/// A problem found while validating an application description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// An application was configured with zero processes.
    ZeroProcs {
        /// Name of the offending application.
        app: String,
    },
    /// An application was configured with zero I/O phases.
    ZeroPhases {
        /// Name of the offending application.
        app: String,
    },
    /// A contiguous pattern had a negative per-process size.
    NegativeBytesPerProc,
    /// A pattern's per-process size was NaN or infinite (for a strided
    /// pattern: the block size times the block count overflowed).
    NonFiniteBytesPerProc,
    /// A strided pattern had a negative block size.
    NegativeBlockSize,
    /// A strided pattern's block size was NaN or infinite.
    NonFiniteBlockSize,
    /// A strided pattern had zero blocks per process.
    ZeroBlockCount,
    /// The collective buffer size was not positive.
    NonPositiveBufferBytes,
    /// The collective buffer size was NaN or infinite.
    NonFiniteBufferBytes,
    /// The collective shuffle bandwidth was not positive.
    NonPositiveShuffleBw,
    /// The collective shuffle bandwidth was NaN or infinite.
    NonFiniteShuffleBw,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroProcs { app } => write!(f, "{app}: procs must be at least 1"),
            ConfigError::ZeroPhases { app } => write!(f, "{app}: phases must be at least 1"),
            ConfigError::NegativeBytesPerProc => {
                write!(f, "bytes_per_proc must be non-negative")
            }
            ConfigError::NonFiniteBytesPerProc => write!(f, "bytes_per_proc must be finite"),
            ConfigError::NegativeBlockSize => write!(f, "block_size must be non-negative"),
            ConfigError::NonFiniteBlockSize => write!(f, "block_size must be finite"),
            ConfigError::ZeroBlockCount => write!(f, "block_count must be at least 1"),
            ConfigError::NonPositiveBufferBytes => {
                write!(f, "collective buffer_bytes must be positive")
            }
            ConfigError::NonFiniteBufferBytes => {
                write!(f, "collective buffer_bytes must be finite")
            }
            ConfigError::NonPositiveShuffleBw => {
                write!(f, "collective shuffle_bw must be positive")
            }
            ConfigError::NonFiniteShuffleBw => write!(f, "collective shuffle_bw must be finite"),
        }
    }
}

impl std::error::Error for ConfigError {}
