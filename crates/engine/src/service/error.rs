//! What the service can refuse or report: configuration errors at build time, and the
//! shard-tagged union of everything the routed engines and the durable layer can raise.

use crate::coalesce::RejectReason;
use crate::engine::EngineError;
use crate::partition::ShardId;
use dynsld::DynSldError;
use dynsld_durable::DurableError;
use dynsld_forest::workload::GraphUpdate;

#[cfg(doc)]
use crate::{ClusterService, ReadHandle, ServiceBuilder};
#[cfg(doc)]
use dynsld_forest::VertexId;

/// Why a [`ServiceBuilder`] configuration was rejected by [`ServiceBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards(0)`: a service needs at least one routed shard.
    ZeroShards,
    /// `threads(0)`: a service needs at least one flush thread (`threads(1)` is the
    /// sequential mode).
    ZeroThreads,
    /// `queue_capacity(0)`: the submission queue must hold at least one event.
    ZeroQueueCapacity,
    /// [`ServiceBuilder::vertices`] was never called, so the vertex range is unknown.
    MissingVertexCount,
    /// The requested vertex count does not fit the `u32`-indexed [`VertexId`] space.
    VertexCountOverflow {
        /// The vertex count that was asked for.
        requested: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shards(0): at least one shard is required"),
            ConfigError::ZeroThreads => {
                write!(f, "threads(0): at least one flush thread is required")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(
                    f,
                    "queue_capacity(0): the submission queue needs capacity >= 1"
                )
            }
            ConfigError::MissingVertexCount => {
                write!(f, "vertex count not set: call ServiceBuilder::vertices(n)")
            }
            ConfigError::VertexCountOverflow { requested } => write!(
                f,
                "vertex count {requested} exceeds the u32-indexed VertexId space"
            ),
        }
    }
}

/// Errors surfaced by the service — invalid configurations at build time, plus the union of
/// everything the routed engines can report, tagged with the shard that reported it.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// [`ServiceBuilder::build`] rejected the configuration; nothing was constructed.
    InvalidConfig(ConfigError),
    /// An event was inconsistent with its home shard's applied state plus pending buffer; it
    /// was not ingested and the service is unchanged.
    Rejected {
        /// The shard the event was routed to.
        shard: ShardId,
        /// The offending event.
        event: GraphUpdate,
        /// Why the shard rejected it.
        reason: RejectReason,
    },
    /// A shard's underlying structures rejected a batch. Unreachable for streams ingested
    /// through the routing path (validation happens when events are routed); surfaced for
    /// defence in depth.
    Apply {
        /// The shard whose flush failed.
        shard: ShardId,
        /// The underlying error.
        error: DynSldError,
    },
    /// A strict read refused to serve because the named shard is quarantined after a torn
    /// flush panic: its contribution to the merged view is the last state it published
    /// *before* the panic. Non-strict reads ([`ReadHandle::snapshot`]) keep serving that
    /// stale-flagged view; recover the shard with [`ClusterService::recover_shard`].
    ShardQuarantined {
        /// The quarantined shard.
        shard: ShardId,
    },
    /// The durability layer (WAL append/sync, checkpoint write, or recovery) hit an I/O
    /// error or unrecoverable corruption. In-memory state is intact, but crash durability
    /// can no longer be guaranteed past this point.
    Durability {
        /// What the durable layer was doing and what went wrong.
        detail: String,
    },
}

impl ServiceError {
    pub(super) fn durability(context: &str, error: DurableError) -> Self {
        ServiceError::Durability {
            detail: format!("{context}: {error}"),
        }
    }

    pub(super) fn from_engine(shard: ShardId, error: EngineError) -> Self {
        match error {
            EngineError::Rejected { event, reason } => ServiceError::Rejected {
                shard,
                event,
                reason,
            },
            EngineError::Apply(error) => ServiceError::Apply { shard, error },
        }
    }
}

impl From<ConfigError> for ServiceError {
    fn from(error: ConfigError) -> Self {
        ServiceError::InvalidConfig(error)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidConfig(reason) => {
                write!(f, "invalid service configuration: {reason}")
            }
            ServiceError::Rejected {
                shard,
                event,
                reason,
            } => write!(f, "event {event:?} rejected by {shard}: {reason:?}"),
            ServiceError::Apply { shard, error } => {
                write!(f, "batch application failed on {shard}: {error}")
            }
            ServiceError::ShardQuarantined { shard } => {
                write!(
                    f,
                    "{shard} is quarantined after a flush panic; non-strict reads serve its \
                     last published epoch (stale-flagged) until recover_shard rebuilds it"
                )
            }
            ServiceError::Durability { detail } => {
                write!(f, "durability layer failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}
