//! Discrete-event simulator of cloud-hosted deep-learning inference serving.
//!
//! This crate is the substrate that stands in for the paper's AWS EC2 testbed. It provides:
//!
//! * the **instance catalog** ([`instance`]) — the eight EC2 instance types of Table 2 with
//!   their categories, sizes and on-demand hourly prices;
//! * **probability distributions** implemented from scratch ([`dist`]) — exponential
//!   inter-arrival times (Poisson process), log-normal / heavy-tail log-normal / Gaussian /
//!   uniform batch-size distributions, exactly the workload shapes the paper evaluates;
//! * **query streams** ([`query`]) — reproducible, seeded streams of `(arrival time, batch
//!   size)` pairs, with load-scaling support for the Fig. 16 experiments;
//! * the **FCFS pool simulator** ([`sim`]) — queries are served first-come-first-serve by the
//!   first available instance following the pool's type order, as described in Sec. 5.1,
//!   dispatched in O(log N) per query by the min-tree slot queue every serving path shares
//!   (see the [`sim`] module docs), with a lean aggregate-statistics fast path
//!   ([`simulate_stats`]), held to the O(Q·N) reference scan of
//!   `tests/simulator_differential.rs`;
//! * **metrics** ([`metrics`]) — mean/percentile latency, QoS satisfaction rate, throughput,
//!   and cost accounting;
//! * **phased traffic** ([`phased`]) — piecewise-constant (diurnal / spike / ramp / step)
//!   arrival schedules and duration-bounded stream generation for time-varying scenarios;
//! * the **online serving runtime** ([`streaming`]) — a resumable query-by-query simulator
//!   emitting sliding-window [`WindowStats`] with mid-stream [`StreamingSim::reconfigure`]
//!   (drain/retire + per-type spin-up) and exact per-instance cost accounting, bit-identical
//!   to [`simulate`] while no reconfiguration occurs;
//! * the **fleet router** ([`router`]) — multi-model serving on one jointly-provisioned
//!   pool: per-model dedicated lanes plus a shared slice with availability-based
//!   weighted routing, per-model windowed monitoring, and per-model-slice
//!   reconfiguration;
//! * the **parallel engine** ([`parallel`]) — an order-preserving, deterministic parallel map
//!   over OS threads that every batch evaluation in the workspace funnels through.
//!
//! The mapping from `(instance type, model, batch size)` to a service time is *not* part of
//! this crate: it is abstracted behind the [`latency::LatencyModel`] trait and implemented by
//! `ribbon-models`, which holds the calibrated synthetic profiles.

pub mod catalog;
mod dispatch;
pub mod dist;
pub mod error;
pub mod instance;
pub mod latency;
pub mod metrics;
pub mod parallel;
pub mod phased;
pub mod query;
pub mod router;
pub mod sharded;
pub mod sim;
pub mod streaming;
pub mod tier;
mod window;

pub use catalog::{Catalog, CatalogEntry, VariantCatalog, VariantEntry};
pub use error::ConfigError;
pub use instance::{InstanceCategory, InstanceType, PoolSpec, ALL_INSTANCE_TYPES};
pub use latency::LatencyModel;
pub use metrics::{
    CostModel, DeadlinePolicy, MeanLatencyPolicy, QosEvidence, QosPolicy, QosTarget, SimSummary,
};
pub use phased::{PhasedArrivalProcess, PhasedQueryStream, PhasedStreamConfig, RatePhase};
pub use query::{Query, QueryStream, StreamConfig};
pub use router::{
    merge_tagged, merge_tagged_slices, FleetModelConfig, FleetSim, SharedServer, TaggedQuery,
    VariantPolicy, VariantSwitch,
};
pub use sharded::{
    partition_groups, simulate_fleet_serial, simulate_fleet_sharded, tag_tier, tier_assigners,
    FleetRunOutcome,
};
pub use sim::{simulate, simulate_stats, SimResult, SimStats};
pub use streaming::{
    cost_from_billing, Reconfiguration, SlotBilling, StreamingSim, StreamingSimConfig, TierPush,
    WindowConfig, WindowStats,
};
pub use tier::{AdmissionClass, TierAssigner, TierSet, TierSpec, TierTotals, TierWindowStats};
