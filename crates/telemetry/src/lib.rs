//! # hg-telemetry — fleet observability for HomeGuard
//!
//! The fleet detects, mediates, caches and serves — this crate is where
//! it finally *measures*. Three pieces, std-only like the rest of the
//! service stack:
//!
//! * [`TelemetryBus`] — a bounded, lock-sharded event bus the hot paths
//!   publish [`TelemetryEvent`]s into through a cheap
//!   `Option<Arc<TelemetryBus>>` handle. `None` is the zero-cost default;
//!   overflow drops the oldest event and counts it, so a slow consumer
//!   costs history, never throughput.
//! * [`MetricsRegistry`] — counters, gauges, fixed-bucket histograms and
//!   the paper's fleet analytics (per-app interference table, latency
//!   splits), folded in off the hot path. Aggregates count what this
//!   process observed and are never persisted.
//! * [`TelemetryHub`] — bus + registry + the collector thread between
//!   them, with a [`sync`](TelemetryHub::sync) handshake that makes
//!   scrape-time totals exact.
//!
//! The design invariant, enforced by the differential test in
//! `tests/telemetry_differential.rs`: telemetry is a **pure observer**.
//! Attaching a bus changes no report, no trace and no snapshot bit;
//! detaching it leaves behind nothing but an un-taken measurement.

pub mod bus;
pub mod event;
pub mod hub;
pub mod metrics;

pub use bus::TelemetryBus;
pub use event::TelemetryEvent;
pub use hub::TelemetryHub;
pub use metrics::{AppInterference, Histogram, MetricsRegistry};
