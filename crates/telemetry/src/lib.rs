//! # hg-telemetry — fleet observability for HomeGuard
//!
//! The fleet detects, mediates, caches and serves — this crate is where
//! it finally *measures*. Two pieces, std-only like the rest of the
//! service stack:
//!
//! * [`TelemetryBus`] — a bounded event bus the hot paths publish
//!   [`TelemetryEvent`]s into through a cheap `Option<Arc<TelemetryBus>>`
//!   handle. `None` is the zero-cost default. One lock covers a publish:
//!   the event is stamped, folded into the bus's registry and retained
//!   for `/events/stream` tails; overflow drops the oldest retained event
//!   and counts it, so a slow consumer costs history, never throughput
//!   and never a count.
//! * [`MetricsRegistry`] — counters, gauges, fixed-bucket histograms and
//!   the paper's fleet analytics (per-app interference table, latency
//!   splits), read through [`TelemetryBus::registry`]. Because events are
//!   folded at the publish site, totals are exact by construction: a
//!   counter read after `publish` returns includes that event.
//!   Aggregates count what this process observed and are never persisted.
//!
//! The design invariant, enforced by the differential test in
//! `tests/telemetry_differential.rs`: telemetry is a **pure observer**.
//! Attaching a bus changes no report, no trace and no snapshot bit;
//! detaching it leaves behind nothing but an un-taken measurement.

pub mod bus;
pub mod event;
pub mod metrics;

pub use bus::TelemetryBus;
pub use event::TelemetryEvent;
pub use metrics::{AppInterference, Histogram, MetricsRegistry};
