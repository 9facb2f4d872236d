//! The `server.*` metric schema reported by `semitri-server`.
//!
//! Like [`MetricsObserver`](crate::MetricsObserver) for the `stage.*`
//! schema, [`ServerMetrics`] pre-resolves every handle once at startup so
//! the request hot path is a handful of atomic operations, and registers
//! the full schema up front so a `/metrics` scrape shows every series
//! from the first request onward.

use crate::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Pre-resolved handles for every `server.*` metric.
pub struct ServerMetrics {
    /// `server.connections` — TCP connections accepted.
    pub connections: Arc<Counter>,
    /// `server.requests` — HTTP requests parsed (any endpoint).
    pub requests: Arc<Counter>,
    /// `server.responses_2xx` — successful responses written.
    pub responses_2xx: Arc<Counter>,
    /// `server.responses_4xx` — client-error responses written.
    pub responses_4xx: Arc<Counter>,
    /// `server.responses_5xx` — server-error responses written (includes
    /// panics caught at the request boundary).
    pub responses_5xx: Arc<Counter>,
    /// `server.request_secs` — wall-clock latency per request, all
    /// endpoints.
    pub request_secs: Arc<Histogram>,
    /// `server.annotate_secs` — wall-clock latency of `POST /annotate`
    /// bodies only (parse + pipeline + encode).
    pub annotate_secs: Arc<Histogram>,
    /// `server.phase.parse_secs` — wall-clock time to check a
    /// `/annotate` or session-push body as UTF-8 and parse its JSON
    /// lines, one sample per such request, malformed bodies included.
    pub parse_secs: Arc<Histogram>,
    /// `server.sessions` — live streaming sessions right now.
    pub sessions: Arc<Gauge>,
    /// `server.sessions_opened` — sessions created by a first push.
    pub sessions_opened: Arc<Counter>,
    /// `server.sessions_flushed` — sessions ended by an explicit flush.
    pub sessions_flushed: Arc<Counter>,
    /// `server.sessions_evicted` — sessions dropped by LRU pressure.
    pub sessions_evicted: Arc<Counter>,
    /// `server.evicted_records` — accepted records that were inside
    /// sessions when LRU pressure closed them (their final episodes are
    /// annotated at eviction, not dropped).
    pub evicted_records: Arc<Counter>,
    /// `server.backpressure_rejections` — pushes refused because a queue
    /// bound was hit (HTTP 429).
    pub backpressure_rejections: Arc<Counter>,
    /// `server.generation` — id of the snapshot generation currently
    /// serving reads (bumps on every `/admin/update` publish).
    pub generation: Arc<Gauge>,
    /// `server.updates_applied` — mutations folded into published
    /// generations over the server's lifetime.
    pub updates_applied: Arc<Counter>,
}

impl ServerMetrics {
    /// Every counter/gauge name in the schema, in report order.
    pub const COUNTERS_AND_GAUGES: [&'static str; 13] = [
        "server.connections",
        "server.requests",
        "server.responses_2xx",
        "server.responses_4xx",
        "server.responses_5xx",
        "server.sessions",
        "server.sessions_opened",
        "server.sessions_flushed",
        "server.sessions_evicted",
        "server.evicted_records",
        "server.backpressure_rejections",
        "server.generation",
        "server.updates_applied",
    ];

    /// Every histogram name in the schema.
    pub const HISTOGRAMS: [&'static str; 3] = [
        "server.request_secs",
        "server.annotate_secs",
        "server.phase.parse_secs",
    ];

    /// Resolves (and thereby registers) every `server.*` metric in
    /// `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            connections: registry.counter("server.connections"),
            requests: registry.counter("server.requests"),
            responses_2xx: registry.counter("server.responses_2xx"),
            responses_4xx: registry.counter("server.responses_4xx"),
            responses_5xx: registry.counter("server.responses_5xx"),
            request_secs: registry.histogram("server.request_secs"),
            annotate_secs: registry.histogram("server.annotate_secs"),
            parse_secs: registry.histogram("server.phase.parse_secs"),
            sessions: registry.gauge("server.sessions"),
            sessions_opened: registry.counter("server.sessions_opened"),
            sessions_flushed: registry.counter("server.sessions_flushed"),
            sessions_evicted: registry.counter("server.sessions_evicted"),
            evicted_records: registry.counter("server.evicted_records"),
            backpressure_rejections: registry.counter("server.backpressure_rejections"),
            generation: registry.gauge("server.generation"),
            updates_applied: registry.counter("server.updates_applied"),
        }
    }

    /// Classifies a response status code into the 2xx/4xx/5xx counters
    /// (other classes are counted as 5xx — the server never emits them).
    pub fn count_response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_registers_up_front() {
        let registry = MetricsRegistry::new();
        let _m = ServerMetrics::new(&registry);
        let snap = registry.snapshot();
        for name in ServerMetrics::COUNTERS_AND_GAUGES {
            let present = snap.counters.contains_key(name) || snap.gauges.contains_key(name);
            assert!(present, "{name} not pre-registered");
        }
        for name in ServerMetrics::HISTOGRAMS {
            assert!(snap.histogram(name).is_some(), "{name} not pre-registered");
        }
    }

    #[test]
    fn response_classes_route_to_the_right_counter() {
        let registry = MetricsRegistry::new();
        let m = ServerMetrics::new(&registry);
        m.count_response(200);
        m.count_response(204);
        m.count_response(404);
        m.count_response(429);
        m.count_response(500);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.responses_2xx"), 2);
        assert_eq!(snap.counter("server.responses_4xx"), 2);
        assert_eq!(snap.counter("server.responses_5xx"), 1);
    }

    #[test]
    fn session_gauge_tracks_open_and_close() {
        let registry = MetricsRegistry::new();
        let m = ServerMetrics::new(&registry);
        m.sessions.add(1);
        m.sessions_opened.inc();
        m.sessions.add(1);
        m.sessions_opened.inc();
        m.sessions.add(-1);
        m.sessions_flushed.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.sessions_opened"), 2);
        assert_eq!(snap.counter("server.sessions_flushed"), 1);
        assert_eq!(snap.gauges["server.sessions"], 1);
    }
}
