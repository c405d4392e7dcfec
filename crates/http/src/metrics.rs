//! The `GET /metrics` exporter surface.
//!
//! The metrics plane is a serving surface like any other: it rides the
//! reactor (bounded frames, counted sheds), and every scrape is itself
//! an audited decision on the `metrics` surface — an operator reading
//! the counters leaves the same tamper-evident trail as a client
//! reading a document.
//!
//! [`MetricsEndpoint`] is a [`Handler`] serving the Prometheus text
//! exposition format from one consistent point-in-time snapshot
//! ([`snowflake_metrics::Registry::render`]); [`serve_metrics`] is the
//! one-call production shape: a dedicated [`HttpServer`] on the reactor
//! sharing one `metrics` [`Surface`] with its endpoint, so sheds, scrape
//! decisions, and request latency all land under `surface="metrics"`
//! through the one emitter the endpoint's caller attaches.

use crate::message::{HttpRequest, HttpResponse};
use crate::server::{Handler, HttpServer};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::Time;
use snowflake_runtime::Surface;
use std::sync::Arc;

/// The content type Prometheus scrapers expect.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The path the exporter serves.
pub const METRICS_PATH: &str = "/metrics";

/// A [`Handler`] rendering the process-global
/// [`snowflake_metrics::Registry`] as the Prometheus text exposition
/// format.  GET only; every scrape (and every refused method) is
/// audited on the `metrics` surface.
pub struct MetricsEndpoint {
    surface: Arc<Surface>,
}

impl MetricsEndpoint {
    /// An endpoint over the process-global registry with wall-clock
    /// audit timestamps.
    pub fn new() -> Arc<MetricsEndpoint> {
        Self::with_clock(Time::now)
    }

    /// An endpoint with an injected clock (tests).
    pub fn with_clock(clock: fn() -> Time) -> Arc<MetricsEndpoint> {
        Arc::new(MetricsEndpoint {
            surface: Arc::new(Surface::new("metrics").with_clock(clock)),
        })
    }

    /// Attaches an audit emitter; every scrape decision — and, under
    /// [`serve_metrics`], every shed of its listener — goes through it
    /// (`surface: metrics`).
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }
}

impl Handler for MetricsEndpoint {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        if req.method != "GET" {
            self.surface.audit(|| {
                DecisionEvent::new(
                    self.surface.now(),
                    "metrics",
                    Decision::Deny,
                    METRICS_PATH,
                    &req.method,
                    "method not allowed",
                )
            });
            return HttpResponse::status(405, "Method Not Allowed", "GET only");
        }
        let body = snowflake_metrics::global().render();
        self.surface.audit(|| {
            DecisionEvent::new(
                self.surface.now(),
                "metrics",
                Decision::Grant,
                METRICS_PATH,
                "GET",
                &format!("scrape served ({} bytes)", body.len()),
            )
        });
        HttpResponse::ok(METRICS_CONTENT_TYPE, body.into_bytes())
    }
}

/// Attaches a dedicated metrics [`HttpServer`] to the runtime's reactor:
/// `GET /metrics` on `listener` serves the process-global registry, with
/// reactor-level sheds counted and audited under `surface="metrics"`
/// like every other serving surface.  Server and endpoint share one
/// surface, so the emitter attached through the returned endpoint also
/// records the listener's sheds.
pub fn serve_metrics(
    listener: std::net::TcpListener,
    runtime: &Arc<snowflake_runtime::ServerRuntime>,
    clock: fn() -> Time,
) -> std::io::Result<(snowflake_runtime::ListenerHandle, Arc<MetricsEndpoint>)> {
    let server = HttpServer::with_surface("metrics", clock);
    let endpoint = Arc::new(MetricsEndpoint {
        surface: Arc::clone(server.surface()),
    });
    server.route(METRICS_PATH, Arc::clone(&endpoint) as Arc<dyn Handler>);
    let handle = server.attach_to_reactor(listener, runtime)?;
    Ok((handle, endpoint))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_clock() -> Time {
        Time(42)
    }

    #[test]
    fn get_renders_the_global_registry() {
        snowflake_metrics::request_histogram("metrics-unit-test").record_ns(1_000);
        let ep = MetricsEndpoint::with_clock(fixed_clock);
        let req = HttpRequest::get(METRICS_PATH);
        let resp = ep.handle(&req);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Content-Type"), Some(METRICS_CONTENT_TYPE));
        let body = String::from_utf8(resp.body.clone()).unwrap();
        assert!(
            body.contains("sf_request_duration_seconds_count{surface=\"metrics-unit-test\"}"),
            "{body}"
        );
    }

    #[test]
    fn non_get_is_refused_and_audited() {
        let ep = MetricsEndpoint::with_clock(fixed_clock);
        let events: Arc<std::sync::Mutex<Vec<DecisionEvent>>> = Arc::default();
        struct Cap(Arc<std::sync::Mutex<Vec<DecisionEvent>>>);
        impl AuditEmitter for Cap {
            fn emit(&self, e: DecisionEvent) {
                self.0.lock().unwrap().push(e);
            }
        }
        ep.set_audit_emitter(Arc::new(Cap(Arc::clone(&events))));
        let mut req = HttpRequest::get(METRICS_PATH);
        req.method = "POST".into();
        let resp = ep.handle(&req);
        assert_eq!(resp.status, 405);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].surface, "metrics");
        assert_eq!(events[0].decision, Decision::Deny);
    }
}
