//! HTTP with Snowflake authorization (paper §5.3).
//!
//! "Not all applications can assume that our ssh-enhanced version of RMI is
//! available as an RPC mechanism.  Indeed, the most visible RPC mechanism on
//! the Internet is HTTP."  This crate provides:
//!
//! * [`message`] — HTTP/1.0-style request/response parsing and serialization.
//! * [`stream`] — byte-stream plumbing: an in-memory duplex stream and an
//!   adapter that runs HTTP over a framed [`snowflake_channel::AuthChannel`]
//!   (that is how the SSL-like baseline carries HTTP over the secure
//!   channel).
//! * [`auth`] — the **Snowflake Authorization** method: the server's `401`
//!   challenge carries `Sf-ServiceIssuer` and `Sf-MinimumTag` (Figure 5);
//!   the client's retry carries a proof whose subject is *the hash of the
//!   request, less the Authorization header*.  Basic and Digest
//!   authentication are provided for comparison.
//! * [`server`] — a small routing HTTP server plus [`ProtectedServlet`],
//!   the abstract servlet of §5.3.4: concrete services supply a
//!   request→issuer map and a request→minimum-restriction map, and the
//!   framework constructs challenges and verifies proofs.
//! * [`mac`] — the signed-request optimization of §5.3.1: the server sends
//!   an encrypted MAC secret; later requests authenticate with a cheap
//!   HMAC, and the MAC session is itself a principal in the end-to-end
//!   chain.
//! * [`metrics`] — the `GET /metrics` exporter surface: the process-global
//!   [`snowflake_metrics::Registry`] rendered as Prometheus text, riding
//!   the reactor with sheds counted and scrapes audited under
//!   `surface="metrics"`.
//! * [`client`] — an HTTP client and the Snowflake **proxy** of §5.3.5 that
//!   answers challenges with its Prover, maintains MAC sessions, verifies
//!   server document-authentication proofs (§5.3.3), and generates/imports
//!   delegation links.

pub mod auth;
pub mod client;
pub mod mac;
pub mod message;
pub mod metrics;
pub mod server;
pub mod stream;

pub use auth::{request_hash, request_principal, WWW_AUTH_SNOWFLAKE};
pub use client::{HttpClient, SnowflakeProxy};
pub use mac::{MacSessionStore, MAC_SESSION_PATH};
pub use message::{HttpRequest, HttpResponse};
pub use metrics::{serve_metrics, MetricsEndpoint, METRICS_CONTENT_TYPE, METRICS_PATH};
pub use server::{Handler, HttpServer, ProtectedServlet, SnowflakeService};
pub use stream::{bounded_duplex, duplex, ChannelStream, MemStream, DEFAULT_STREAM_CAPACITY};
