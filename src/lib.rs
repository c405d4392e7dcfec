//! Snowflake: end-to-end authorization (Howell & Kotz, OSDI 2000).
//!
//! This facade crate re-exports every workspace member; see the README for
//! the architecture overview and each member crate for its subsystem:
//! [`snowflake_core`] (the logic of authority), [`snowflake_prover`],
//! [`snowflake_channel`], [`snowflake_rmi`], [`snowflake_http`],
//! [`snowflake_revocation`] (live revocation: validator service,
//! freshness agent, push invalidation), [`snowflake_runtime`] (the
//! bounded worker-pool/reactor runtime every server serves from),
//! [`snowflake_audit`] (the tamper-evident decision log: hash-chained,
//! periodically signed records of every grant/deny/shed/revocation),
//! [`snowflake_broker`] (the authz-endpoint facade answering
//! path-vector allow/deny questions over HTTP, and the protected topic
//! broker where `subscribe` is a first-class authorized action
//! revalidated by revocation push),
//! [`snowflake_metrics`] (the operator-facing metrics plane: lock-free
//! counters/gauges/latency histograms in a labeled registry rendering
//! the Prometheus text format, served by `GET /metrics`),
//! [`snowflake_apps`], and the substrates [`snowflake_sexpr`],
//! [`snowflake_tags`], [`snowflake_crypto`], [`snowflake_bigint`],
//! [`snowflake_reldb`].

pub use snowflake_apps as apps;
pub use snowflake_audit as audit;
pub use snowflake_bigint as bigint;
pub use snowflake_broker as broker;
pub use snowflake_channel as channel;
pub use snowflake_core as core;
pub use snowflake_crypto as crypto;
pub use snowflake_http as http;
pub use snowflake_metrics as metrics;
pub use snowflake_prover as prover;
pub use snowflake_reldb as reldb;
pub use snowflake_revocation as revocation;
pub use snowflake_rmi as rmi;
pub use snowflake_runtime as runtime;
pub use snowflake_sexpr as sexpr;
pub use snowflake_tags as tags;
