//! The Snowflake logic of authority (paper §3–§4).
//!
//! This crate implements the paper's primary contribution: a compact logic
//! of restricted delegation whose statements, principals, and structured
//! proofs give distributed systems **end-to-end authorization** — every
//! resource server can see, verify, and audit the entire chain of authority
//! that justifies a request, no matter how many administrative, network,
//! abstraction, or protocol boundaries the request crossed.
//!
//! # The pieces
//!
//! * [`Principal`] — anything that can make a statement: keys, hashes of
//!   keys or documents, named principals (`K·N`), live channels, MAC
//!   sessions, local-broker identities, and the compound *conjunction*
//!   (`A ∧ B`) and *quoting* (`B | A`) principals of Lampson et al.
//! * [`Delegation`] — the primary statement form `B =T⇒ A`, "B speaks for A
//!   regarding the statements in set T", where `T` is an authorization tag
//!   ([`snowflake_tags::Tag`]) and the validity window is part of the
//!   restriction.
//! * [`Certificate`] — a delegation signed by a key that controls the
//!   issuer; the logical assumption "a digital signature check validates
//!   `K says x`".
//! * [`Proof`] — a structured, self-describing, self-verifying proof tree.
//!   "Every message should say what it means": each node names the inference
//!   rule it applies, maps one-to-one to a verifier, and can be extracted as
//!   a reusable lemma.
//! * [`VerifyCtx`] — the verifier's local trusted state: current time,
//!   channel bindings it has itself witnessed, and revocation data.
//! * [`ProvenanceMap`] — the one revocation-guarded store every warm
//!   conclusion (memoized chain, session, cached proof, subscription)
//!   lives in, so it dies with the certificate chain that backed it.
//!
//! # Example: delegation across an administrative boundary
//!
//! ```
//! use snowflake_core::*;
//! use snowflake_crypto::{DetRng, Group, KeyPair};
//! use snowflake_tags::Tag;
//!
//! let mut rng = DetRng::new(b"doc-example");
//! let mut rb = move |b: &mut [u8]| rng.fill(b);
//! let alice = KeyPair::generate(Group::test512(), &mut rb);
//! let bob = KeyPair::generate(Group::test512(), &mut rb);
//!
//! // Alice delegates read access on /inbox to Bob, restricted and expiring.
//! let tag = Tag::parse(&snowflake_sexpr::Sexp::parse(
//!     b"(tag (web (method GET) (resourcePath (* prefix /inbox))))").unwrap()).unwrap();
//! let delegation = Delegation {
//!     subject: Principal::key(&bob.public),
//!     issuer: Principal::key(&alice.public),
//!     tag,
//!     validity: Validity::until(Time(2_000_000)),
//!     delegable: false,
//! };
//! let cert = Certificate::issue(&alice, delegation, &mut rb);
//! let proof = Proof::signed_cert(cert);
//!
//! let ctx = VerifyCtx::at(Time(1_000_000));
//! assert!(proof.verify(&ctx).is_ok());
//! ```

#![deny(missing_docs)]

pub mod audit;
mod cert;
pub mod durable;
mod memo;
mod principal;
mod proof;
mod provenance;
mod revocation;
pub mod sequence;
pub mod sync;
mod statement;
mod verify;

pub use audit::{AuditEmitter, Decision, DecisionEvent, EmitterSlot, NullEmitter};
pub use cert::Certificate;
pub use durable::{AppendLog, CrashPoint, RecoveryReport};
pub use memo::{ChainMemo, MemoStats};
pub use principal::{ChannelId, Principal};
pub use proof::{Proof, ProofError};
pub use provenance::{Epoch, ProvenanceMap};
pub use revocation::{Crl, Revalidation, RevocationPolicy, RevocationTable};
pub use sequence::Sequence;
pub use statement::{Delegation, Time, Validity};
pub use verify::{RevocationSource, VerifyCtx};

pub use snowflake_crypto::{HashAlg, HashVal};
pub use snowflake_tags::Tag;
