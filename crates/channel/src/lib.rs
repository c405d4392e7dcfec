//! Request channels (paper §5).
//!
//! "When a client makes a request of a server, the server needs some
//! mechanism to ensure that the client really uttered the request."  This
//! crate implements the paper's channel mechanisms and their embodiment as
//! principals:
//!
//! * [`transport`] — framed byte transports: an in-memory duplex pipe (the
//!   paper's Java "IPC" pipe) and length-prefixed TCP.
//! * [`secure`] — the ssh-like secure channel of §5.1: Diffie–Hellman key
//!   exchange signed by each end's long-term key, then an encrypted,
//!   MAC-protected record layer.  "Either end of the connection can query
//!   its socket to discover the public key associated with the opposite
//!   end."  The channel itself becomes a [`snowflake_core::Principal`], and
//!   the implementation's promise `M ⇒ K_CH ⇒ K_peer` is exported as
//!   assumption statements for the verifier.
//! * [`local`] — the trusted local channel of §5.2: within one process a
//!   trusted broker (the paper's "JVM and a few system classes") constructs
//!   key pairs, knows who holds them, and vouches for colocated endpoints,
//!   so no encryption or key exchange is needed.
//!
//! The secure channel also supports **session resumption** and an
//! **anonymous-client** mode; together these provide the SSL-like baseline
//! configurations that the paper's Figure 8 compares against.

pub mod local;
pub mod secure;
pub mod transport;

pub use local::{LocalBroker, LocalChannel};
pub use secure::{
    ChannelParts, RecordCrypto, SecureChannel, ServerHandshake, Session, SessionCache,
};
pub use transport::{PipeTransport, TcpTransport, Transport, DEFAULT_PIPE_CAPACITY};

use snowflake_core::{ChannelId, Delegation, Principal};
use snowflake_crypto::{HashVal, PublicKey};
use std::io;

/// A channel that carries frames *and* identifies itself and its peer to the
/// authorization layer.
///
/// Both the secure channel and the broker-vouched local channel implement
/// this; the RMI and HTTP layers are written against it, which is the
/// paper's "policy separated from mechanism": the same authorization toolkit
/// runs over whichever mechanism policy allows (§2.2).
pub trait AuthChannel: Send {
    /// Sends one frame.
    fn send(&mut self, msg: &[u8]) -> io::Result<()>;
    /// Receives one frame.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
    /// This channel's identity.
    fn channel_id(&self) -> ChannelId;
    /// The peer's authenticated public key, if any.
    fn peer_key(&self) -> Option<&PublicKey>;
    /// The assumption `K_CH ⇒ K_peer` this endpoint's machinery vouches.
    fn peer_binding(&self) -> Option<Delegation>;
}

impl AuthChannel for SecureChannel {
    fn send(&mut self, msg: &[u8]) -> io::Result<()> {
        SecureChannel::send(self, msg)
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        SecureChannel::recv(self)
    }
    fn channel_id(&self) -> ChannelId {
        SecureChannel::channel_id(self)
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        SecureChannel::peer_key(self)
    }
    fn peer_binding(&self) -> Option<Delegation> {
        SecureChannel::peer_binding(self)
    }
}

/// A bare session is a channel's identity without its byte path: whoever
/// holds it owns the I/O and seals and opens records with its `crypto`
/// (a reactor driver), so `send` and `recv` fail.
impl AuthChannel for Session {
    fn send(&mut self, _msg: &[u8]) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn channel_id(&self) -> ChannelId {
        self.channel_id.clone()
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        self.peer_key.as_ref()
    }
    fn peer_binding(&self) -> Option<Delegation> {
        self.peer_binding.clone()
    }
}

impl AuthChannel for LocalChannel {
    fn send(&mut self, msg: &[u8]) -> io::Result<()> {
        LocalChannel::send(self, msg)
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        LocalChannel::recv(self)
    }
    fn channel_id(&self) -> ChannelId {
        LocalChannel::channel_id(self)
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        Some(LocalChannel::peer_key(self))
    }
    fn peer_binding(&self) -> Option<Delegation> {
        Some(LocalChannel::peer_binding(self))
    }
}

/// A bare transport exposed as an (unauthenticated) channel.
///
/// Used by the "basic RMI" baseline of Figure 6: frames flow with no
/// security promises, so there is no peer key and no binding.
pub struct PlainChannel<T: Transport> {
    inner: T,
    id: ChannelId,
}

impl<T: Transport> PlainChannel<T> {
    /// Wraps a transport with a fresh anonymous channel identity.
    pub fn new(inner: T, label: &str) -> PlainChannel<T> {
        PlainChannel {
            inner,
            id: ChannelId {
                kind: "plain".into(),
                id: HashVal::of(label.as_bytes()),
            },
        }
    }
}

impl<T: Transport> AuthChannel for PlainChannel<T> {
    fn send(&mut self, msg: &[u8]) -> io::Result<()> {
        self.inner.send(msg)
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.inner.recv()
    }
    fn channel_id(&self) -> ChannelId {
        self.id.clone()
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        None
    }
    fn peer_binding(&self) -> Option<Delegation> {
        None
    }
}

/// Builds the assumption statement "message M speaks for channel CH" that a
/// server records when it witnesses `msg` arrive on `channel`.
///
/// This is the `M ⇒ K_CH` step of the paper's Figure 3 reasoning; the
/// verifier's own channel machinery vouches for it (it saw the bytes arrive)
/// so it enters the [`snowflake_core::VerifyCtx`] as a trusted assumption.
pub fn utterance(channel: &ChannelId, msg: &[u8]) -> Delegation {
    Delegation::axiom(
        Principal::Message(HashVal::of(msg)),
        Principal::Channel(channel.clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utterance_names_message_and_channel() {
        let ch = ChannelId {
            kind: "ssh".into(),
            id: HashVal::of(b"t"),
        };
        let d = utterance(&ch, b"GET /x");
        assert_eq!(d.subject, Principal::message(b"GET /x"));
        assert_eq!(d.issuer, Principal::Channel(ch));
        // Different messages yield different assumption statements.
        let d2 = utterance(
            &ChannelId {
                kind: "ssh".into(),
                id: HashVal::of(b"t"),
            },
            b"GET /y",
        );
        assert_ne!(d.hash(), d2.hash());
    }
}
