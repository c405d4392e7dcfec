//! Cryptographic substrate for Snowflake, implemented from scratch.
//!
//! The paper's system rests on four cryptographic mechanisms:
//!
//! * **Hashes** — principals may be hashes of keys or of documents
//!   (`(hash md5 |…|)` in Figure 5); requests are authorized by proving that
//!   the *hash of the request* speaks for an issuer (§5.3).  We provide
//!   [`sha256()`] (the default) and [`md5()`] (for SPKI `md5` hash forms).
//! * **Signatures** — signed certificates are the leaves of every proof
//!   (§4.3).  The paper used 1024-bit RSA; this reproduction uses Schnorr
//!   signatures over a prime-order subgroup ([`schnorr`]), which preserves
//!   the cost asymmetry the measurements depend on (expensive public-key
//!   operations vs. cheap hashing).
//! * **Key exchange** — the ssh-like secure channel of §5.1 derives a
//!   session key with Diffie–Hellman ([`dh`]) over the same group.
//! * **Symmetric protection** — channel records are encrypted with
//!   [`chacha20`] and authenticated with [`hmac`]; the MAC-amortized signed
//!   request protocol of §5.3.1 uses HMAC as its message authentication code.
//!
//! No external cryptography crates are used anywhere in the workspace;
//! entropy comes straight from the operating system (`/dev/urandom`),
//! keyed through a ChaCha20 stream.

pub mod chacha20;
pub mod dh;
pub mod group;
pub mod hash;
pub mod hmac;
mod key_cache;
pub mod md5;
pub mod schnorr;
pub mod seal;
pub mod sha256;

pub use dh::DhSecret;
pub use group::Group;
pub use hash::{HashAlg, HashVal};
pub use key_cache::{key_table_stats, register_metrics as register_key_table_metrics, KeyTableStats};
pub use schnorr::{KeyPair, PublicKey, Signature};
pub use seal::{open, seal, SealedBox};

pub use md5::md5;
pub use sha256::sha256;

/// Fills `buf` with cryptographically secure random bytes from the OS.
///
/// Reads a 32-byte seed from `/dev/urandom` once per process and expands it
/// with ChaCha20, mixing in a per-call counter. If the OS entropy device is
/// unavailable (exotic sandboxes), falls back to a seed derived from the
/// clock, the process id, and ASLR-randomized addresses, printing a warning
/// to stderr — adequate for the tests and benches this workspace runs, but
/// **not** a CSPRNG; do not trust keys generated after that warning.
pub fn rand_bytes(buf: &mut [u8]) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    static SEED: OnceLock<[u8; 32]> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);

    let seed = SEED.get_or_init(|| {
        let mut s = [0u8; 32];
        if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
            use std::io::Read;
            if f.read_exact(&mut s).is_ok() {
                return s;
            }
        }
        // Fallback entropy: clock + pid + ASLR. This is guessable; key
        // material generated from it must not be trusted, so say so loudly
        // on the only channel a library has.
        eprintln!(
            "snowflake_crypto: WARNING: /dev/urandom unavailable; falling back to \
             low-entropy clock/pid/ASLR seeding. Generated keys are NOT secure."
        );
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default();
        let mut material = Vec::new();
        material.extend_from_slice(&now.as_nanos().to_be_bytes());
        material.extend_from_slice(&std::process::id().to_be_bytes());
        material.extend_from_slice(&(rand_bytes as *const () as usize).to_be_bytes());
        let local = 0u8;
        material.extend_from_slice(&(&local as *const u8 as usize).to_be_bytes());
        sha256(&material)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&n.to_be_bytes());
    chacha20::ChaCha20::new(seed, &nonce).fill_keystream(buf);
}

/// A deterministic ChaCha20-based byte stream for reproducible tests and
/// benchmarks.
///
/// Not for production use; it exists so examples and benches produce
/// identical keys on every run.
pub struct DetRng {
    cipher: chacha20::ChaCha20,
}

impl DetRng {
    /// Creates a deterministic generator from a seed label.
    pub fn new(seed: &[u8]) -> Self {
        let key = sha256(seed);
        DetRng {
            cipher: chacha20::ChaCha20::new(&key, &[0u8; 12]),
        }
    }

    /// Fills `buf` with the next bytes of the deterministic stream.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.cipher.fill_keystream(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_deterministic() {
        let mut a = DetRng::new(b"seed");
        let mut b = DetRng::new(b"seed");
        let mut ba = [0u8; 32];
        let mut bb = [0u8; 32];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
        let mut c = DetRng::new(b"other");
        let mut bc = [0u8; 32];
        c.fill(&mut bc);
        assert_ne!(ba, bc);
    }

    #[test]
    fn os_rng_fills() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        rand_bytes(&mut a);
        rand_bytes(&mut b);
        assert_ne!(a, b, "two 256-bit draws colliding is vanishingly unlikely");
    }
}
