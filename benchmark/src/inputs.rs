//! Everything generated from `--seed`: keys, documents, grants, mail and
//! the bundle of public bytes the server child is started with.  The same
//! seed gives the same inputs; the child never sees the seed or a secret
//! key of an owner, only the bundle.

use snowflake::broker::subject_principal;
use snowflake::core::{Certificate, Delegation, Principal, Proof, Tag, Time, Validity};
use snowflake::crypto::{DetRng, Group, KeyPair};
use snowflake::sexpr::Sexp;
use snowflake::tags::path_vector::{grant_tag, PathPattern};

/// One clock for parent and child, so that certificates, request bytes and
/// `wire_bytes_per_op` repeat exactly for a seed.
pub fn fixed_clock() -> Time {
    Time(1_000_000)
}

pub type BoxRng = Box<dyn FnMut(&mut [u8]) + Send>;

pub fn rng(seed: u64, label: &str) -> DetRng {
    DetRng::new(format!("sfbench/{seed}/{label}").as_bytes())
}

pub fn boxed_rng(seed: u64, label: &str) -> BoxRng {
    let mut r = rng(seed, label);
    Box::new(move |b: &mut [u8]| r.fill(b))
}

pub fn keypair(seed: u64, label: &str) -> KeyPair {
    let mut r = rng(seed, label);
    KeyPair::generate(Group::test512(), &mut |b| r.fill(b))
}

/// A uniform index below `n` from a generator.
pub fn below(r: &mut DetRng, n: usize) -> usize {
    let mut b = [0u8; 8];
    r.fill(&mut b);
    (u64::from_le_bytes(b) % n as u64) as usize
}

fn issue(signer: &KeyPair, delegation: Delegation, r: &mut DetRng) -> Proof {
    Proof::signed_cert(Certificate::issue(signer, delegation, &mut |b| r.fill(b)))
}

// ---------------------------------------------------------------- web ----

pub const DOCS: usize = 256;
pub const DOC_BYTES: usize = 1024;
pub const WEB_SERVICE: &str = "docs";
pub const WEB_PREFIX: &str = "/docs";
/// Client keys holding a grant to the document tree (working set 16
/// against the crypto key table's 128).
pub const WEB_CLIENT_KEYS: usize = 16;
/// MAC sessions (64 against the store's 16 shards).
pub const MAC_SESSIONS: usize = 64;

pub fn doc_path(k: usize) -> String {
    format!("{WEB_PREFIX}/d{k:03}.bin")
}

pub fn docs(seed: u64) -> Vec<Vec<u8>> {
    let mut r = rng(seed, "docs");
    (0..DOCS)
        .map(|_| {
            let mut d = vec![0u8; DOC_BYTES];
            r.fill(&mut d);
            d
        })
        .collect()
}

/// The tag the owner delegates: `GET` on everything under the tree.
pub fn web_subtree_tag() -> Tag {
    Tag::named(
        "web",
        vec![
            Tag::named("method", vec![Tag::atom("GET")]),
            Tag::named("service", vec![Tag::atom(WEB_SERVICE)]),
            Tag::named(
                "resourcePath",
                vec![Tag::Prefix(format!("{WEB_PREFIX}/").into_bytes())],
            ),
        ],
    )
}

/// One web client: its key and the owner's delegable grant to it.
pub struct WebClient {
    pub key: KeyPair,
    pub grant: Proof,
}

pub fn web_clients(seed: u64, owner: &KeyPair) -> Vec<WebClient> {
    let mut r = rng(seed, "web-grants");
    (0..WEB_CLIENT_KEYS)
        .map(|i| {
            let key = keypair(seed, &format!("web-client-{i}"));
            let grant = issue(
                owner,
                Delegation {
                    subject: Principal::key(&key.public),
                    issuer: Principal::key(&owner.public),
                    tag: web_subtree_tag(),
                    validity: Validity::always(),
                    delegable: true,
                },
                &mut r,
            );
            WebClient { key, grant }
        })
        .collect()
}

// --------------------------------------------------------------- mail ----

pub const MAILBOXES: usize = 64;
pub const MAIL_PER_BOX: usize = 8;

pub fn mailbox(k: usize) -> String {
    format!("box{k:02}")
}

/// `(sender, subject, body, folder)` of message `j` in mailbox `k`.
pub fn mail_message(seed: u64, k: usize, j: usize) -> [String; 4] {
    let mut r = rng(seed, &format!("mail-{k}-{j}"));
    let mut raw = [0u8; 96];
    r.fill(&mut raw);
    let body: String = raw.iter().map(|b| char::from(b'a' + b % 26)).collect();
    [
        format!("sender{}@example.org", (k * 7 + j) % 23),
        format!("subject-{k:02}-{j}"),
        body,
        "inbox".to_string(),
    ]
}

// ------------------------------------------------------------- broker ----

pub const OBJECT_NS: &str = "conference.example.org";
pub const SUBJECT_NS: &str = "iam.example.org";
pub const TEAMS: usize = 8;
/// Subjects (512 proofs against the chain memo's 1024 entries).
pub const SUBJECTS: usize = 512;
pub const STANDING_SUBSCRIBERS: usize = 256;

pub fn room(team: usize) -> String {
    format!("room-{team}")
}

pub fn topic(team: usize) -> [String; 3] {
    ["rooms".to_string(), room(team), "events".to_string()]
}

/// One subject: who it is, which room its team may hear, and the
/// two-certificate chain (issuer → team key → subject) proving it.
pub struct Member {
    pub account: String,
    pub principal: Principal,
    pub team: usize,
    pub proof: Proof,
}

pub fn members(seed: u64, issuer: &KeyPair) -> Vec<Member> {
    let mut r = rng(seed, "broker-grants");
    let teams: Vec<(KeyPair, Proof, Tag)> = (0..TEAMS)
        .map(|t| {
            let key = keypair(seed, &format!("team-{t}"));
            let tag = grant_tag(
                OBJECT_NS,
                &PathPattern::parse(&["rooms", &room(t), "events"]),
                &["subscribe"],
            );
            let cert = issue(
                issuer,
                Delegation {
                    subject: Principal::key(&key.public),
                    issuer: Principal::key(&issuer.public),
                    tag: tag.clone(),
                    validity: Validity::always(),
                    delegable: true,
                },
                &mut r,
            );
            (key, cert, tag)
        })
        .collect();
    (0..SUBJECTS)
        .map(|s| {
            let team = s % TEAMS;
            let (key, team_cert, tag) = &teams[team];
            let account = format!("acct-{s:04}");
            let principal =
                subject_principal(SUBJECT_NS, &["accounts".to_string(), account.clone()]);
            let member_cert = issue(
                key,
                Delegation {
                    subject: principal.clone(),
                    issuer: Principal::key(&key.public),
                    tag: tag.clone(),
                    validity: Validity::always(),
                    delegable: false,
                },
                &mut r,
            );
            Member {
                account,
                principal,
                team,
                proof: member_cert.then(team_cert.clone()),
            }
        })
        .collect()
}

// ------------------------------------------------------------- bundle ----

/// The owners' key pairs; they stay in the parent.
pub struct Owners {
    pub web: KeyPair,
    pub mail: KeyPair,
    pub broker: KeyPair,
}

impl Owners {
    pub fn generate(seed: u64) -> Owners {
        Owners {
            web: keypair(seed, "owner-web"),
            mail: keypair(seed, "owner-mail"),
            broker: keypair(seed, "owner-broker"),
        }
    }
}

/// What a server is started with: the three controlling principals, the
/// documents it serves, the delegations its prover knows, and entropy for
/// its own channel key and audit signer.
pub struct Bundle {
    pub web_issuer: Principal,
    pub mail_issuer: Principal,
    pub broker_issuer: Principal,
    pub docs: Vec<Vec<u8>>,
    pub proofs: Vec<Proof>,
    pub server_seed: u64,
}

impl Bundle {
    pub fn new(seed: u64, owners: &Owners, docs: Vec<Vec<u8>>, proofs: Vec<Proof>) -> Bundle {
        Bundle {
            web_issuer: Principal::key(&owners.web.public),
            mail_issuer: Principal::key(&owners.mail.public),
            broker_issuer: Principal::key(&owners.broker.public),
            docs,
            proofs,
            server_seed: seed,
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        Sexp::tagged(
            "bundle",
            vec![
                Sexp::tagged("web", vec![self.web_issuer.to_sexp()]),
                Sexp::tagged("mail", vec![self.mail_issuer.to_sexp()]),
                Sexp::tagged("broker", vec![self.broker_issuer.to_sexp()]),
                Sexp::tagged("seed", vec![Sexp::int(self.server_seed)]),
                Sexp::tagged(
                    "docs",
                    self.docs.iter().map(|d| Sexp::atom(d.clone())).collect(),
                ),
                Sexp::tagged("proofs", self.proofs.iter().map(Proof::to_sexp).collect()),
            ],
        )
        .canonical()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Bundle, String> {
        let e = Sexp::parse(bytes).map_err(|e| format!("bundle: {e}"))?;
        let principal = |name: &str| {
            let v = e.find_value(name).ok_or(format!("bundle: no ({name} …)"))?;
            Principal::from_sexp(v).map_err(|e| format!("bundle {name}: {e}"))
        };
        let body = |name: &str| {
            e.find(name)
                .and_then(Sexp::tag_body)
                .ok_or(format!("bundle: no ({name} …)"))
        };
        Ok(Bundle {
            web_issuer: principal("web")?,
            mail_issuer: principal("mail")?,
            broker_issuer: principal("broker")?,
            server_seed: e
                .find_value("seed")
                .and_then(Sexp::as_u64)
                .ok_or("bundle: no (seed …)")?,
            docs: body("docs")?
                .iter()
                .map(|d| {
                    d.as_atom()
                        .map(<[u8]>::to_vec)
                        .ok_or("bundle: doc is not an atom")
                })
                .collect::<Result<_, _>>()?,
            proofs: body("proofs")?
                .iter()
                .map(|p| Proof::from_sexp(p).map_err(|e| format!("bundle proof: {e}")))
                .collect::<Result<_, _>>()?,
        })
    }
}
