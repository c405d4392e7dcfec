//! The protected relational email database (paper §6.2).
//!
//! "The original database server accepts insert, update, and select
//! requests as RMI invocations on a Remote Database object … Adapting the
//! application to Snowflake required only minimal changes": every remote
//! method is guarded by the framework's `check_auth`, and the method→tag
//! mapping carries row ownership, so a delegation
//! `(db (op select) (owner alice))` lets its holder read only Alice's mail.

use snowflake_core::sync::LockExt;
use std::sync::{Arc, Mutex};
use snowflake_core::audit::AuditEmitter;
use snowflake_core::{Principal, Tag, Time};
use snowflake_reldb::{
    email_schema, rows_to_sexp, DbError, DurableDatabase, Predicate, Value,
};
use snowflake_rmi::{CallerInfo, Invocation, RemoteObject, RmiFault};
use snowflake_runtime::{Surface, Verdict};
use snowflake_sexpr::Sexp;

/// The registry name the email database object is bound to.
pub const EMAIL_DB_OBJECT: &str = "email-db";

/// The email database as a Snowflake-protected remote object.
pub struct EmailDb {
    issuer: Principal,
    db: Mutex<DurableDatabase>,
    next_id: Mutex<i64>,
    /// The `emaildb` surface: the application-level outcome of every
    /// invocation (including owner-scoped no-ops) is decided and audited
    /// on it.  The framework's `check_auth` verdict is recorded
    /// separately at the `rmi` surface.
    surface: Surface,
}

impl EmailDb {
    /// Creates an empty in-memory email database controlled by `issuer`.
    pub fn new(issuer: Principal) -> EmailDb {
        Self::with_clock(issuer, Time::now)
    }

    /// Creates an empty in-memory database with an injected clock
    /// (tests, benches).
    pub fn with_clock(issuer: Principal, clock: fn() -> Time) -> EmailDb {
        Self::mount(issuer, clock, DurableDatabase::ephemeral(email_schema))
    }

    /// Opens (creating or crash-recovering) a durable email database
    /// rooted at `base` (WAL at `<base>.wal`, snapshots at `<base>.snap`):
    /// the mailstore itself survives a process death.
    pub fn open_durable(
        issuer: Principal,
        clock: fn() -> Time,
        base: impl Into<std::path::PathBuf>,
    ) -> Result<EmailDb, DbError> {
        Ok(Self::mount(
            issuer,
            clock,
            DurableDatabase::open(base, email_schema)?,
        ))
    }

    fn mount(issuer: Principal, clock: fn() -> Time, db: DurableDatabase) -> EmailDb {
        // Message ids must keep ascending across restarts: resume above
        // the largest recovered id.
        let next_id = db
            .database()
            .table("messages")
            .ok()
            .and_then(|t| {
                t.select(&Predicate::True, &["id".to_string()])
                    .ok()?
                    .into_iter()
                    .filter_map(|row| match row.first() {
                        Some(Value::Int(i)) => Some(*i),
                        _ => None,
                    })
                    .max()
            })
            .map_or(1, |max| max + 1);
        EmailDb {
            issuer,
            db: Mutex::new(db),
            next_id: Mutex::new(next_id),
            surface: Surface::new("emaildb").with_clock(clock),
        }
    }

    /// Snapshots the live tables and truncates the WAL (bounding replay
    /// time after the next restart).  A no-op for in-memory databases.
    pub fn compact(&self) -> Result<(), DbError> {
        self.db.plock().compact()
    }

    /// Attaches an audit emitter recording application-level outcomes.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }

    /// The `emaildb` surface outcomes are decided and audited on.
    pub fn surface(&self) -> &Surface {
        &self.surface
    }

    /// The restriction tag for an operation on an owner's mail — what the
    /// database owner delegates to users (and users re-delegate to
    /// gateways).
    pub fn op_tag(op: &str, owner: &str) -> Tag {
        Tag::named(
            "db",
            vec![
                Tag::named("op", vec![Tag::atom(op)]),
                Tag::named("owner", vec![Tag::atom(owner)]),
            ],
        )
    }

    /// The tag covering *all* operations on one owner's mail.
    pub fn owner_tag(owner: &str) -> Tag {
        Tag::named(
            "db",
            vec![Tag::Star, Tag::named("owner", vec![Tag::atom(owner)])],
        )
    }

    fn owner_arg(invocation: &Invocation) -> Result<String, RmiFault> {
        invocation
            .args
            .first()
            .and_then(Sexp::as_str)
            .map(str::to_string)
            .ok_or_else(|| RmiFault::Application("first argument must be the owner".into()))
    }

    fn select(&self, owner: &str, folder: Option<&str>) -> Result<Sexp, RmiFault> {
        let mut pred = Predicate::eq("owner", Value::text(owner));
        if let Some(f) = folder {
            pred = Predicate::and(pred, Predicate::eq("folder", Value::text(f)));
        }
        let db = self.db.plock();
        let rows = db
            .database()
            .table("messages")
            .and_then(|t| t.select(&pred, &[]))
            .map_err(|e| RmiFault::Application(e.to_string()))?;
        Ok(rows_to_sexp(&rows))
    }

    fn insert(&self, owner: &str, args: &[Sexp]) -> Result<Sexp, RmiFault> {
        let field = |i: usize, name: &str| -> Result<String, RmiFault> {
            args.get(i)
                .and_then(Sexp::as_str)
                .map(str::to_string)
                .ok_or_else(|| RmiFault::Application(format!("missing {name}")))
        };
        let sender = field(1, "sender")?;
        let subject = field(2, "subject")?;
        let body = field(3, "body")?;
        let folder = field(4, "folder")?;
        let id = {
            let mut n = self.next_id.plock();
            let id = *n;
            *n += 1;
            id
        };
        let mut db = self.db.plock();
        db.insert(
            "messages",
            vec![
                Value::Int(id),
                Value::text(owner),
                Value::text(sender),
                Value::text(subject),
                Value::text(body),
                Value::text(folder),
                Value::Bool(true),
            ],
        )
        .map_err(|e| RmiFault::Application(e.to_string()))?;
        Ok(Sexp::int(id as u64))
    }

    fn mark_read(&self, owner: &str, args: &[Sexp]) -> Result<Sexp, RmiFault> {
        let id = args
            .get(1)
            .and_then(Sexp::as_u64)
            .ok_or_else(|| RmiFault::Application("missing message id".into()))?;
        let pred = Predicate::and(
            Predicate::eq("owner", Value::text(owner)),
            Predicate::eq("id", Value::Int(id as i64)),
        );
        let mut db = self.db.plock();
        let n = db
            .update(
                "messages",
                &pred,
                &[("unread".to_string(), Value::Bool(false))],
            )
            .map_err(|e| RmiFault::Application(e.to_string()))?;
        Ok(Sexp::int(n as u64))
    }

    fn delete(&self, owner: &str, args: &[Sexp]) -> Result<Sexp, RmiFault> {
        let id = args
            .get(1)
            .and_then(Sexp::as_u64)
            .ok_or_else(|| RmiFault::Application("missing message id".into()))?;
        let pred = Predicate::and(
            Predicate::eq("owner", Value::text(owner)),
            Predicate::eq("id", Value::Int(id as i64)),
        );
        let mut db = self.db.plock();
        let n = db
            .delete("messages", &pred)
            .map_err(|e| RmiFault::Application(e.to_string()))?;
        Ok(Sexp::int(n as u64))
    }
}

impl RemoteObject for EmailDb {
    fn issuer(&self) -> Principal {
        self.issuer.clone()
    }

    /// `(db (op <method>) (owner <owner-arg>))` — ownership is part of the
    /// restriction, so authorization is row-scoped end to end.
    fn restriction(&self, invocation: &Invocation) -> Tag {
        let owner = invocation
            .args
            .first()
            .and_then(Sexp::as_str)
            .unwrap_or("<missing>");
        Self::op_tag(&invocation.method, owner)
    }

    fn invoke(&self, invocation: &Invocation, caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        // Even a malformed invocation (no owner argument) is an
        // application-level outcome and must reach the trail, so the
        // owner parse failure flows into the audited result below.
        let owner = Self::owner_arg(invocation);
        let object = match &owner {
            Ok(owner) => format!("{EMAIL_DB_OBJECT}/{owner}"),
            Err(_) => EMAIL_DB_OBJECT.to_string(),
        };
        self.surface.decide(&object, &invocation.method, |_| {
            let result = match (&owner, invocation.method.as_str()) {
                (Err(f), _) => Err(f.clone()),
                (Ok(owner), "select") => {
                    let folder = invocation.args.get(1).and_then(Sexp::as_str);
                    self.select(owner, folder)
                }
                (Ok(owner), "insert") => self.insert(owner, &invocation.args),
                (Ok(owner), "mark_read") => self.mark_read(owner, &invocation.args),
                (Ok(owner), "delete") => self.delete(owner, &invocation.args),
                (Ok(_), other) => Err(RmiFault::NoSuchMethod(other.into())),
            };
            let verdict = match &result {
                Ok(_) => Verdict::grant("row-scoped operation applied"),
                Err(f) => Verdict::deny(format!("{f:?}")),
            };
            (verdict.subject(caller.speaker.clone()), result)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::ChannelId;
    use snowflake_crypto::HashVal;
    use snowflake_reldb::rows_from_sexp;

    fn caller() -> CallerInfo {
        CallerInfo {
            speaker: Principal::message(b"test-speaker"),
            channel: ChannelId {
                kind: "test".into(),
                id: HashVal::of(b"ch"),
            },
        }
    }

    fn inv(method: &str, args: Vec<Sexp>) -> Invocation {
        Invocation {
            object: EMAIL_DB_OBJECT.into(),
            method: method.into(),
            args,
            quoting: None,
        }
    }

    #[test]
    fn insert_select_roundtrip() {
        let db = EmailDb::new(Principal::message(b"dbkey"));
        let c = caller();
        db.invoke(
            &inv(
                "insert",
                vec![
                    Sexp::from("alice"),
                    Sexp::from("bob"),
                    Sexp::from("lunch"),
                    Sexp::from("noon?"),
                    Sexp::from("inbox"),
                ],
            ),
            &c,
        )
        .unwrap();
        db.invoke(
            &inv(
                "insert",
                vec![
                    Sexp::from("bob"),
                    Sexp::from("alice"),
                    Sexp::from("re: lunch"),
                    Sexp::from("sure"),
                    Sexp::from("inbox"),
                ],
            ),
            &c,
        )
        .unwrap();

        // Alice's select sees only Alice's mail.
        let out = db
            .invoke(&inv("select", vec![Sexp::from("alice")]), &c)
            .unwrap();
        let rows = rows_from_sexp(&out).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], snowflake_reldb::Value::text("alice"));
    }

    #[test]
    fn mark_read_and_delete_scoped_to_owner() {
        let db = EmailDb::new(Principal::message(b"dbkey"));
        let c = caller();
        let id = db
            .invoke(
                &inv(
                    "insert",
                    vec![
                        Sexp::from("alice"),
                        Sexp::from("bob"),
                        Sexp::from("s"),
                        Sexp::from("b"),
                        Sexp::from("inbox"),
                    ],
                ),
                &c,
            )
            .unwrap()
            .as_u64()
            .unwrap();

        // Bob cannot mark Alice's message (owner mismatch → 0 rows).
        let n = db
            .invoke(
                &inv("mark_read", vec![Sexp::from("bob"), Sexp::int(id)]),
                &c,
            )
            .unwrap();
        assert_eq!(n.as_u64(), Some(0));
        // Alice can.
        let n = db
            .invoke(
                &inv("mark_read", vec![Sexp::from("alice"), Sexp::int(id)]),
                &c,
            )
            .unwrap();
        assert_eq!(n.as_u64(), Some(1));
        // Delete likewise.
        let n = db
            .invoke(&inv("delete", vec![Sexp::from("alice"), Sexp::int(id)]), &c)
            .unwrap();
        assert_eq!(n.as_u64(), Some(1));
    }

    #[test]
    fn restriction_carries_owner() {
        let db = EmailDb::new(Principal::message(b"dbkey"));
        let t = db.restriction(&inv("select", vec![Sexp::from("alice")]));
        assert_eq!(t, EmailDb::op_tag("select", "alice"));
        // The all-ops owner grant covers each specific op.
        assert!(EmailDb::owner_tag("alice").permits(&EmailDb::op_tag("select", "alice")));
        assert!(EmailDb::owner_tag("alice").permits(&EmailDb::op_tag("insert", "alice")));
        assert!(!EmailDb::owner_tag("alice").permits(&EmailDb::op_tag("select", "bob")));
    }

    /// A durable mailstore survives a "restart" (drop + reopen from
    /// disk): messages persist, and ids keep ascending rather than
    /// restarting from 1 and colliding.
    #[test]
    fn durable_mailstore_survives_reopen_with_ascending_ids() {
        let dir = std::env::temp_dir().join(format!("sf-emaildb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("mail");
        for ext in ["wal", "snap", "snap.tmp"] {
            let _ = std::fs::remove_file(base.with_extension(ext));
        }
        let c = caller();
        let msg = |sub: &str| {
            inv(
                "insert",
                vec![
                    Sexp::from("alice"),
                    Sexp::from("bob"),
                    Sexp::from(sub),
                    Sexp::from("body"),
                    Sexp::from("inbox"),
                ],
            )
        };
        let first_id = {
            let db =
                EmailDb::open_durable(Principal::message(b"dbkey"), Time::now, &base).unwrap();
            db.invoke(&msg("one"), &c).unwrap().as_u64().unwrap()
        };
        let db = EmailDb::open_durable(Principal::message(b"dbkey"), Time::now, &base).unwrap();
        let second_id = db.invoke(&msg("two"), &c).unwrap().as_u64().unwrap();
        assert!(second_id > first_id, "ids ascend across restarts");
        let out = db
            .invoke(&inv("select", vec![Sexp::from("alice")]), &c)
            .unwrap();
        assert_eq!(rows_from_sexp(&out).unwrap().len(), 2, "both survived");
        db.compact().unwrap();
        // Post-compaction restart recovers from the snapshot.
        let db = EmailDb::open_durable(Principal::message(b"dbkey"), Time::now, &base).unwrap();
        let out = db
            .invoke(&inv("select", vec![Sexp::from("alice")]), &c)
            .unwrap();
        assert_eq!(rows_from_sexp(&out).unwrap().len(), 2);
    }

    #[test]
    fn unknown_method_faults() {
        let db = EmailDb::new(Principal::message(b"dbkey"));
        let r = db.invoke(&inv("truncate", vec![Sexp::from("alice")]), &caller());
        assert!(matches!(r, Err(RmiFault::NoSuchMethod(_))));
        let r = db.invoke(&inv("select", vec![]), &caller());
        assert!(matches!(r, Err(RmiFault::Application(_))));
    }
}
