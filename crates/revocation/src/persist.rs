//! Durable validator state: the CRL serial high-water mark and the
//! revoked set.
//!
//! The serial is a **monotonicity promise**: verifiers treat a CRL with a
//! higher serial as strictly newer, so a validator that restarted with an
//! amnesiac serial counter could sign a "fresh" list that omits a
//! revocation an older, higher-serialed list carried — and every cache
//! would prefer the stale one.  [`ValidatorStore`] therefore persists the
//! serial **before** it is used in a signature (write-ahead), and
//! [`ValidatorStore::advance`] refuses any serial at or below the
//! persisted high-water mark: a restarted validator can never re-sign the
//! past.
//!
//! The store is a reldb [`DurableDatabase`] with two tables: `crl_serial`
//! (one row per serial ever advanced to) and `revoked` (one row per
//! revoked certificate hash).  It therefore has the WAL's recovery
//! contract: a torn final frame (the write the crash interrupted) is
//! truncated on open; damage anywhere else is corruption and fails the
//! open — it never comes back with a lower serial.

use snowflake_core::durable::{CrashPoint, RecoveryReport};
use snowflake_crypto::HashVal;
use snowflake_reldb::{ColumnType, Database, DurableDatabase, Predicate, Schema, Value};
use snowflake_sexpr::Sexp;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Write-ahead persistence for one validator's revocation authority.
pub struct ValidatorStore {
    db: DurableDatabase,
    serial: u64,
    revoked: BTreeSet<HashVal>,
}

fn schema(db: &mut Database) {
    db.create_table("crl_serial", Schema::new(&[("serial", ColumnType::Int)]));
    db.create_table("revoked", Schema::new(&[("cert", ColumnType::Bytes)]));
}

impl ValidatorStore {
    /// Opens (creating or recovering) the store rooted at `path`: its WAL
    /// is `path.with_extension("wal")`.
    pub fn open(path: impl Into<PathBuf>) -> Result<ValidatorStore, String> {
        Self::with_crash_point(path, CrashPoint::inert())
    }

    /// [`ValidatorStore::open`] with a fault-injection hook threaded
    /// through every durable write (the crash harness).
    pub fn with_crash_point(
        path: impl Into<PathBuf>,
        crash: CrashPoint,
    ) -> Result<ValidatorStore, String> {
        let db = DurableDatabase::open_with_crash_point(path, schema, crash)
            .map_err(|e| e.to_string())?;
        let rows = |table: &str| {
            db.database()
                .table(table)
                .and_then(|t| t.select(&Predicate::True, &[]))
                .map_err(|e| e.to_string())
        };
        // Serials are stored as the i64 with the same bits.
        let serial = rows("crl_serial")?
            .iter()
            .filter_map(|r| match r[..] {
                [Value::Int(n)] => Some(n as u64),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let revoked = rows("revoked")?
            .iter()
            .map(|r| match &r[..] {
                [Value::Bytes(b)] => Sexp::parse(b)
                    .and_then(|e| HashVal::from_sexp(&e))
                    .map_err(|e| format!("bad revoked hash: {e}")),
                _ => Err("bad revoked row".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(ValidatorStore {
            db,
            serial,
            revoked,
        })
    }

    /// The highest CRL serial ever persisted (0 before the first).
    pub fn serial_high_water(&self) -> u64 {
        self.serial
    }

    /// The persisted revoked set.
    pub fn revoked(&self) -> &BTreeSet<HashVal> {
        &self.revoked
    }

    /// What the most recent open recovered.
    pub fn recovery(&self) -> RecoveryReport {
        self.db.recovery()
    }

    /// Persists `serial` as the new high-water mark — **before** anything
    /// is signed with it.  Refuses a serial at or below the mark: that is
    /// the monotonicity the verifiers' "higher serial wins" rule depends
    /// on.
    pub fn advance(&mut self, serial: u64) -> Result<(), String> {
        if serial <= self.serial {
            return Err(format!(
                "serial {serial} not above persisted high-water mark {}",
                self.serial
            ));
        }
        self.db
            .insert("crl_serial", vec![Value::Int(serial as i64)])
            .map_err(|e| e.to_string())?;
        self.serial = serial;
        Ok(())
    }

    /// Persists one revoked certificate hash (idempotent).
    pub fn record_revoked(&mut self, cert_hash: &HashVal) -> Result<(), String> {
        if self.revoked.contains(cert_hash) {
            return Ok(());
        }
        self.db
            .insert(
                "revoked",
                vec![Value::bytes(cert_hash.to_sexp().canonical())],
            )
            .map_err(|e| e.to_string())?;
        self.revoked.insert(cert_hash.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_reldb::wal::encode_frame;
    use snowflake_reldb::WalOp;

    /// A fresh store path whose WAL is the path itself (`<name>.wal`).
    fn store_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sf-valstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).with_extension("wal");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn state_survives_reopen() {
        let path = store_path("reopen");
        {
            let mut s = ValidatorStore::open(&path).unwrap();
            s.advance(1).unwrap();
            s.record_revoked(&HashVal::of(b"dead")).unwrap();
            s.advance(2).unwrap();
        }
        let s = ValidatorStore::open(&path).unwrap();
        assert_eq!(s.serial_high_water(), 2);
        assert!(s.revoked().contains(&HashVal::of(b"dead")));
        assert_eq!(s.recovery().replayed, 3);
    }

    #[test]
    fn advance_refuses_non_monotonic_serials() {
        let path = store_path("monotonic");
        let mut s = ValidatorStore::open(&path).unwrap();
        s.advance(5).unwrap();
        assert!(s.advance(5).is_err());
        assert!(s.advance(4).is_err());
        s.advance(6).unwrap();
        // …and the refusal survives a restart.
        drop(s);
        let mut s = ValidatorStore::open(&path).unwrap();
        assert!(s.advance(6).is_err());
        s.advance(7).unwrap();
    }

    #[test]
    fn crash_at_every_byte_of_an_advance_is_pre_or_post() {
        // The exact frame advance(3) writes: the third WAL record.
        let line_len = encode_frame(
            2,
            &WalOp::Insert {
                table: "crl_serial".into(),
                row: vec![Value::Int(3)],
            },
        )
        .len();
        for cut in 0..=line_len {
            let path = store_path(&format!("crash-{cut}"));
            {
                let mut s = ValidatorStore::open(&path).unwrap();
                s.advance(1).unwrap();
                s.advance(2).unwrap();
            }
            {
                let mut s =
                    ValidatorStore::with_crash_point(&path, CrashPoint::after_bytes(cut as u64))
                        .unwrap();
                let r = s.advance(3);
                assert_eq!(r.is_err(), cut < line_len, "cut {cut}");
            }
            let s = ValidatorStore::open(&path).unwrap();
            let expected = if cut < line_len { 2 } else { 3 };
            assert_eq!(s.serial_high_water(), expected, "cut {cut}");
            // Either way the next signable serial is above everything
            // that could have been signed before the crash.
            assert!(s.serial_high_water() >= 2);
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_durable() {
        let path = store_path("torn");
        {
            let mut s = ValidatorStore::open(&path).unwrap();
            s.advance(1).unwrap();
            s.record_revoked(&HashVal::of(b"x")).unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 4]).unwrap();
        let s = ValidatorStore::open(&path).unwrap();
        assert_eq!(s.serial_high_water(), 1);
        assert!(s.revoked().is_empty(), "torn revocation line dropped");
        assert!(s.recovery().truncated_bytes > 0);
        let s = ValidatorStore::open(&path).unwrap();
        assert_eq!(s.recovery().truncated_bytes, 0);
    }

    #[test]
    fn damage_before_the_tail_fails_the_open() {
        let path = store_path("mid-stream");
        {
            let mut s = ValidatorStore::open(&path).unwrap();
            s.advance(1).unwrap();
            s.advance(2).unwrap();
            s.advance(3).unwrap();
        }
        // Damage the first advance: two acknowledged advances follow it.
        // Truncating from there would reopen with serial 0 — a validator
        // that could re-sign serials 1..=3 — so the open must fail.
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        assert!(ValidatorStore::open(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), data, "nothing truncated");
    }
}
