//! `AppendLog` under its one torn-versus-corrupt rule, for two formats.
//!
//! The log is format-agnostic, so these tests drive it with two record
//! decoders defined here: a CRC frame (`len | crc32 | payload`, the reldb
//! WAL's shape) and a checksummed line (`payload crc-hex\n`, the audit
//! segment's newline framing).  For both they prove:
//!
//! * any cut of a stream reopens to exactly its complete records, the
//!   remainder is what gets truncated, and the truncation is durable;
//! * damage to any checked byte of a non-final record fails the open and
//!   leaves the file untouched;
//! * a crash at every byte of one append leaves the pre- or post-append
//!   log.

use proptest::prelude::*;
use snowflake_core::durable::{AppendLog, CrashPoint, Record};
use std::path::PathBuf;

fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[derive(Clone, Copy, Debug)]
enum Format {
    Frame,
    Line,
}

impl Format {
    fn encode(self, payload: &[u8]) -> Vec<u8> {
        match self {
            Format::Frame => {
                let mut out = (payload.len() as u32).to_le_bytes().to_vec();
                out.extend_from_slice(&crc32(payload).to_le_bytes());
                out.extend_from_slice(payload);
                out
            }
            Format::Line => {
                let mut out = payload.to_vec();
                out.extend_from_slice(format!(" {:08x}\n", crc32(payload)).as_bytes());
                out
            }
        }
    }

    /// Classifies the record at the front of `rest`, collecting its
    /// payload when intact.
    fn decode(self, rest: &[u8], out: &mut Vec<Vec<u8>>) -> Record {
        match self {
            Format::Frame => {
                let Some(header) = rest.get(..8) else {
                    return Record::Incomplete;
                };
                let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
                let Some(payload) = rest.get(8..8 + len) else {
                    return Record::Incomplete;
                };
                if crc32(payload) != crc {
                    return Record::Damaged(8 + len);
                }
                out.push(payload.to_vec());
                Record::Intact(8 + len)
            }
            Format::Line => {
                let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                    return Record::Incomplete;
                };
                let line = &rest[..nl];
                let Some(split) = line.len().checked_sub(9).filter(|&s| line[s] == b' ') else {
                    return Record::Damaged(nl + 1);
                };
                let (payload, sum) = (&line[..split], &line[split + 1..]);
                let sum = std::str::from_utf8(sum)
                    .ok()
                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                if sum != Some(crc32(payload)) {
                    return Record::Damaged(nl + 1);
                }
                out.push(payload.to_vec());
                Record::Intact(nl + 1)
            }
        }
    }

    /// Bytes of a record that frame it (a length, a terminator) rather
    /// than sit under its check.  Damage there can make the rest of the
    /// stream look like one incomplete record — indistinguishable from a
    /// tear — which is the one case the rule cannot catch.
    fn is_framing(self, offset: usize, record_len: usize) -> bool {
        match self {
            Format::Frame => offset < 4,
            Format::Line => offset + 1 == record_len,
        }
    }
}

fn fresh(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-append-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Opens `path` inertly: (decoded payloads, the log, torn bytes cut).
fn open(format: Format, path: &PathBuf) -> std::io::Result<(Vec<Vec<u8>>, AppendLog, u64)> {
    let mut records = Vec::new();
    let (log, torn) = AppendLog::open(path, CrashPoint::inert(), |rest| {
        format.decode(rest, &mut records)
    })?;
    Ok((records, log, torn))
}

proptest! {
    /// Cutting a stream of N records at any byte reopens to exactly the
    /// records wholly before the cut; the rest is truncated, durably.
    #[test]
    fn any_cut_reopens_to_the_complete_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(b'a'..=b'z', 0..24), 1..8),
        cut_seed in any::<u64>(),
        line in any::<bool>(),
    ) {
        let format = if line { Format::Line } else { Format::Frame };
        let path = fresh("cut");
        let encoded: Vec<Vec<u8>> = payloads.iter().map(|p| format.encode(p)).collect();
        let stream = encoded.concat();
        let cut = (cut_seed % (stream.len() as u64 + 1)) as usize;
        std::fs::write(&path, &stream[..cut]).unwrap();
        let (mut end, mut complete) = (0, 0);
        for r in &encoded {
            if end + r.len() > cut {
                break;
            }
            end += r.len();
            complete += 1;
        }

        let (records, log, torn) = open(format, &path).unwrap();
        prop_assert_eq!(&records[..], &payloads[..complete]);
        prop_assert_eq!(torn, (cut - end) as u64);
        prop_assert_eq!(log.len(), end as u64);
        drop(log);
        let (records, _, torn) = open(format, &path).unwrap();
        prop_assert_eq!(torn, 0, "the truncation was durable");
        prop_assert_eq!(records.len(), complete);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), end as u64);
    }
}

#[test]
fn damage_before_the_final_record_fails_the_open() {
    let payloads: [&[u8]; 3] = [b"alpha", b"bravo", b"charlie"];
    for format in [Format::Frame, Format::Line] {
        let encoded: Vec<Vec<u8>> = payloads.iter().map(|p| format.encode(p)).collect();
        let stream = encoded.concat();
        let mut start = 0;
        for (i, rec) in encoded[..encoded.len() - 1].iter().enumerate() {
            for off in 0..rec.len() {
                let path = fresh(&format!("flip-{format:?}-{i}-{off}"));
                let mut bad = stream.clone();
                bad[start + off] ^= 0xff;
                std::fs::write(&path, &bad).unwrap();
                match open(format, &path) {
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                        assert_eq!(std::fs::read(&path).unwrap(), bad, "nothing truncated");
                    }
                    Ok((records, _, _)) => {
                        assert!(
                            format.is_framing(off, rec.len()),
                            "{format:?} record {i} byte {off}: damage read as a torn tail"
                        );
                        assert_eq!(records, payloads[..i], "no record past the damage survives");
                    }
                }
            }
            start += rec.len();
        }
    }
}

#[test]
fn crash_at_every_byte_of_an_append_is_pre_or_post() {
    for format in [Format::Frame, Format::Line] {
        let target = format.encode(b"three");
        for cut in 0..=target.len() {
            let path = fresh(&format!("crash-{format:?}-{cut}"));
            {
                let (_, mut log, _) = open(format, &path).unwrap();
                log.append(&format.encode(b"one")).unwrap();
                log.append(&format.encode(b"two")).unwrap();
            }
            {
                let mut seen = Vec::new();
                let (mut log, _) =
                    AppendLog::open(&path, CrashPoint::after_bytes(cut as u64), |rest| {
                        format.decode(rest, &mut seen)
                    })
                    .unwrap();
                assert_eq!(
                    log.append(&target).is_err(),
                    cut < target.len(),
                    "cut {cut}"
                );
            }
            let (records, _, torn) = open(format, &path).unwrap();
            let mut expected: Vec<&[u8]> = vec![b"one", b"two"];
            if cut == target.len() {
                expected.push(b"three");
            }
            assert_eq!(records, expected, "{format:?} cut {cut}");
            assert_eq!(torn, if cut < target.len() { cut as u64 } else { 0 });
        }
    }
}

#[test]
fn clear_empties_the_log_durably() {
    let path = fresh("clear");
    let format = Format::Frame;
    {
        let (_, mut log, _) = open(format, &path).unwrap();
        log.append(&format.encode(b"old")).unwrap();
        log.clear().unwrap();
        assert!(log.is_empty());
        log.append(&format.encode(b"new")).unwrap();
    }
    let (records, _, torn) = open(format, &path).unwrap();
    assert_eq!(records, vec![b"new".to_vec()]);
    assert_eq!(torn, 0);
}
