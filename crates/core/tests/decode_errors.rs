//! Pinned decode errors of a trace that fills all twelve tables.
//!
//! Every corrupt input must fail with a located error, and the error's
//! text is part of the tool's output (`sgxperf` prints it and exits 1).
//! This test decodes every truncation of every table section, every
//! single-byte corruption of every section byte (which covers the bool,
//! option-presence, UTF-8, length and row-count bytes), and every
//! truncation of the whole container, and pins a digest of the outcomes:
//! the `DbError` text of each failure, and `ok` for each input that still
//! decodes (which must then re-encode to the same bytes).
//!
//! A digest changes only when some outcome changes; the failure message
//! prints the new values.

use eventdb::{Encoder, Section, Table};
use sgx_perf::events::{
    AexCauseCode, AexRow, EcallRow, EnclaveRow, FaultRow, FleetRow, LifecycleRow, OcallRow,
    PagingRow, SwitchlessRow, SymbolRow, SyncEvRow, SyncRow,
};
use sgx_perf::TraceDb;

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two rows in every table: options both present and absent, strings
/// with a multi-byte character, lists both empty and not.
fn full_trace() -> TraceDb {
    let mut t = TraceDb::default();
    for i in 0..2u64 {
        let some = |v: u64| (i == 0).then_some(v);
        let i32 = i as u32;
        t.ecalls.insert(EcallRow {
            thread: i,
            enclave: 1,
            call_index: i32,
            start_ns: 100 * i,
            end_ns: 100 * i + 50,
            parent_ocall: some(3),
            aex_count: i,
            failed: i == 1,
        });
        t.ocalls.insert(OcallRow {
            thread: i,
            enclave: 1,
            call_index: i32,
            start_ns: 100 * i + 10,
            end_ns: 100 * i + 20,
            parent_ecall: some(0),
            failed: i == 0,
        });
        t.aex.insert(AexRow {
            thread: i,
            enclave: 1,
            time_ns: 15 + i,
            during_ecall: some(0),
            cause: (i == 0).then_some(AexCauseCode::AccessFault),
        });
        t.paging.insert(PagingRow {
            enclave: 1,
            out: i == 0,
            vaddr: 0x4000,
            time_ns: 30 + i,
        });
        t.sync.insert(SyncRow {
            thread: i,
            time_ns: 40 + i,
            sleep: i == 0,
            target_thread: some(1),
            ocall_row: i,
        });
        t.enclaves.insert(EnclaveRow {
            enclave: 1 + i32,
            total_pages: 64,
            created_ns: i,
        });
        t.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: i == 0,
            index: i32,
            name: if i == 0 { "ecall_ré" } else { "ocall_w" }.to_string(),
            public: i == 0,
            allowed_ecalls: if i == 0 { vec![] } else { vec![0, 1] },
            user_check_params: if i == 0 {
                vec!["bü".to_string()]
            } else {
                vec![]
            },
        });
        t.switchless.insert(SwitchlessRow {
            thread: i,
            enclave: 1,
            kind: 1,
            call_index: (i == 1).then_some(0),
            worker: (i == 0).then_some(2),
            spins: 3,
            time_ns: 60 + i,
        });
        t.faults.insert(FaultRow {
            thread: i,
            enclave: 1,
            fault: 2,
            action: 0,
            call_index: (i == 0).then_some(1),
            magnitude: 5,
            time_ns: 70 + i,
        });
        t.lifecycle.insert(LifecycleRow {
            enclave: 1,
            stage: 1,
            thread: i,
            attempt: i32,
            magnitude: 9,
            time_ns: 80 + i,
        });
        t.syncev.insert(SyncEvRow {
            thread: i,
            op: 3,
            object: some(7),
            target: (i == 1).then_some(0),
            aux: 4,
            label: if i == 0 {
                "mü".to_string()
            } else {
                String::new()
            },
            time_ns: 90 + i,
        });
        t.fleet.insert(FleetRow {
            slot: i32,
            spin_ups: 1,
            restarts: 0,
            requests: 10,
            completed: 9,
            shed: 1,
            failed: 0,
            p50_ns: 100,
            p99_ns: 200,
            page_ins: 3,
            page_outs: 2,
        });
    }
    t
}

/// One section of a hand-built container: a tag and its blob bytes.
struct Raw<'a> {
    tag: &'static str,
    blob: &'a [u8],
}

impl Section for Raw<'_> {
    fn tag(&self) -> &str {
        self.tag
    }

    fn encoded_len(&self) -> usize {
        self.blob.len()
    }

    fn encode(&self, out: &mut Encoder) {
        out.raw(self.blob);
    }
}

fn blob<R: eventdb::Record>(table: &Table<R>) -> (&'static str, Vec<u8>) {
    let mut out = Encoder::new();
    table.encode(&mut out);
    (R::TAG, out.into_bytes())
}

/// Every table's tag and encoded blob, in file order.
fn sections(t: &TraceDb) -> Vec<(&'static str, Vec<u8>)> {
    vec![
        blob(&t.ecalls),
        blob(&t.ocalls),
        blob(&t.aex),
        blob(&t.paging),
        blob(&t.sync),
        blob(&t.enclaves),
        blob(&t.symbols),
        blob(&t.switchless),
        blob(&t.faults),
        blob(&t.lifecycle),
        blob(&t.syncev),
        blob(&t.fleet),
    ]
}

/// The container of `sections` with section `at`'s blob replaced.
fn container(sections: &[(&'static str, Vec<u8>)], at: usize, blob: &[u8]) -> Vec<u8> {
    eventdb::encode_container(sections.iter().enumerate().map(|(i, (tag, b))| Raw {
        tag,
        blob: if i == at { blob } else { b },
    }))
}

/// What decoding `bytes` gives: the error text, or `ok` when it decodes
/// and re-encodes to the same bytes.
fn outcome(bytes: &[u8]) -> String {
    match TraceDb::from_bytes(bytes) {
        Ok(trace) => {
            assert!(
                trace.to_bytes() == bytes,
                "a decoded input re-encodes as it was"
            );
            "ok".to_string()
        }
        Err(e) => e.to_string(),
    }
}

#[test]
fn corrupt_traces_fail_with_pinned_errors() {
    let trace = full_trace();
    assert!(trace.table_rows().iter().all(|&(_, rows)| rows == 2));
    let sections = sections(&trace);
    let whole = trace.to_bytes();
    assert_eq!(container(&sections, usize::MAX, &[]), whole);

    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let (mut cases, mut errors) = (0usize, 0usize);
    let mut record = |label: String, outcome: String| {
        digest = fnv1a(digest, label.as_bytes());
        digest = fnv1a(digest, outcome.as_bytes());
        digest = fnv1a(digest, b"\n");
        cases += 1;
        errors += usize::from(outcome != "ok");
    };
    for (at, (tag, blob)) in sections.iter().enumerate() {
        for len in 0..blob.len() {
            let got = outcome(&container(&sections, at, &blob[..len]));
            assert_ne!(got, "ok", "{tag} cut to {len} bytes decodes");
            record(format!("{tag}[..{len}]"), got);
        }
        for offset in 0..blob.len() {
            for value in [0x00, 0x01, 0x02, 0x80, 0xff] {
                if blob[offset] == value {
                    continue;
                }
                let mut bad = blob.clone();
                bad[offset] = value;
                record(
                    format!("{tag}[{offset}]={value}"),
                    outcome(&container(&sections, at, &bad)),
                );
            }
        }
    }
    for len in 0..whole.len() {
        record(format!("file[..{len}]"), outcome(&whole[..len]));
    }
    assert_eq!(
        (cases, errors, format!("{digest:016x}")),
        (6164, 2921, "59f5297e1f6b505e".to_string()),
        "decode outcomes changed: (cases, errors, digest)"
    );
}
