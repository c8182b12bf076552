//! Generated traces for property tests, and the relations every trace
//! already satisfies.
//!
//! [`Traces`] fills all 12 tables with rows whose values mix zero, small
//! numbers and values at the top of their type, in the shapes the
//! analyzer treats specially: tables out of start order, equal start
//! times across kinds, dangling, cross-thread and cyclic parent links,
//! duplicate and missing symbol rows, one name shared by several
//! enclaves, enclave ids near `u32::MAX` and thread tokens near
//! `u64::MAX`. Some faults and lifecycle stages fall among the calls,
//! some lock holds span ocall starts on the ocall's own thread, some
//! threads nest two locks, and some cells pass from one thread to
//! another through a spawn, a lock, a signal, a ring (either way) or a
//! thread's end.

use eventdb::Table;
use proptest::prelude::*;
use sim_core::syncev::{SyncOp, EXTERNAL_THREAD};

use crate::events::{
    AexCauseCode, AexRow, EcallRow, EnclaveRow, FaultRow, FleetRow, LifecycleRow, OcallRow,
    PagingRow, SwitchlessRow, SymbolRow, SyncEvRow, SyncRow,
};
use crate::trace::TraceDb;

/// Traces of up to `max_rows` rows per call table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Traces {
    pub(crate) max_rows: u64,
}

/// One of a few values, so that rows collide on keys.
fn one_of<T: Copy>(rng: &mut TestRng, values: &[T]) -> T {
    values[rng.below(values.len() as u64) as usize]
}

/// Zero, a small number, a mid-sized one or a value near `u64::MAX`.
fn any_u64(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => rng.below(16),
        2 => rng.below(1 << 40),
        _ => u64::MAX - rng.below(4),
    }
}

fn any_u32(rng: &mut TestRng) -> u32 {
    match rng.below(3) {
        0 => 0,
        1 => rng.below(16) as u32,
        _ => u32::MAX - rng.below(4) as u32,
    }
}

fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.below(3) != 0).then(|| value(rng))
}

fn thread(rng: &mut TestRng) -> u64 {
    one_of(rng, &[0, 1, 2, u64::MAX - 1, u64::MAX])
}

fn enclave(rng: &mut TestRng) -> u32 {
    one_of(rng, &[0, 1, 2, u32::MAX - 1, u32::MAX])
}

fn call_index(rng: &mut TestRng) -> u32 {
    one_of(rng, &[0, 1, 2, 3, u32::MAX])
}

/// `n` call start times: a few distinct values shared by both call
/// tables, so starts tie within and across kinds, plus the odd value
/// near `u64::MAX`; in order unless the table is to be out of order.
fn starts(rng: &mut TestRng, n: usize) -> Vec<u64> {
    let mut starts: Vec<u64> = (0..n)
        .map(|_| match rng.below(8) {
            0 => u64::MAX - rng.below(2),
            _ => rng.below(6) * 1_000,
        })
        .collect();
    if rng.below(3) != 0 {
        starts.sort_unstable();
    }
    starts
}

fn end(rng: &mut TestRng, start: u64) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => u64::MAX,
        _ => start.saturating_add(rng.below(30_000)),
    }
}

/// Any time, or one among the calls' starts and ends.
fn event_time(rng: &mut TestRng) -> u64 {
    match rng.below(2) {
        0 => any_u64(rng),
        _ => rng.below(8_000),
    }
}

/// A parent link: none, a row of the other table, or a row past its end.
fn parent(rng: &mut TestRng, rows: usize) -> Option<u64> {
    maybe(rng, |rng| rng.below(rows as u64 + 2))
}

impl Strategy for Traces {
    type Value = TraceDb;

    fn generate(&self, rng: &mut TestRng) -> TraceDb {
        let mut t = TraceDb::default();
        let ecalls = rng.below(self.max_rows + 1) as usize;
        let ocalls = rng.below(self.max_rows + 1) as usize;
        for start_ns in starts(rng, ecalls) {
            t.ecalls.insert(EcallRow {
                thread: thread(rng),
                enclave: enclave(rng),
                call_index: call_index(rng),
                start_ns,
                end_ns: end(rng, start_ns),
                parent_ocall: parent(rng, ocalls),
                aex_count: any_u64(rng),
                failed: rng.below(4) == 0,
            });
        }
        for start_ns in starts(rng, ocalls) {
            t.ocalls.insert(OcallRow {
                thread: thread(rng),
                enclave: enclave(rng),
                call_index: call_index(rng),
                start_ns,
                end_ns: end(rng, start_ns),
                parent_ecall: parent(rng, ecalls),
                failed: rng.below(4) == 0,
            });
        }
        for _ in 0..rng.below(12) {
            let kind_is_ecall = rng.below(2) == 0;
            t.symbols.insert(SymbolRow {
                enclave: enclave(rng),
                kind_is_ecall,
                index: call_index(rng),
                name: one_of(rng, &["ecall_a", "ecall_b", "shared", "ocall_x", ""]).to_string(),
                public: kind_is_ecall && rng.below(2) == 0,
                allowed_ecalls: (0..rng.below(3)).map(|_| call_index(rng)).collect(),
                user_check_params: (0..rng.below(2)).map(|_| "p".to_string()).collect(),
            });
        }
        for _ in 0..rng.below(6) {
            t.aex.insert(AexRow {
                thread: thread(rng),
                enclave: enclave(rng),
                time_ns: any_u64(rng),
                during_ecall: parent(rng, ecalls),
                cause: maybe(rng, |rng| {
                    one_of(
                        rng,
                        &[
                            AexCauseCode::Interrupt,
                            AexCauseCode::PageFault,
                            AexCauseCode::AccessFault,
                        ],
                    )
                }),
            });
        }
        for _ in 0..rng.below(6) {
            t.paging.insert(PagingRow {
                enclave: enclave(rng),
                out: rng.below(2) == 0,
                vaddr: one_of(rng, &[0, 0x1000, u64::MAX]),
                time_ns: any_u64(rng),
            });
        }
        for _ in 0..rng.below(6) {
            t.sync.insert(SyncRow {
                thread: thread(rng),
                time_ns: any_u64(rng),
                sleep: rng.below(2) == 0,
                target_thread: maybe(rng, thread),
                ocall_row: rng.below(ocalls as u64 + 2),
            });
        }
        for _ in 0..rng.below(4) {
            t.enclaves.insert(EnclaveRow {
                enclave: enclave(rng),
                total_pages: any_u64(rng),
                created_ns: any_u64(rng),
            });
        }
        for _ in 0..rng.below(6) {
            t.switchless.insert(SwitchlessRow {
                thread: thread(rng),
                enclave: enclave(rng),
                kind: rng.below(8) as u8,
                call_index: maybe(rng, call_index),
                worker: maybe(rng, any_u32),
                spins: any_u64(rng),
                time_ns: any_u64(rng),
            });
        }
        for _ in 0..rng.below(4) {
            t.faults.insert(FaultRow {
                thread: thread(rng),
                enclave: enclave(rng),
                fault: rng.below(10) as u8,
                action: rng.below(6) as u8,
                call_index: maybe(rng, call_index),
                magnitude: any_u64(rng),
                time_ns: event_time(rng),
            });
        }
        for _ in 0..rng.below(4) {
            t.lifecycle.insert(LifecycleRow {
                enclave: enclave(rng),
                stage: rng.below(8) as u8,
                thread: thread(rng),
                attempt: any_u32(rng),
                magnitude: any_u64(rng),
                time_ns: event_time(rng),
            });
        }
        for _ in 0..rng.below(8) {
            t.syncev.insert(SyncEvRow {
                thread: thread(rng),
                op: rng.below(24) as u8,
                object: maybe(rng, |rng| rng.below(4)),
                target: maybe(rng, thread),
                aux: any_u64(rng),
                label: one_of(rng, &["", "m", "cell"]).to_string(),
                time_ns: any_u64(rng),
            });
        }
        let ocall_starts: Vec<(u64, u64)> =
            (t.ocalls.iter()).map(|o| (o.thread, o.start_ns)).collect();
        for _ in 0..rng.below(4).min(ocall_starts.len() as u64) {
            let (thread, start) = ocall_starts[rng.below(ocall_starts.len() as u64) as usize];
            let object = maybe(rng, |rng| rng.below(4));
            let acquired = start.saturating_sub(rng.below(2_000));
            let released = start.saturating_add(rng.below(3_000));
            for (op, time_ns) in [
                (SyncOp::LockAcquire, acquired),
                (SyncOp::LockRelease, released),
            ] {
                t.syncev.insert(SyncEvRow {
                    thread,
                    op: op.code(),
                    object,
                    target: None,
                    aux: 0,
                    label: "m".to_string(),
                    time_ns,
                });
            }
        }
        // The shapes the race analyses look for: two threads each
        // nesting the same two locks, in either order; and a cell one
        // thread writes and hands to another through a spawn, a lock, a
        // signal, a ring (either way) or its own end, perhaps accesses
        // again, and the other then accesses.
        for _ in 0..rng.below(4) {
            let (from, mut to) = (thread(rng), thread(rng));
            let (a, b) = (rng.below(4), rng.below(4));
            let mut rows = Vec::new();
            if rng.below(3) == 0 {
                let (outer, inner) = one_of(rng, &[(a, b), (b, a)]);
                for (thread, outer, inner) in [(from, a, b), (to, outer, inner)] {
                    rows.extend([
                        (thread, SyncOp::LockAcquire, Some(outer), None),
                        (thread, SyncOp::LockAcquire, Some(inner), None),
                        (thread, SyncOp::LockRelease, Some(inner), None),
                        (thread, SyncOp::LockRelease, Some(outer), None),
                    ]);
                }
            } else {
                let hand_off = rng.below(6);
                if hand_off == 1 {
                    rows.push((from, SyncOp::LockAcquire, Some(b), None));
                }
                rows.push((from, SyncOp::SharedWrite, Some(a), None));
                match hand_off {
                    0 => rows.push((from, SyncOp::ThreadSpawn, None, Some(to))),
                    1 => rows.extend([
                        (from, SyncOp::LockRelease, Some(b), None),
                        (to, SyncOp::LockAcquire, Some(b), None),
                    ]),
                    2 => rows.push((from, SyncOp::CondSignal, Some(b), Some(to))),
                    3 => rows.extend([
                        (from, SyncOp::RingPost, Some(b), None),
                        (to, SyncOp::RingComplete, Some(b), Some(from)),
                    ]),
                    4 => rows.push((from, SyncOp::RingComplete, Some(b), Some(to))),
                    _ => {
                        rows.push((from, SyncOp::ThreadJoin, None, None));
                        to = EXTERNAL_THREAD;
                    }
                }
                let accesses = [SyncOp::SharedRead, SyncOp::SharedWrite];
                if rng.below(2) == 0 {
                    rows.push((from, one_of(rng, &accesses), Some(a), None));
                }
                rows.push((to, one_of(rng, &accesses), Some(a), None));
            }
            for (thread, op, object, target) in rows {
                t.syncev.insert(SyncEvRow {
                    thread,
                    op: op.code(),
                    object,
                    target,
                    aux: 0,
                    label: one_of(rng, &["", "m", "cell"]).to_string(),
                    time_ns: event_time(rng),
                });
            }
        }
        for _ in 0..rng.below(4) {
            t.fleet.insert(FleetRow {
                slot: any_u32(rng),
                spin_ups: any_u32(rng),
                restarts: any_u32(rng),
                requests: any_u64(rng),
                completed: any_u64(rng),
                shed: any_u64(rng),
                failed: any_u64(rng),
                p50_ns: any_u64(rng),
                p99_ns: any_u64(rng),
                page_ins: any_u64(rng),
                page_outs: any_u64(rng),
            });
        }
        t
    }
}

/// Rewrites every row of `table` in place.
fn each<R: Clone>(table: &mut Table<R>, relabel: impl Fn(&mut R)) {
    *table = (table.iter().cloned())
        .map(|mut row| {
            relabel(&mut row);
            row
        })
        .collect();
}

/// The trace with thread tokens 0 and 1 swapped in every table.
fn swap_threads_0_and_1(trace: &TraceDb) -> TraceDb {
    fn swap(thread: &mut u64) {
        *thread = match *thread {
            0 => 1,
            1 => 0,
            other => other,
        };
    }
    let mut t = trace.clone();
    each(&mut t.ecalls, |r| swap(&mut r.thread));
    each(&mut t.ocalls, |r| swap(&mut r.thread));
    each(&mut t.aex, |r| swap(&mut r.thread));
    each(&mut t.sync, |r| {
        swap(&mut r.thread);
        r.target_thread.as_mut().map(swap);
    });
    each(&mut t.switchless, |r| swap(&mut r.thread));
    each(&mut t.faults, |r| swap(&mut r.thread));
    each(&mut t.lifecycle, |r| swap(&mut r.thread));
    each(&mut t.syncev, |r| {
        swap(&mut r.thread);
        r.target.as_mut().map(swap);
    });
    t
}

/// Renames the generator's enclave ids 0, 1 and 2 to 3, 4 and 5. Its
/// other ids, `u32::MAX - 1` and `u32::MAX`, stay, so ids keep their order.
fn shift_enclave(enclave: &mut u32) {
    if *enclave <= 2 {
        *enclave += 3;
    }
}

/// The trace with every enclave id in every table renamed by
/// [`shift_enclave`].
fn shift_enclaves(trace: &TraceDb) -> TraceDb {
    let mut t = trace.clone();
    each(&mut t.ecalls, |r| shift_enclave(&mut r.enclave));
    each(&mut t.ocalls, |r| shift_enclave(&mut r.enclave));
    each(&mut t.symbols, |r| shift_enclave(&mut r.enclave));
    each(&mut t.aex, |r| shift_enclave(&mut r.enclave));
    each(&mut t.paging, |r| shift_enclave(&mut r.enclave));
    each(&mut t.enclaves, |r| shift_enclave(&mut r.enclave));
    each(&mut t.switchless, |r| shift_enclave(&mut r.enclave));
    each(&mut t.faults, |r| shift_enclave(&mut r.enclave));
    each(&mut t.lifecycle, |r| shift_enclave(&mut r.enclave));
    t
}

/// `text` with the id of every `enclave<N>` token renamed by
/// [`shift_enclave`].
fn shift_enclave_tokens(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("enclave") {
        let (head, tail) = rest.split_at(at + "enclave".len());
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        match tail[..digits].parse::<u32>() {
            Ok(mut id) => {
                shift_enclave(&mut id);
                out.push_str(&id.to_string());
            }
            Err(_) => out.push_str(&tail[..digits]),
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diff::{DiffConfig, TraceDiff, Verdict};
    use crate::analysis::races;
    use crate::analysis::stats::{scatter, scatter_csv, scatter_json, Histogram};
    use crate::analysis::Analyzer;
    use crate::{export, FleetReport};
    use sim_core::HwProfile;

    const TRACES: Traces = Traces { max_rows: 24 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Decoding a trace's bytes and encoding it again gives the same
        /// bytes.
        #[test]
        fn encoding_round_trips_byte_identically(trace in TRACES) {
            let bytes = trace.to_bytes();
            let back = TraceDb::from_bytes(&bytes).expect("own bytes decode");
            prop_assert!(back.to_bytes() == bytes);
        }

        /// Decoding through the fast path gives the same trace, or the
        /// same error text, as the checked path alone, on a trace's bytes
        /// and on single-byte mutations of them.
        #[test]
        fn the_fast_decode_path_agrees_with_the_checked_one(
            trace in TRACES,
            mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 16),
        ) {
            let bytes = trace.to_bytes();
            let decode = |bytes: &[u8]| {
                let checked = eventdb::Store::from_bytes(bytes)
                    .and_then(|store| TraceDb::from_store_checked(&store));
                [TraceDb::from_bytes(bytes), checked].map(|got| match got {
                    Ok(trace) => format!("{trace:?}"),
                    Err(e) => e.to_string(),
                })
            };
            let [fast, checked] = decode(&bytes);
            prop_assert_eq!(fast, checked);
            for (at, value) in mutations {
                let at = (at % bytes.len() as u64) as usize;
                let mut bad = bytes.clone();
                bad[at] = value;
                let [fast, checked] = decode(&bad);
                prop_assert_eq!(fast, checked, "byte {} set to {}", at, value);
            }
        }

        /// The one-pass encoder writes the bytes the store path writes,
        /// and each table's `encoded_len` is its section's byte length.
        #[test]
        fn one_pass_encoding_matches_the_store_and_sizes_every_table(trace in TRACES) {
            let store = trace.to_store();
            prop_assert!(trace.to_bytes() == store.to_bytes());
            let lens = trace.encoded_lens();
            for section in store.sections() {
                let section = section.expect("own sections carry a row count");
                let len = lens.iter().find(|(tag, _)| *tag == section.tag);
                prop_assert_eq!(len.map(|&(_, len)| len), Some(section.bytes), "{}", section.tag);
            }
        }

        /// A trace diffed against itself is neutral: exit 0, and no
        /// regression, improvement or call on one side only.
        #[test]
        fn self_diff_is_neutral(trace in TRACES) {
            let diff = TraceDiff::compute(&trace, &trace, DiffConfig::default());
            prop_assert_eq!(diff.verdict, Verdict::Neutral);
            prop_assert_eq!(diff.exit_code(), 0);
            prop_assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
            prop_assert!(diff.improvements.is_empty(), "{:?}", diff.improvements);
            prop_assert!(diff.only_in_a.is_empty() && diff.only_in_b.is_empty());
        }

        /// Every analyzer entry point runs to the end on any trace: no
        /// panic, and in a debug build no arithmetic overflow.
        #[test]
        fn no_entry_point_panics(a in TRACES, b in TRACES) {
            let cost = HwProfile::Unpatched.cost_model();
            let analyzer = Analyzer::new(&a, cost.clone());
            let report = analyzer.analyze();
            let _ = (report.render(), report.to_json());
            let _ = analyzer.call_graph().to_dot();
            let _ = (analyzer.aex_impact(), analyzer.aex_bursts(100_000, 3));
            let _ = (export::chrome_trace(&a, &cost), export::folded_stacks(&a, &cost));
            let races = races::analyze(&a);
            let _ = (races.render(), races.to_json());
            let fleet = FleetReport::from_trace(&a);
            let _ = (fleet.render(20), fleet.to_json(), fleet.summary_line());
            for candidate in [&b, &a] {
                let diff = TraceDiff::compute(&a, candidate, DiffConfig::default());
                let _ = (diff.render(), diff.to_json());
            }
            let instances = analyzer.instances();
            for call in instances.calls() {
                if let Some(hist) = Histogram::of_call(&instances, call, 100) {
                    let _ = (hist.render_ascii(24, 48), hist.to_csv(), hist.to_json());
                }
                let points = scatter(&instances, call);
                let _ = (scatter_csv(&points), scatter_json(&points));
            }
        }

        /// Relabelling threads 0 and 1 in every table leaves the set of
        /// detections unchanged.
        #[test]
        fn swapping_threads_0_and_1_keeps_the_detections(trace in TRACES) {
            let detections = |t: &TraceDb| {
                let report = Analyzer::new(t, HwProfile::Unpatched.cost_model()).analyze();
                let mut found: Vec<String> =
                    report.detections.iter().map(|d| format!("{d:?}")).collect();
                found.sort();
                found
            };
            prop_assert_eq!(detections(&trace), detections(&swap_threads_0_and_1(&trace)));
        }

        /// Renaming enclaves in every table, keeping their order, changes
        /// the report only in its `enclave<N>` tokens, which rename the
        /// same way.
        #[test]
        fn shifting_enclave_ids_renames_only_the_report_tokens(trace in TRACES) {
            let render = |t: &TraceDb| {
                Analyzer::new(t, HwProfile::Unpatched.cost_model()).analyze().render()
            };
            let shifted = render(&shift_enclaves(&trace));
            prop_assert_eq!(shifted, shift_enclave_tokens(&render(&trace)));
        }
    }
}
