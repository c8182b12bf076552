//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use eventdb::{Decoder, Encoder, Field, Store, Table};
use sgx_perf::analysis::stats::{CallStats, Histogram};
use sgx_perf::analysis::Instances;
use sgx_perf::events::{CallKind, EcallRow, OcallRow};
use sgx_perf::TraceDb;
use sim_core::Nanos;

// ---------------------------------------------------------------------
// eventdb: arbitrary rows always roundtrip through the binary format
// ---------------------------------------------------------------------

fn arb_ecall_row() -> impl Strategy<Value = EcallRow> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(thread, enclave, call_index, start_ns, end_ns, parent_ocall, aex_count, failed)| {
                EcallRow {
                    thread,
                    enclave,
                    call_index,
                    start_ns,
                    end_ns,
                    parent_ocall,
                    aex_count,
                    failed,
                }
            },
        )
}

proptest! {
    #[test]
    fn eventdb_table_roundtrips(rows in proptest::collection::vec(arb_ecall_row(), 0..64)) {
        let table: Table<EcallRow> = rows.clone().into_iter().collect();
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Table::<EcallRow>::decode(&mut dec).unwrap();
        prop_assert!(dec.is_exhausted());
        let got: Vec<EcallRow> = back.iter().cloned().collect();
        prop_assert_eq!(got, rows);
    }

    #[test]
    fn eventdb_store_rejects_arbitrary_garbage_without_panicking(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must never panic; may legitimately succeed only for a valid
        // container, which random bytes essentially never form.
        let _ = Store::from_bytes(&bytes);
    }

    #[test]
    fn scalar_codec_roundtrips(v in any::<u64>(), s in "\\PC{0,24}") {
        let mut enc = Encoder::new();
        enc.u64(v);
        enc.str(&s);
        Some(v ^ 1).write(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.u64().unwrap(), v);
        prop_assert_eq!(dec.str().unwrap(), s);
        prop_assert_eq!(Option::<u64>::read(&mut dec).unwrap(), Some(v ^ 1));
    }
}

// ---------------------------------------------------------------------
// sim-core: Nanos arithmetic laws
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn nanos_add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (na, nb) = (Nanos::from_nanos(a), Nanos::from_nanos(b));
        prop_assert_eq!((na + nb) - nb, na);
        let expected = Nanos::from_nanos(a.saturating_sub(b));
        prop_assert_eq!(na.saturating_sub(nb), expected);
        prop_assert_eq!(na.checked_sub(nb).is_some(), a >= b);
    }

    #[test]
    fn nanos_scale_one_is_identity(a in 0u64..(1u64 << 53)) {
        // scale() goes through f64, exact up to 2^53 ns (~104 days) —
        // far beyond any simulated duration.
        prop_assert_eq!(Nanos::from_nanos(a).scale(1.0), Nanos::from_nanos(a));
    }

    #[test]
    fn cycles_roundtrip_via_frequency(ns in 1u64..1_000_000_000u64) {
        let n = Nanos::from_nanos(ns);
        let back = n.to_cycles(3.4).to_nanos(3.4);
        let diff = back.as_nanos().abs_diff(n.as_nanos());
        prop_assert!(diff <= 1, "{} vs {}", n, back);
    }
}

// ---------------------------------------------------------------------
// EDL: the parser never panics; valid inputs keep declaration order
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn edl_parser_never_panics(src in "\\PC{0,200}") {
        let _ = sgx_edl::parse(&src);
    }

    #[test]
    fn edl_generated_interfaces_parse(n_ecalls in 1usize..20, n_ocalls in 0usize..20) {
        let mut src = String::from("enclave { trusted {\n");
        for i in 0..n_ecalls {
            src.push_str(&format!("public void e{i}();\n"));
        }
        src.push_str("}; untrusted {\n");
        for i in 0..n_ocalls {
            src.push_str(&format!("void o{i}() allow(e0);\n"));
        }
        src.push_str("}; };");
        let spec = sgx_edl::parse(&src).unwrap();
        prop_assert_eq!(spec.ecalls().len(), n_ecalls);
        prop_assert_eq!(spec.ocalls().len(), n_ocalls);
        for (i, e) in spec.ecalls().iter().enumerate() {
            prop_assert_eq!(e.index, i);
        }
    }
}

// ---------------------------------------------------------------------
// analyzer: statistics invariants over arbitrary duration sets
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn stats_invariants(durations in proptest::collection::vec(1u64..10_000_000, 1..200)) {
        let stats = CallStats::from_durations(&durations, &durations, &vec![0; durations.len()]);
        let min = *durations.iter().min().unwrap();
        let max = *durations.iter().max().unwrap();
        prop_assert_eq!(stats.min_ns, min);
        prop_assert_eq!(stats.max_ns, max);
        prop_assert!(stats.mean_ns >= min as f64 && stats.mean_ns <= max as f64);
        prop_assert!(stats.median_ns >= min && stats.median_ns <= max);
        prop_assert!(stats.p90_ns <= stats.p95_ns && stats.p95_ns <= stats.p99_ns);
        prop_assert!(stats.p99_ns <= max);
        prop_assert_eq!(stats.count, durations.len());
        prop_assert_eq!(stats.total_ns, durations.iter().sum::<u64>());
    }

    #[test]
    fn histogram_conserves_counts(durations in proptest::collection::vec(0u64..1_000_000, 1..200), bins in 1usize..120) {
        let mut trace = TraceDb::default();
        let mut t = 0;
        for &d in &durations {
            trace.ecalls.insert(EcallRow {
                thread: 0, enclave: 1, call_index: 0,
                start_ns: t, end_ns: t + d,
                parent_ocall: None, aex_count: 0, failed: false,
            });
            t += d + 1;
        }
        let inst = Instances::build(&trace, &sim_core::HwProfile::Unpatched.cost_model());
        let call = sgx_perf::CallRef { enclave: 1, kind: CallKind::Ecall, index: 0 };
        let hist = Histogram::of_call(&inst, call, bins).unwrap();
        prop_assert_eq!(hist.bins.len(), bins);
        prop_assert_eq!(hist.bins.iter().sum::<u64>(), durations.len() as u64);
    }
}

// ---------------------------------------------------------------------
// parents: indirect-parent structural invariants on random traces
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn indirect_parents_are_sane(spans in proptest::collection::vec((0u64..4, 0u64..2, 1u64..500), 1..80)) {
        // Build a trace of non-overlapping top-level calls per thread.
        let mut trace = TraceDb::default();
        let mut clocks = [0u64; 4];
        for (thread, kind, dur) in spans {
            let t = &mut clocks[thread as usize];
            let start = *t;
            let end = start + dur;
            *t = end + 1;
            if kind == 0 {
                trace.ecalls.insert(EcallRow {
                    thread, enclave: 1, call_index: 0,
                    start_ns: start, end_ns: end,
                    parent_ocall: None, aex_count: 0, failed: false,
                });
            } else {
                trace.ocalls.insert(OcallRow {
                    thread, enclave: 1, call_index: 0,
                    start_ns: start, end_ns: end,
                    parent_ecall: None, failed: false,
                });
            }
        }
        let inst = Instances::build(&trace, &sim_core::HwProfile::Unpatched.cost_model());
        for i in &inst.all {
            if let Some(p) = i.indirect_parent {
                let parent = &inst.all[p];
                // Same thread, same kind, same (absent) direct parent,
                // and strictly earlier start.
                prop_assert_eq!(parent.thread, i.thread);
                prop_assert_eq!(parent.call.kind, i.call.kind);
                prop_assert_eq!(parent.direct_parent, i.direct_parent);
                prop_assert!(parent.start_ns <= i.start_ns);
            }
        }
    }
}
