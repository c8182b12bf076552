//! Trace event schema — the rows sgx-perf serialises to its event database.

use eventdb::{record, DbError, Decoder, Encoder, Field};

/// Whether a call is an ecall or an ocall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CallKind {
    /// A call into the enclave.
    Ecall,
    /// A call out of the enclave.
    Ocall,
}

impl std::fmt::Display for CallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CallKind::Ecall => "ecall",
            CallKind::Ocall => "ocall",
        })
    }
}

/// Identifies one call symbol of one enclave — the analyzer's unit of
/// aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallRef {
    /// Enclave id.
    pub enclave: u32,
    /// Ecall or ocall.
    pub kind: CallKind,
    /// Call index within the interface.
    pub index: u32,
}

impl std::fmt::Display for CallRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enclave{}/{}#{}", self.enclave, self.kind, self.index)
    }
}

/// How the logger observes asynchronous enclave exits (§4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AexMode {
    /// Leave the AEP unpatched: no AEX observation.
    Off,
    /// Count AEXs per ecall (cheaper: ≈1,076 ns per AEX).
    #[default]
    Count,
    /// Record each AEX with its timestamp (≈1,118 ns per AEX).
    Trace,
}

record! {
    /// One completed ecall.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EcallRow: "ecalls" {
        /// Issuing thread token.
        pub thread: u64,
        /// Enclave id.
        pub enclave: u32,
        /// Ecall index within the enclave interface.
        pub call_index: u32,
        /// Timestamp before `sgx_ecall` was forwarded (includes transitions).
        pub start_ns: u64,
        /// Timestamp after `sgx_ecall` returned.
        pub end_ns: u64,
        /// Row id of the ocall this (nested) ecall was issued from, if any —
        /// the *direct parent* (§4.3.2).
        pub parent_ocall: Option<u64>,
        /// AEXs observed during this ecall (when counting/tracing is enabled).
        pub aex_count: u64,
        /// Whether the call returned an error (still traced).
        pub failed: bool,
    }
}

impl EcallRow {
    /// The [`CallRef`] this row is an execution of.
    pub fn call_ref(&self) -> CallRef {
        CallRef {
            enclave: self.enclave,
            kind: CallKind::Ecall,
            index: self.call_index,
        }
    }
}

record! {
    /// One completed ocall. Timestamps are taken in the logger's generated
    /// call stub, i.e. *outside* the enclave, so — unlike ecalls — the duration
    /// excludes the transition time (§4.1.2).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OcallRow: "ocalls" {
        /// Issuing thread token.
        pub thread: u64,
        /// Enclave id.
        pub enclave: u32,
        /// Ocall index within the (effective) enclave interface.
        pub call_index: u32,
        /// Timestamp when the stub was entered.
        pub start_ns: u64,
        /// Timestamp when the real ocall function returned.
        pub end_ns: u64,
        /// Row id of the ecall this ocall was issued from — the *direct
        /// parent*. `None` can only occur if tracing started mid-call.
        pub parent_ecall: Option<u64>,
        /// Whether the call returned an error (still traced).
        pub failed: bool,
    }
}

impl OcallRow {
    /// The [`CallRef`] this row is an execution of.
    pub fn call_ref(&self) -> CallRef {
        CallRef {
            enclave: self.enclave,
            kind: CallKind::Ocall,
            index: self.call_index,
        }
    }
}

/// Why an AEX happened, when observable. On SGX v1 the reason cannot be
/// inferred (§4.1.4); on SGX v2 debug enclaves the logger reads the
/// recorded exit type. Stored as its discriminant byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AexCauseCode {
    /// Timer or device interrupt.
    Interrupt = 0,
    /// EPC page fault.
    PageFault = 1,
    /// MMU access fault (e.g. stripped permissions).
    AccessFault = 2,
}

impl Field for AexCauseCode {
    fn write(&self, out: &mut Encoder) {
        out.u8(*self as u8);
    }

    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        let code = r.u8()?;
        [Self::Interrupt, Self::PageFault, Self::AccessFault]
            .into_iter()
            .find(|cause| *cause as u8 == code)
            .ok_or_else(|| DbError::Corrupt(format!("bad AexCauseCode {code}")))
    }
}

record! {
    /// One traced AEX (only in [`AexMode::Trace`]).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AexRow: "aex" {
        /// Thread that was interrupted.
        pub thread: u64,
        /// Enclave that was exited.
        pub enclave: u32,
        /// Time of the exit.
        pub time_ns: u64,
        /// Row id of the ecall in progress, if the logger could attribute one.
        pub during_ecall: Option<u64>,
        /// Exit cause — `Some` only on SGX v2 debug enclaves (§4.1.4).
        pub cause: Option<AexCauseCode>,
    }
}

record! {
    /// One EPC paging event captured from the driver hooks (§4.1.5).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PagingRow: "paging" {
        /// Enclave whose page moved.
        pub enclave: u32,
        /// `true` = page-out (eviction), `false` = page-in.
        pub out: bool,
        /// Virtual address of the page.
        pub vaddr: u64,
        /// Time of the operation.
        pub time_ns: u64,
    }
}

record! {
    /// Classification of a synchronisation ocall event (§4.1.3): the four SDK
    /// sync ocalls reduce to sleep and wake-up events.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SyncRow: "sync" {
        /// Thread that issued the sync ocall.
        pub thread: u64,
        /// Time the event was recorded.
        pub time_ns: u64,
        /// `true` = sleep, `false` = wake-up.
        pub sleep: bool,
        /// For wake-ups: the thread being woken (dependency edge waker→sleeper).
        pub target_thread: Option<u64>,
        /// Row id of the underlying ocall.
        pub ocall_row: u64,
    }
}

record! {
    /// One switchless-subsystem event (worker dispatch, fallback to the
    /// synchronous path, worker idle/busy). Switchless calls bypass `sgx_ecall`
    /// and the ocall table entirely, so the interposition shims never see them;
    /// the logger records them through the URTS switchless observer instead.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SwitchlessRow: "switchless" {
        /// Thread the event happened on (caller for dispatch/fallback, worker
        /// for idle/busy).
        pub thread: u64,
        /// Enclave id.
        pub enclave: u32,
        /// Event kind, encoded as
        /// [`SwitchlessEventKind::code`](sgx_sdk::SwitchlessEventKind::code).
        pub kind: u8,
        /// The ecall/ocall index, for dispatch and fallback events.
        pub call_index: Option<u32>,
        /// Worker slot within its pool, for worker events.
        pub worker: Option<u32>,
        /// Poll iterations the caller spent waiting (dispatch events).
        pub spins: u64,
        /// Time of the event.
        pub time_ns: u64,
    }
}

record! {
    /// One fault-injection or recovery event (from the chaos harness).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FaultRow: "faults" {
        /// Thread at the injection site.
        pub thread: u64,
        /// Affected enclave (0 when not tied to one).
        pub enclave: u32,
        /// Fault kind, encoded as
        /// [`FaultKind::code`](sim_core::fault::FaultKind::code).
        pub fault: u8,
        /// Injection/recovery step, encoded as
        /// [`FaultAction::code`](sim_core::fault::FaultAction::code).
        pub action: u8,
        /// Ecall/ocall index at the site, when meaningful.
        pub call_index: Option<u32>,
        /// Kind-specific magnitude (AEX count, pages evicted, delay/backoff
        /// nanoseconds, slowdown factor, attempts).
        pub magnitude: u64,
        /// Time of the event.
        pub time_ns: u64,
    }
}

record! {
    /// One enclave-lifecycle event: a loss (`SGX_ERROR_ENCLAVE_LOST`), or one
    /// step of a supervisor recovery (rebuild, warm-up replay, retry, overall
    /// recovery, circuit-breaker give-up).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LifecycleRow: "lifecycle" {
        /// Affected enclave. For rebuild/replay/retry rows this is the *new*
        /// enclave id; for lost/gave-up rows the one that died.
        pub enclave: u32,
        /// Stage, encoded as
        /// [`LifecycleStage::code`](sim_core::LifecycleStage::code).
        pub stage: u8,
        /// Thread driving the recovery.
        pub thread: u64,
        /// Restart attempt number (0 for the loss itself).
        pub attempt: u32,
        /// Stage-specific cost in virtual nanoseconds: rebuild/replay duration,
        /// retry backoff, or — for recovered rows — the full loss-to-completion
        /// MTTR.
        pub magnitude: u64,
        /// Time of the event.
        pub time_ns: u64,
    }
}

record! {
    /// One synchronisation event (lock/condvar/thread/ring/shared-cell), the
    /// raw material for the `sgxperf races` analyses. Codes mirror
    /// [`SyncOp::code`](sim_core::SyncOp::code).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SyncEvRow: "syncev" {
        /// Acting logical thread (`u64::MAX` for the external driver).
        pub thread: u64,
        /// Operation code ([`SyncOp::code`](sim_core::SyncOp::code)).
        pub op: u8,
        /// Synchronisation object id (lock, condvar, ring, cell), if any.
        pub object: Option<u64>,
        /// Other thread involved (woken waiter, spawned child, caller), if any.
        pub target: Option<u64>,
        /// Operation-specific payload (lock path, mutex id, ring slot).
        pub aux: u64,
        /// Human name of the object (shared cells, named locks); empty
        /// otherwise.
        pub label: String,
        /// Time of the event.
        pub time_ns: u64,
    }
}

record! {
    /// Per-slot summary of a fleet run. A *slot* is a logical client enclave
    /// managed by the fleet manager; its concrete enclave ids change across
    /// spin-ups and rebuilds, so the row aggregates by slot. Written only for
    /// fleet workloads — single-enclave traces carry no fleet table.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FleetRow: "fleet" {
        /// Slot index within the fleet (0-based zipf popularity rank order is
        /// workload-defined, not implied).
        pub slot: u32,
        /// Enclave creations for this slot (cold starts after pool retirement).
        pub spin_ups: u32,
        /// Supervisor rebuilds after enclave losses.
        pub restarts: u32,
        /// Requests routed to this slot.
        pub requests: u64,
        /// Requests completed successfully.
        pub completed: u64,
        /// Requests shed by the fleet circuit breaker.
        pub shed: u64,
        /// Requests that failed terminally (e.g. recovery exhausted).
        pub failed: u64,
        /// Median request latency in virtual nanoseconds (arrival → completion).
        pub p50_ns: u64,
        /// 99th-percentile request latency in virtual nanoseconds.
        pub p99_ns: u64,
        /// EPC pages paged in for this slot's enclaves.
        pub page_ins: u64,
        /// EPC pages of this slot's enclaves evicted by EPC pressure.
        pub page_outs: u64,
    }
}

record! {
    /// One observed enclave (from driver lifecycle events).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EnclaveRow: "enclaves" {
        /// Enclave id.
        pub enclave: u32,
        /// Total pages (power of two).
        pub total_pages: u64,
        /// Creation time.
        pub created_ns: u64,
    }
}

record! {
    /// One interface symbol (captured from the enclave's registered interface —
    /// the analogue of reading names from debug symbols / the EDL).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SymbolRow: "symbols" {
        /// Enclave id.
        pub enclave: u32,
        /// Ecall or ocall.
        pub kind_is_ecall: bool,
        /// Call index.
        pub index: u32,
        /// Function name.
        pub name: String,
        /// Ecalls: declared `public`. Ocalls: always `false`.
        pub public: bool,
        /// Ocalls: the declared `allow()` ecall indexes.
        pub allowed_ecalls: Vec<u32>,
        /// Names of parameters annotated `user_check`.
        pub user_check_params: Vec<String>,
    }
}

impl SymbolRow {
    /// The [`CallRef`] this symbol describes.
    pub fn call_ref(&self) -> CallRef {
        CallRef {
            enclave: self.enclave,
            kind: if self.kind_is_ecall {
                CallKind::Ecall
            } else {
                CallKind::Ocall
            },
            index: self.index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventdb::{Record, Table};

    fn roundtrip<R: Record + Clone + PartialEq + std::fmt::Debug>(rows: Vec<R>) {
        let table: Table<R> = rows.clone().into_iter().collect();
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Table::<R>::decode(&mut dec).unwrap();
        let got: Vec<R> = back.iter().cloned().collect();
        assert_eq!(got, rows);
    }

    #[test]
    fn ecall_row_roundtrip() {
        roundtrip(vec![
            EcallRow {
                thread: 1,
                enclave: 2,
                call_index: 3,
                start_ns: 4,
                end_ns: 5,
                parent_ocall: Some(6),
                aex_count: 7,
                failed: false,
            },
            EcallRow {
                thread: 0,
                enclave: 0,
                call_index: 0,
                start_ns: 0,
                end_ns: 0,
                parent_ocall: None,
                aex_count: 0,
                failed: true,
            },
        ]);
    }

    #[test]
    fn ocall_row_roundtrip() {
        roundtrip(vec![OcallRow {
            thread: 9,
            enclave: 1,
            call_index: 2,
            start_ns: 10,
            end_ns: 20,
            parent_ecall: Some(0),
            failed: false,
        }]);
    }

    #[test]
    fn aex_paging_sync_roundtrip() {
        roundtrip(vec![
            AexRow {
                thread: 1,
                enclave: 1,
                time_ns: 99,
                during_ecall: None,
                cause: None,
            },
            AexRow {
                thread: 2,
                enclave: 1,
                time_ns: 100,
                during_ecall: Some(4),
                cause: Some(AexCauseCode::PageFault),
            },
        ]);
        roundtrip(vec![PagingRow {
            enclave: 1,
            out: true,
            vaddr: 0x2000,
            time_ns: 5,
        }]);
        roundtrip(vec![SyncRow {
            thread: 2,
            time_ns: 7,
            sleep: false,
            target_thread: Some(3),
            ocall_row: 11,
        }]);
    }

    #[test]
    fn switchless_row_roundtrip() {
        roundtrip(vec![
            SwitchlessRow {
                thread: 1,
                enclave: 1,
                kind: 1, // OcallDispatched
                call_index: Some(3),
                worker: None,
                spins: 12,
                time_ns: 400,
            },
            SwitchlessRow {
                thread: 0,
                enclave: 1,
                kind: 4, // WorkerIdle
                call_index: None,
                worker: Some(0),
                spins: 0,
                time_ns: 500,
            },
        ]);
    }

    #[test]
    fn fault_row_roundtrip() {
        roundtrip(vec![
            FaultRow {
                thread: 1,
                enclave: 1,
                fault: 0, // aex-storm
                action: 0,
                call_index: None,
                magnitude: 6,
                time_ns: 1_000,
            },
            FaultRow {
                thread: 2,
                enclave: 1,
                fault: 4, // ocall-timeout
                action: 2,
                call_index: Some(1),
                magnitude: 2,
                time_ns: 9_999,
            },
        ]);
    }

    #[test]
    fn lifecycle_row_roundtrip() {
        roundtrip(vec![
            LifecycleRow {
                enclave: 1,
                stage: 0, // lost
                thread: 3,
                attempt: 0,
                magnitude: 0,
                time_ns: 500,
            },
            LifecycleRow {
                enclave: 2,
                stage: 4, // recovered
                thread: 3,
                attempt: 1,
                magnitude: 12_345,
                time_ns: 13_000,
            },
        ]);
    }

    #[test]
    fn syncev_row_roundtrip() {
        roundtrip(vec![
            SyncEvRow {
                thread: u64::MAX,
                op: 4, // thread-spawn
                object: None,
                target: Some(0),
                aux: 0,
                label: "client".into(),
                time_ns: 100,
            },
            SyncEvRow {
                thread: 0,
                op: 0, // lock-acquire
                object: Some(3),
                target: None,
                aux: (2 << 8) | 2, // slept twice
                label: "map_mutex".into(),
                time_ns: 2_000,
            },
            SyncEvRow {
                thread: 1,
                op: 9, // shared-write
                object: Some(5),
                target: None,
                aux: 0,
                label: "counter".into(),
                time_ns: 3_000,
            },
        ]);
    }

    #[test]
    fn fleet_row_roundtrip() {
        roundtrip(vec![
            FleetRow {
                slot: 0,
                spin_ups: 3,
                restarts: 1,
                requests: 12_000,
                completed: 11_990,
                shed: 8,
                failed: 2,
                p50_ns: 42_000,
                p99_ns: 910_000,
                page_ins: 512,
                page_outs: 480,
            },
            FleetRow {
                slot: 999,
                spin_ups: 1,
                restarts: 0,
                requests: 1,
                completed: 1,
                shed: 0,
                failed: 0,
                p50_ns: 7_000,
                p99_ns: 7_000,
                page_ins: 16,
                page_outs: 0,
            },
        ]);
    }

    #[test]
    fn symbol_row_roundtrip() {
        roundtrip(vec![SymbolRow {
            enclave: 1,
            kind_is_ecall: false,
            index: 4,
            name: "ocall_read".into(),
            public: false,
            allowed_ecalls: vec![0, 2],
            user_check_params: vec!["p".into()],
        }]);
    }

    #[test]
    fn call_ref_display() {
        let r = CallRef {
            enclave: 1,
            kind: CallKind::Ocall,
            index: 3,
        };
        assert_eq!(r.to_string(), "enclave1/ocall#3");
    }
}
