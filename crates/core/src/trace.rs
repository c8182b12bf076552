//! The trace database produced by the logger and consumed by the analyzer.

use std::path::Path;

use eventdb::{DbError, Record, Section, Store, StoreOf, Table};

use crate::events::{
    AexRow, EcallRow, EnclaveRow, FaultRow, FleetRow, LifecycleRow, OcallRow, PagingRow,
    SwitchlessRow, SymbolRow, SyncEvRow, SyncRow,
};

/// When a table is written to the store, and how a store without it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Presence {
    /// Always written; a store without it is rejected.
    Required,
    /// Always written; traces from before the table existed read as empty.
    Added,
    /// Written only when it has rows, so traces without such events stay
    /// byte-identical to those of versions before the table existed; a
    /// store without it reads as empty.
    WhenRows,
}

impl Presence {
    /// Whether `table` is written.
    fn writes<R>(self, table: &Table<R>) -> bool {
        self != Presence::WhenRows || !table.is_empty()
    }

    /// `table` as a section of the container, if it is written.
    fn section<R: Record>(self, table: &Table<R>) -> Option<&dyn Section> {
        self.writes(table).then_some(table)
    }

    fn put<R: Record>(self, store: &mut Store, table: &Table<R>) {
        if self.writes(table) {
            store.put(table);
        }
    }

    fn get<R: Record>(self, store: &StoreOf<'_>) -> Result<Table<R>, DbError> {
        match store.get() {
            Err(DbError::MissingTable(_)) if self != Presence::Required => Ok(Table::default()),
            got => got,
        }
    }

    /// [`Presence::get`] with every row read on the checked path alone.
    #[cfg(test)]
    fn get_checked<R: Record + Clone>(self, store: &StoreOf<'_>) -> Result<Table<R>, DbError> {
        let table = self.get::<Checked<R>>(store)?;
        Ok(table.iter().map(|row| row.0.clone()).collect())
    }
}

/// A row whose fast path always declines, so that [`Table::decode`]
/// reads each row with [`Record::decode`] alone.
#[cfg(test)]
struct Checked<R>(R);

#[cfg(test)]
impl<R: Record> Record for Checked<R> {
    const TAG: &'static str = R::TAG;
    const MIN_BYTES: usize = R::MIN_BYTES;

    fn encode(&self, out: &mut eventdb::Encoder) {
        self.0.encode(out);
    }

    fn decode(r: &mut eventdb::Decoder<'_>) -> Result<Self, DbError> {
        R::decode(r).map(Checked)
    }

    fn decode_fast(_: &mut eventdb::Decoder<'_>) -> Option<Self> {
        None
    }
}

/// Declares the trace's tables in file order, one `field: Row = Presence`
/// line each, and derives the [`TraceDb`] struct, its store mapping and
/// its per-table row counts from that list.
macro_rules! trace_tables {
    (
        $(#[$meta:meta])*
        pub struct TraceDb {
            $($(#[$doc:meta])* $field:ident: $row:ty = $presence:ident,)*
        }
    ) => {
        $(#[$meta])*
        pub struct TraceDb {
            $($(#[$doc])* pub $field: Table<$row>,)*
        }

        impl TraceDb {
            /// Serialises all tables into the container format in one
            /// pass, into one buffer of exactly their size. The bytes are
            /// those of [`to_store`](TraceDb::to_store)`().to_bytes()`.
            pub fn to_bytes(&self) -> Vec<u8> {
                let sections = [$(Presence::$presence.section(&self.$field)),*];
                eventdb::encode_container(sections.into_iter().flatten())
            }

            /// Lowers the trace to the generic table container — the form
            /// the crash-consistent segmented writer
            /// ([`eventdb::SegmentedWriter`]) serialises.
            pub fn to_store(&self) -> Store {
                let mut store = Store::new();
                $(Presence::$presence.put(&mut store, &self.$field);)*
                store
            }

            /// Parses a trace from a generic table container (e.g. one
            /// salvaged from a segmented recording), decoding each table
            /// straight from the store's section bytes.
            ///
            /// # Errors
            ///
            /// Corruption or missing tables.
            pub fn from_store(store: &StoreOf<'_>) -> Result<TraceDb, DbError> {
                Ok(TraceDb {
                    $($field: Presence::$presence.get(store)?,)*
                })
            }

            /// The tag and row count of every table, in file order.
            pub fn table_rows(&self) -> Vec<(&'static str, usize)> {
                vec![$((<$row as Record>::TAG, self.$field.len())),*]
            }
        }

        #[cfg(test)]
        impl TraceDb {
            /// Every table's tag and presence rule, in file order.
            const TABLES: &'static [(&'static str, Presence)] =
                &[$((<$row as Record>::TAG, Presence::$presence)),*];

            /// Parses a trace as [`TraceDb::from_store`] does, reading
            /// every row on the checked path alone
            /// ([`Record::decode`]): the model the fast path is held to.
            pub(crate) fn from_store_checked(store: &StoreOf<'_>) -> Result<TraceDb, DbError> {
                Ok(TraceDb {
                    $($field: Presence::$presence.get_checked(store)?,)*
                })
            }

            /// The tag and encoded byte length of every table, in file
            /// order.
            pub(crate) fn encoded_lens(&self) -> Vec<(&'static str, usize)> {
                vec![$((<$row as Record>::TAG, self.$field.encoded_len())),*]
            }

            /// A trace with one row in every table, each decoded from
            /// zero bytes.
            fn with_zero_rows() -> TraceDb {
                fn zero_row<R: Record>() -> Table<R> {
                    let row = R::decode(&mut eventdb::Decoder::new(&[0; 128]));
                    Table::from_iter([row.expect("every field decodes from zeros")])
                }
                TraceDb {
                    $($field: zero_row(),)*
                }
            }

            /// This trace's store with every table but `tag`, whatever
            /// its presence rule.
            fn store_without(&self, tag: &str) -> Store {
                let mut store = Store::new();
                $(if <$row as Record>::TAG != tag {
                    store.put(&self.$field);
                })*
                store
            }
        }
    };
}

trace_tables! {
    /// A complete sgx-perf trace: every table the logger records, serialisable
    /// to a single file (the SQLite stand-in — §4).
    ///
    /// # Examples
    ///
    /// ```
    /// use sgx_perf::TraceDb;
    ///
    /// let trace = TraceDb::default();
    /// let bytes = trace.to_bytes();
    /// let back = TraceDb::from_bytes(&bytes)?;
    /// assert_eq!(back.ecalls.len(), 0);
    /// # Ok::<(), eventdb::DbError>(())
    /// ```
    #[derive(Debug, Clone, Default)]
    pub struct TraceDb {
        /// Completed ecalls.
        ecalls: EcallRow = Required,
        /// Completed ocalls.
        ocalls: OcallRow = Required,
        /// Traced AEXs (only under [`AexMode::Trace`](crate::AexMode::Trace)).
        aex: AexRow = Required,
        /// EPC paging events.
        paging: PagingRow = Required,
        /// Sleep/wake classification of sync ocalls.
        sync: SyncRow = Required,
        /// Observed enclaves.
        enclaves: EnclaveRow = Required,
        /// Interface symbols.
        symbols: SymbolRow = Required,
        /// Switchless-subsystem events (dispatches, fallbacks, worker state).
        switchless: SwitchlessRow = Added,
        /// Injected faults and SDK recovery steps (the chaos harness).
        faults: FaultRow = WhenRows,
        /// Enclave losses and supervisor recovery steps.
        lifecycle: LifecycleRow = WhenRows,
        /// Synchronisation events (locks, condvars, threads, rings, shared
        /// cells) for the `sgxperf races` analyses.
        syncev: SyncEvRow = WhenRows,
        /// Per-slot fleet summaries (only fleet workloads write this).
        fleet: FleetRow = WhenRows,
    }
}

impl TraceDb {
    /// Parses a trace from container bytes, decoding every table in
    /// place: no section is copied.
    ///
    /// # Errors
    ///
    /// Corruption or missing tables.
    pub fn from_bytes(data: &[u8]) -> Result<TraceDb, DbError> {
        TraceDb::from_store(&Store::from_bytes(data)?)
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a trace from a file of either layout ([`Store::parse`]):
    /// the file is read once and its tables decode from those bytes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and corruption.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceDb, DbError> {
        let data = std::fs::read(path)?;
        TraceDb::from_store(&Store::parse(&data)?)
    }

    /// Total recorded call events (ecalls + ocalls).
    pub fn event_count(&self) -> usize {
        self.ecalls.len() + self.ocalls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_rows() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 100,
            end_ns: 200,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
        trace.paging.insert(PagingRow {
            enclave: 1,
            out: true,
            vaddr: 0x1000,
            time_ns: 150,
        });
        let back = TraceDb::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.ecalls.len(), 1);
        assert_eq!(back.paging.len(), 1);
        assert_eq!(back.event_count(), 1);
    }

    #[test]
    fn switchless_rows_roundtrip() {
        let mut trace = TraceDb::default();
        trace.switchless.insert(SwitchlessRow {
            thread: 1,
            enclave: 1,
            kind: 1,
            call_index: Some(0),
            worker: Some(0),
            spins: 3,
            time_ns: 42,
        });
        let back = TraceDb::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.switchless.len(), 1);
    }

    /// The store a version before the switchless table existed wrote,
    /// listed by hand rather than from the declared table list.
    fn pre_switchless_store(trace: &TraceDb) -> Store {
        let mut store = Store::new();
        store.put(&trace.ecalls);
        store.put(&trace.ocalls);
        store.put(&trace.aex);
        store.put(&trace.paging);
        store.put(&trace.sync);
        store.put(&trace.enclaves);
        store.put(&trace.symbols);
        store
    }

    /// Byte-compatibility contract: an empty trace writes the same store as
    /// a version before the chaos harness, whose last table was switchless.
    fn assert_empty_trace_writes_pre_chaos_bytes() {
        let trace = TraceDb::default();
        let mut old_style = pre_switchless_store(&trace);
        old_style.put(&trace.switchless);
        assert_eq!(trace.to_bytes(), old_style.to_bytes());
    }

    #[test]
    fn traces_without_a_switchless_table_still_load() {
        let store = pre_switchless_store(&TraceDb::default());
        let back = TraceDb::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back.switchless.len(), 0);
        assert_eq!(back.faults.len(), 0);
        assert_eq!(back.lifecycle.len(), 0);
    }

    #[test]
    fn fault_free_traces_serialise_without_a_fault_table() {
        assert_empty_trace_writes_pre_chaos_bytes();
        let mut faulted = TraceDb::default();
        faulted.faults.insert(FaultRow {
            thread: 1,
            enclave: 1,
            fault: 0,
            action: 0,
            call_index: None,
            magnitude: 6,
            time_ns: 7,
        });
        let back = TraceDb::from_bytes(&faulted.to_bytes()).unwrap();
        assert_eq!(back.faults.len(), 1);
    }

    #[test]
    fn recovery_free_traces_serialise_without_a_lifecycle_table() {
        assert_empty_trace_writes_pre_chaos_bytes();
        let mut recovered = TraceDb::default();
        recovered.lifecycle.insert(LifecycleRow {
            enclave: 1,
            stage: 0,
            thread: 2,
            attempt: 0,
            magnitude: 0,
            time_ns: 9,
        });
        let back = TraceDb::from_bytes(&recovered.to_bytes()).unwrap();
        assert_eq!(back.lifecycle.len(), 1);
    }

    #[test]
    fn sync_free_traces_serialise_without_a_syncev_table() {
        assert_empty_trace_writes_pre_chaos_bytes();
        let mut synced = TraceDb::default();
        synced.syncev.insert(SyncEvRow {
            thread: 0,
            op: 0,
            object: Some(1),
            target: None,
            aux: 0,
            label: "m".into(),
            time_ns: 11,
        });
        let back = TraceDb::from_bytes(&synced.to_bytes()).unwrap();
        assert_eq!(back.syncev.len(), 1);
    }

    #[test]
    fn fleet_free_traces_serialise_without_a_fleet_table() {
        assert_empty_trace_writes_pre_chaos_bytes();
        let mut fleet = TraceDb::default();
        fleet.fleet.insert(FleetRow {
            slot: 4,
            spin_ups: 1,
            restarts: 0,
            requests: 10,
            completed: 10,
            shed: 0,
            failed: 0,
            p50_ns: 100,
            p99_ns: 200,
            page_ins: 3,
            page_outs: 1,
        });
        let back = TraceDb::from_bytes(&fleet.to_bytes()).unwrap();
        assert_eq!(back.fleet.len(), 1);
        assert_eq!(back.fleet.iter().next().unwrap().slot, 4);
    }

    #[test]
    fn every_table_follows_its_presence_rule() {
        let full = TraceDb::with_zero_rows();
        let store = full.to_store();
        let tags: Vec<&str> = TraceDb::TABLES.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(
            store.tags(),
            tags,
            "tables with rows are all written, in order"
        );
        let back = TraceDb::from_store(&store).unwrap();
        assert!(back.table_rows().iter().all(|&(_, rows)| rows == 1));
        assert_eq!(back.to_bytes(), store.to_bytes());

        // An empty trace writes every table but the `WhenRows` ones, so a
        // trace without such events keeps the bytes of older versions.
        let always: Vec<&str> = TraceDb::TABLES
            .iter()
            .filter(|&&(_, presence)| presence != Presence::WhenRows)
            .map(|&(tag, _)| tag)
            .collect();
        assert_eq!(TraceDb::default().to_store().tags(), always);

        // A store without one table, as written before that table existed.
        for &(tag, presence) in TraceDb::TABLES {
            let old = full.store_without(tag);
            match TraceDb::from_store(&old) {
                Err(DbError::MissingTable(missing)) => {
                    assert_eq!((presence, missing), (Presence::Required, tag));
                }
                Ok(back) => {
                    assert_ne!(
                        presence,
                        Presence::Required,
                        "{tag} loaded without its table"
                    );
                    for (other, rows) in back.table_rows() {
                        assert_eq!(rows, usize::from(other != tag), "{tag}: {other}");
                    }
                    if presence == Presence::WhenRows {
                        assert_eq!(back.to_bytes(), old.to_bytes(), "{tag}");
                    }
                }
                Err(e) => panic!("{tag}: {e}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("sgx-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.evdb");
        let trace = TraceDb::default();
        trace.save(&path).unwrap();
        let back = TraceDb::load(&path).unwrap();
        assert_eq!(back.event_count(), 0);
        std::fs::remove_file(path).unwrap();
    }
}
