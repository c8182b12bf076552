//! A small SQLite-like storage engine: page-structured table file with a
//! rollback journal, autocommit transactions and a B-tree index.
//!
//! Real data structures, virtual I/O: the row index is an actual
//! `BTreeMap`, page assignments and journal offsets are computed for real,
//! and every file operation goes through the [`Vfs`] so
//! the I/O pattern — the thing sgx-perf traces — is authentic:
//!
//! one autocommit `INSERT` performs
//! 1. journal header write        (`lseek` + `write`)
//! 2. original-page backup write  (`lseek` + `write`)
//! 3. journal commit marker       (`lseek` + `write`)
//! 4. table page write            (`lseek` + `write`)
//! 5. database header update      (`lseek` + `write`)
//! 6. `fsync`
//!
//! i.e. five lseek+write pairs and one fsync — each pair a merge
//! opportunity for the sgx-perf analyzer.

use std::collections::BTreeMap;

use sgx_sdk::SdkResult;
use sim_core::Nanos;

use super::vfs::Vfs;

/// Size of one database page in bytes.
pub const DB_PAGE: usize = 4096;

const JOURNAL_HEADER: usize = 512;
const COMMIT_MARKER: usize = 8;
const DB_HEADER: usize = 100;

// CPU cost model of the engine itself (runs inside the enclave in the
// enclavised variants).

/// Statement parse/plan cost.
const PARSE_BASE: Nanos = Nanos::from_nanos(8_500);
/// Additional parse cost per row byte.
const PARSE_PER_BYTE_TENTH_NS: u64 = 20; // 2 ns per byte
/// B-tree descend/insert base cost.
const BTREE_BASE: Nanos = Nanos::from_nanos(3_000);
/// Additional B-tree cost per level.
const BTREE_PER_LEVEL: Nanos = Nanos::from_nanos(350);
/// Page (de)serialisation cost.
const PAGE_CODEC: Nanos = Nanos::from_nanos(2_500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowMeta {
    page: u64,
    len: usize,
}

/// The storage engine. In the enclavised variants this state lives inside
/// the enclave.
#[derive(Debug)]
pub struct Engine {
    index: BTreeMap<u64, RowMeta>,
    /// Bytes used in the currently-filling table page.
    page_fill: usize,
    /// Number of allocated table pages.
    pages: u64,
    /// Monotonic journal generation.
    journal_gen: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Creates an empty database.
    pub fn new() -> Engine {
        Engine {
            index: BTreeMap::new(),
            page_fill: 0,
            pages: 1,
            journal_gen: 0,
        }
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.index.len()
    }

    /// Number of allocated table pages.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Depth of the (simulated) B-tree for the current row count.
    fn btree_depth(&self) -> u64 {
        // Fanout ~256: depth grows with log256(rows).
        (64 - (self.index.len() as u64 | 1).leading_zeros() as u64) / 8 + 1
    }

    /// Inserts one row in its own autocommit transaction, performing the
    /// full journal + page write + fsync protocol through `vfs`.
    ///
    /// Returns `false` (without I/O) if the key already exists.
    ///
    /// # Errors
    ///
    /// Propagates VFS failures (ocall errors in the enclavised variants).
    pub fn insert(&mut self, key: u64, row_len: usize, vfs: &mut dyn Vfs) -> SdkResult<bool> {
        // Parse + plan.
        vfs.compute(PARSE_BASE + Nanos::from_nanos(row_len as u64 * PARSE_PER_BYTE_TENTH_NS / 10))?;
        // B-tree descend.
        vfs.compute(BTREE_BASE + BTREE_PER_LEVEL * self.btree_depth())?;
        if self.index.contains_key(&key) {
            return Ok(false);
        }

        // Allocate space in the current table page.
        if self.page_fill + row_len > DB_PAGE {
            self.pages += 1;
            self.page_fill = 0;
        }
        let page = self.pages - 1;
        self.page_fill += row_len;
        self.index.insert(key, RowMeta { page, len: row_len });

        // --- autocommit transaction ---
        self.journal_gen += 1;
        let journal_base = 1 << 40; // journal file "offset space"
                                    // 1. journal header
        vfs.lseek_write(journal_base, JOURNAL_HEADER)?;
        // 2. original page backup
        vfs.compute(PAGE_CODEC)?;
        vfs.lseek_write(journal_base + JOURNAL_HEADER as u64, DB_PAGE)?;
        // 3. commit marker
        vfs.lseek_write(
            journal_base + (JOURNAL_HEADER + DB_PAGE) as u64,
            COMMIT_MARKER,
        )?;
        // 4. table page
        vfs.compute(PAGE_CODEC)?;
        vfs.lseek_write(page * DB_PAGE as u64 + DB_HEADER as u64, DB_PAGE)?;
        // 5. database header (change counter)
        vfs.lseek_write(0, DB_HEADER)?;
        // 6. flush
        vfs.fsync()?;
        Ok(true)
    }

    /// Point lookup; charges B-tree descend cost only (pages are cached).
    ///
    /// # Errors
    ///
    /// Propagates VFS failures.
    pub fn lookup(&self, key: u64, vfs: &mut dyn Vfs) -> SdkResult<Option<usize>> {
        vfs.compute(BTREE_BASE + BTREE_PER_LEVEL * self.btree_depth())?;
        Ok(self.index.get(&key).map(|m| m.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqlitedb::vfs::NativeVfs;
    use sim_core::Clock;

    fn native_vfs(clock: &Clock) -> NativeVfs {
        NativeVfs::new(clock.clone(), 42)
    }

    #[test]
    fn insert_and_lookup_roundtrip() {
        let clock = Clock::new();
        let mut vfs = native_vfs(&clock);
        let mut engine = Engine::default();
        assert!(engine.insert(7, 100, &mut vfs).unwrap());
        assert_eq!(engine.lookup(7, &mut vfs).unwrap(), Some(100));
        assert_eq!(engine.lookup(8, &mut vfs).unwrap(), None);
        assert_eq!(engine.row_count(), 1);
    }

    #[test]
    fn duplicate_insert_is_rejected_without_io() {
        let clock = Clock::new();
        let mut vfs = native_vfs(&clock);
        let mut engine = Engine::default();
        engine.insert(1, 50, &mut vfs).unwrap();
        let before = clock.now();
        assert!(!engine.insert(1, 50, &mut vfs).unwrap());
        let dup_cost = clock.now() - before;
        // Only parse + descend, no journal protocol (~12 us vs ~43 us).
        assert!(dup_cost < Nanos::from_micros(16), "{dup_cost}");
    }

    #[test]
    fn pages_fill_and_roll_over() {
        let clock = Clock::new();
        let mut vfs = native_vfs(&clock);
        let mut engine = Engine::default();
        // 500-byte rows: 8 per page.
        for key in 0..17 {
            engine.insert(key, 500, &mut vfs).unwrap();
        }
        assert_eq!(engine.page_count(), 3);
    }

    #[test]
    fn insert_cost_is_in_expected_range() {
        // Native per-insert cost calibration target: ~30-40 us so the
        // native throughput lands near the paper's 23k req/s scale.
        let clock = Clock::new();
        let mut vfs = native_vfs(&clock);
        let mut engine = Engine::default();
        let n = 1000u64;
        let before = clock.now();
        for key in 0..n {
            engine.insert(key, 200, &mut vfs).unwrap();
        }
        let per_insert = (clock.now() - before) / n;
        assert!(
            (Nanos::from_micros(25)..Nanos::from_micros(55)).contains(&per_insert),
            "per-insert {per_insert}"
        );
    }

    #[test]
    fn btree_depth_grows_slowly() {
        let mut engine = Engine::default();
        assert_eq!(engine.btree_depth(), 1);
        let clock = Clock::new();
        let mut vfs = native_vfs(&clock);
        for key in 0..300 {
            engine.insert(key, 10, &mut vfs).unwrap();
        }
        assert_eq!(engine.btree_depth(), 2);
    }
}
