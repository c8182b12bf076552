//! Enclave memory layout.
//!
//! Mirrors §2.3.3: an enclave consists of one metadata page, its code and
//! data, the heap, and — per configured thread — a TCS page, SSA pages, a
//! stack and guard pages. Heap and stack sizes are fixed at build time via
//! the enclave configuration, and the total size is rounded up to a power of
//! two with padding pages (which are part of the measurement but normally
//! never accessed — §4.2).

use std::ops::Range;

use crate::page::Perms;

/// Size of one page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Number of SSA (State Save Area) pages per thread.
const SSA_PAGES_PER_THREAD: usize = 2;

/// What a given enclave page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// The SECS-like metadata page (size, measurement, attributes).
    Metadata,
    /// Thread Control Structure: one per configured enclave thread.
    Tcs,
    /// State Save Area used on asynchronous exits.
    Ssa,
    /// Executable enclave code.
    Code,
    /// Initialised global data.
    Data,
    /// Enclave heap.
    Heap,
    /// Per-thread stack.
    Stack,
    /// Guard page (never mapped accessible).
    Guard,
    /// Padding up to the power-of-two enclave size.
    Padding,
}

impl PageKind {
    /// The MMU permissions this page kind naturally carries.
    pub fn natural_perms(self) -> Perms {
        match self {
            PageKind::Code => Perms::RX,
            PageKind::Tcs | PageKind::Ssa | PageKind::Data | PageKind::Heap | PageKind::Stack => {
                Perms::RW
            }
            PageKind::Metadata | PageKind::Guard | PageKind::Padding => Perms::NONE,
        }
    }

    /// Whether the page is ever legitimately touched during execution.
    pub fn is_accessible(self) -> bool {
        !self.natural_perms().is_none()
    }
}

/// Build-time enclave configuration — the analogue of the SDK's enclave
/// configuration XML (heap size, stack size, TCS number) plus code/data
/// sizes that in reality come from the enclave binary.
///
/// # Examples
///
/// ```
/// use sgx_sim::{EnclaveConfig, EnclaveLayout};
///
/// let config = EnclaveConfig {
///     heap_kib: 512,
///     tcs_count: 4,
///     ..EnclaveConfig::default()
/// };
/// let layout = EnclaveLayout::new(&config);
/// assert!(layout.total_pages().is_power_of_two());
/// assert_eq!(layout.tcs_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveConfig {
    /// Size of the code section in KiB.
    pub code_kib: usize,
    /// Size of the initialised data section in KiB.
    pub data_kib: usize,
    /// Heap size in KiB.
    pub heap_kib: usize,
    /// Stack size per thread in KiB.
    pub stack_kib: usize,
    /// Number of TCSs = maximum concurrent threads inside the enclave.
    pub tcs_count: usize,
    /// Whether the enclave is a debug enclave (inspectable by tooling).
    pub debug: bool,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            code_kib: 64,
            data_kib: 16,
            heap_kib: 256,
            stack_kib: 64,
            tcs_count: 1,
            debug: true,
        }
    }
}

impl EnclaveConfig {
    fn pages(kib: usize) -> usize {
        (kib * 1024).div_ceil(PAGE_SIZE)
    }

    /// A stand-in for the enclave measurement (MRENCLAVE): an FNV-1a hash of
    /// the layout-determining fields. Two enclaves built from the same
    /// configuration have the same measurement.
    pub fn measurement(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for v in [
            self.code_kib,
            self.data_kib,
            self.heap_kib,
            self.stack_kib,
            self.tcs_count,
            usize::from(self.debug),
        ] {
            h ^= v as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// The concrete page map of an enclave built from an [`EnclaveConfig`].
#[derive(Debug, Clone)]
pub struct EnclaveLayout {
    kinds: Vec<PageKind>,
    code: Range<usize>,
    data: Range<usize>,
    heap: Range<usize>,
    /// Per-thread (tcs_page, ssa_range, stack_range).
    threads: Vec<ThreadPages>,
    measurement: u64,
}

/// Page indices belonging to one enclave thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPages {
    /// Index of the TCS page.
    pub tcs: usize,
    /// SSA page range.
    pub ssa: Range<usize>,
    /// Stack page range (excluding guards).
    pub stack: Range<usize>,
}

impl EnclaveLayout {
    /// Computes the layout for a configuration.
    pub fn new(config: &EnclaveConfig) -> EnclaveLayout {
        let mut kinds = vec![PageKind::Metadata];
        let push_range = |kinds: &mut Vec<PageKind>, kind: PageKind, n: usize| -> Range<usize> {
            let start = kinds.len();
            kinds.extend(std::iter::repeat_n(kind, n));
            start..kinds.len()
        };
        let code = push_range(
            &mut kinds,
            PageKind::Code,
            EnclaveConfig::pages(config.code_kib),
        );
        let data = push_range(
            &mut kinds,
            PageKind::Data,
            EnclaveConfig::pages(config.data_kib),
        );
        let heap = push_range(
            &mut kinds,
            PageKind::Heap,
            EnclaveConfig::pages(config.heap_kib),
        );
        let mut threads = Vec::with_capacity(config.tcs_count);
        for _ in 0..config.tcs_count {
            let tcs = kinds.len();
            kinds.push(PageKind::Tcs);
            let ssa = push_range(&mut kinds, PageKind::Ssa, SSA_PAGES_PER_THREAD);
            kinds.push(PageKind::Guard);
            let stack = push_range(
                &mut kinds,
                PageKind::Stack,
                EnclaveConfig::pages(config.stack_kib),
            );
            kinds.push(PageKind::Guard);
            threads.push(ThreadPages { tcs, ssa, stack });
        }
        let total = kinds.len().next_power_of_two();
        kinds.resize(total, PageKind::Padding);
        EnclaveLayout {
            kinds,
            code,
            data,
            heap,
            threads,
            measurement: config.measurement(),
        }
    }

    /// Total number of pages including padding; always a power of two.
    pub fn total_pages(&self) -> usize {
        self.kinds.len()
    }

    /// The kind of page `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn kind(&self, index: usize) -> PageKind {
        self.kinds[index]
    }

    /// Iterator over all page kinds in layout order.
    pub fn iter(&self) -> impl Iterator<Item = PageKind> + '_ {
        self.kinds.iter().copied()
    }

    /// Page range of the code section.
    pub fn code_range(&self) -> Range<usize> {
        self.code.clone()
    }

    /// Page range of the data section.
    pub fn data_range(&self) -> Range<usize> {
        self.data.clone()
    }

    /// Page range of the heap.
    pub fn heap_range(&self) -> Range<usize> {
        self.heap.clone()
    }

    /// Per-thread page assignments.
    pub fn thread_pages(&self) -> &[ThreadPages] {
        &self.threads
    }

    /// Number of TCSs (maximum concurrent enclave threads).
    pub fn tcs_count(&self) -> usize {
        self.threads.len()
    }

    /// The enclave measurement.
    pub fn measurement(&self) -> u64 {
        self.measurement
    }

    /// Pages that are legitimately accessible (everything but guards,
    /// padding and the metadata page).
    pub fn accessible_pages(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_accessible()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_power_of_two() {
        let layout = EnclaveLayout::new(&EnclaveConfig::default());
        assert!(layout.total_pages().is_power_of_two());
        assert_eq!(layout.kind(0), PageKind::Metadata);
    }

    #[test]
    fn regions_do_not_overlap() {
        let config = EnclaveConfig {
            tcs_count: 3,
            ..EnclaveConfig::default()
        };
        let layout = EnclaveLayout::new(&config);
        let mut seen = vec![false; layout.total_pages()];
        let mut claim = |range: Range<usize>| {
            for i in range {
                assert!(!seen[i], "page {i} claimed twice");
                seen[i] = true;
            }
        };
        claim(layout.code_range());
        claim(layout.data_range());
        claim(layout.heap_range());
        for t in layout.thread_pages() {
            claim(t.tcs..t.tcs + 1);
            claim(t.ssa.clone());
            claim(t.stack.clone());
        }
    }

    #[test]
    fn thread_pages_match_config() {
        let config = EnclaveConfig {
            stack_kib: 8,
            tcs_count: 2,
            ..EnclaveConfig::default()
        };
        let layout = EnclaveLayout::new(&config);
        assert_eq!(layout.tcs_count(), 2);
        for t in layout.thread_pages() {
            assert_eq!(layout.kind(t.tcs), PageKind::Tcs);
            assert_eq!(t.stack.len(), 2); // 8 KiB = 2 pages
                                          // Stacks are bracketed by guard pages.
            assert_eq!(layout.kind(t.stack.start - 1), PageKind::Guard);
            assert_eq!(layout.kind(t.stack.end), PageKind::Guard);
        }
    }

    #[test]
    fn padding_fills_to_power_of_two() {
        let layout = EnclaveLayout::new(&EnclaveConfig::default());
        let padding = layout.iter().filter(|k| *k == PageKind::Padding).count();
        let non_padding = layout.total_pages() - padding;
        assert!(non_padding <= layout.total_pages());
        assert!(layout.total_pages() < non_padding * 2 || layout.total_pages() == 1);
    }

    #[test]
    fn measurement_is_stable_and_config_sensitive() {
        let a = EnclaveConfig::default();
        let b = EnclaveConfig {
            heap_kib: a.heap_kib + 4,
            ..a.clone()
        };
        assert_eq!(a.measurement(), EnclaveConfig::default().measurement());
        assert_ne!(a.measurement(), b.measurement());
        assert_eq!(EnclaveLayout::new(&a).measurement(), a.measurement());
    }

    #[test]
    fn accessible_pages_excludes_guards_and_padding() {
        let layout = EnclaveLayout::new(&EnclaveConfig::default());
        let guards_padding_meta = layout
            .iter()
            .filter(|k| matches!(k, PageKind::Guard | PageKind::Padding | PageKind::Metadata))
            .count();
        assert_eq!(
            layout.accessible_pages() + guards_padding_meta,
            layout.total_pages()
        );
    }
}
