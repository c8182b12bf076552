//! Page permissions and per-page state.

use std::fmt;

use crate::layout::PageKind;

/// MMU page permissions (the OS-controlled page-table bits, *not* the SGX
/// EPCM permissions, which are fixed at enclave creation in SGX v1).
///
/// The working-set estimator works by stripping these and catching the
/// resulting access faults; SGX permissions are checked second and remain
/// intact (§4.2).
///
/// # Examples
///
/// ```
/// use sgx_sim::Perms;
///
/// let rw = Perms::READ | Perms::WRITE;
/// assert!(rw.allows(Perms::READ));
/// assert!(!rw.allows(Perms::EXEC));
/// assert_eq!(rw.to_string(), "rw-");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms(u8);

impl Perms {
    /// No access.
    pub const NONE: Perms = Perms(0);
    /// Read access.
    pub const READ: Perms = Perms(1);
    /// Write access.
    pub const WRITE: Perms = Perms(2);
    /// Execute access.
    pub const EXEC: Perms = Perms(4);
    /// Read + write.
    pub const RW: Perms = Perms(3);
    /// Read + execute.
    pub const RX: Perms = Perms(5);

    /// Whether every permission bit in `needed` is present.
    pub const fn allows(self, needed: Perms) -> bool {
        self.0 & needed.0 == needed.0
    }

    /// Whether no permission bit is set.
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Perms {
    type Output = Perms;
    fn bitor(self, rhs: Perms) -> Perms {
        Perms(self.0 | rhs.0)
    }
}

impl std::ops::BitAnd for Perms {
    type Output = Perms;
    fn bitand(self, rhs: Perms) -> Perms {
        Perms(self.0 & rhs.0)
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.allows(Perms::READ) { 'r' } else { '-' },
            if self.allows(Perms::WRITE) { 'w' } else { '-' },
            if self.allows(Perms::EXEC) { 'x' } else { '-' },
        )
    }
}

/// State of one enclave page inside the simulated machine. Whether the
/// page is resident is the EPC's record, not the page's.
#[derive(Debug, Clone)]
pub(crate) struct PageState {
    pub kind: PageKind,
    /// Current MMU permissions; a working-set fault restores the kind's
    /// natural ones.
    pub mmu_perms: Perms,
}

impl PageState {
    pub fn new(kind: PageKind) -> PageState {
        PageState {
            kind,
            mmu_perms: kind.natural_perms(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_combination() {
        let p = Perms::READ | Perms::EXEC;
        assert_eq!(p, Perms::RX);
        assert!(p.allows(Perms::READ));
        assert!(p.allows(Perms::EXEC));
        assert!(!p.allows(Perms::WRITE));
        assert!(!p.allows(Perms::RW));
    }

    #[test]
    fn none_allows_nothing_but_none() {
        assert!(Perms::NONE.is_none());
        assert!(Perms::NONE.allows(Perms::NONE));
        assert!(!Perms::NONE.allows(Perms::READ));
    }

    #[test]
    fn display_is_unix_style() {
        assert_eq!(Perms::NONE.to_string(), "---");
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!((Perms::RW | Perms::EXEC).to_string(), "rwx");
    }

    #[test]
    fn page_state_starts_non_resident_with_natural_perms() {
        let st = PageState::new(PageKind::Heap);
        assert_eq!(st.mmu_perms, Perms::RW);
    }
}
