//! Enclave lifecycle events: loss, rebuild, replay and recovery.
//!
//! A lost enclave (power transition, machine check — [`FaultKind::EnclaveLost`])
//! is not a transient fault: nothing inside the retry/backoff machinery can
//! bring it back, only a supervisor that rebuilds the enclave and replays
//! its state can. This module defines the events recovery reports: the
//! machine emits [`LifecycleStage::Lost`] when it destroys an enclave, and
//! the SDK supervisor emits the rebuild/replay/retry stages as it works the
//! enclave back, so the logger can reconstruct the full
//! mean-time-to-recovery ledger in virtual time.
//!
//! [`FaultKind::EnclaveLost`]: crate::fault::FaultKind::EnclaveLost

use crate::time::Nanos;

/// One stage of an enclave-loss recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// The enclave was destroyed (EPC contents gone).
    Lost,
    /// The supervisor rebuilt the enclave from its recipe; the magnitude
    /// is the rebuild duration in nanoseconds.
    Rebuild,
    /// The supervisor replayed a registered warm-up ecall; the magnitude
    /// is the replay duration in nanoseconds.
    Replay,
    /// The supervisor retried the interrupted call; the magnitude is the
    /// backoff charged before the retry, in nanoseconds.
    Retry,
    /// The interrupted call completed after recovery; the magnitude is the
    /// virtual-time MTTR (loss → completion) in nanoseconds.
    Recovered,
    /// The restart budget (circuit breaker) was exhausted; the loss
    /// surfaced as a terminal error.
    GaveUp,
}

impl LifecycleStage {
    /// Stable on-disk/event code for this stage.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            LifecycleStage::Lost => 0,
            LifecycleStage::Rebuild => 1,
            LifecycleStage::Replay => 2,
            LifecycleStage::Retry => 3,
            LifecycleStage::Recovered => 4,
            LifecycleStage::GaveUp => 5,
        }
    }

    /// Decodes a stage code; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<LifecycleStage> {
        match code {
            0 => Some(LifecycleStage::Lost),
            1 => Some(LifecycleStage::Rebuild),
            2 => Some(LifecycleStage::Replay),
            3 => Some(LifecycleStage::Retry),
            4 => Some(LifecycleStage::Recovered),
            5 => Some(LifecycleStage::GaveUp),
            _ => None,
        }
    }

    /// The human label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LifecycleStage::Lost => "lost",
            LifecycleStage::Rebuild => "rebuild",
            LifecycleStage::Replay => "replay",
            LifecycleStage::Retry => "retry",
            LifecycleStage::Recovered => "recovered",
            LifecycleStage::GaveUp => "gave-up",
        }
    }
}

/// One enclave lifecycle event, as observed by the logger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// The recovery stage.
    pub stage: LifecycleStage,
    /// The affected enclave.
    pub enclave: u32,
    /// Logical thread driving the recovery (or interrupted by the loss).
    pub thread: u64,
    /// Restart attempt this event belongs to (1-based; 0 for the loss
    /// itself).
    pub attempt: u32,
    /// Stage-specific magnitude, in nanoseconds (see [`LifecycleStage`]).
    pub magnitude: u64,
    /// Virtual time of the event.
    pub time: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_codes_roundtrip() {
        for stage in [
            LifecycleStage::Lost,
            LifecycleStage::Rebuild,
            LifecycleStage::Replay,
            LifecycleStage::Retry,
            LifecycleStage::Recovered,
            LifecycleStage::GaveUp,
        ] {
            assert_eq!(LifecycleStage::from_code(stage.code()), Some(stage));
            assert!(!stage.label().is_empty());
        }
        assert_eq!(LifecycleStage::from_code(99), None);
    }
}
