//! SDK error types.

use std::fmt;

use sgx_sim::{EnclaveId, SimError};

/// Result alias used throughout the SDK.
pub type SdkResult<T> = Result<T, SdkError>;

/// Errors returned by the simulated SDK — modelled on the `SGX_ERROR_*`
/// codes of the real SDK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdkError {
    /// The enclave id is not registered with the URTS.
    UnknownEnclave(EnclaveId),
    /// No ecall with that index/name exists in the interface.
    BadEcall(String),
    /// No ocall with that index/name exists in the ocall table.
    BadOcall(String),
    /// A trusted function was never registered for a declared ecall.
    UnregisteredEcall(String),
    /// An untrusted function was never registered for a declared ocall.
    UnregisteredOcall(String),
    /// A trusted function was registered a second time for the same
    /// ecall; the first registration stays.
    EcallAlreadyRegistered(String),
    /// The switchless subsystem was enabled a second time on the same
    /// enclave; the first one stays.
    SwitchlessAlreadyEnabled(EnclaveId),
    /// A private ecall was called while no ocall was in progress
    /// (`SGX_ERROR_ECALL_NOT_ALLOWED`).
    PrivateEcall(String),
    /// A nested ecall was issued from an ocall that does not allow it
    /// (`SGX_ERROR_OCALL_NOT_ALLOWED` family).
    EcallNotAllowed {
        /// The attempted ecall.
        ecall: String,
        /// The ocall it was attempted from.
        ocall: String,
    },
    /// All TCSs of the enclave are busy (`SGX_ERROR_OUT_OF_TCS`).
    OutOfTcs(EnclaveId),
    /// An ocall was issued but no ecall of this thread is in progress.
    OcallOutsideEcall(String),
    /// A synchronisation ocall needed logical-thread support but the call
    /// was made outside a `sim_threads` simulation.
    NoSimulationThread(String),
    /// The hardware layer failed.
    Sim(SimError),
    /// The enclave interface was invalid at registration time.
    Interface(String),
    /// An injected transient fault outlived the SDK's bounded retry
    /// budget and surfaced to the application.
    InjectedFault {
        /// The affected call (ocall name or `tcs` for TCS binding).
        call: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The enclave was lost (`SGX_ERROR_ENCLAVE_LOST`): a power transition
    /// or machine check destroyed its EPC contents. Retrying cannot help —
    /// the enclave must be destroyed, rebuilt and its state re-established
    /// (see [`crate::supervisor`]).
    EnclaveLost(EnclaveId),
    /// The supervisor's restart budget (circuit breaker) was exhausted
    /// while recovering from repeated enclave losses.
    RecoveryExhausted {
        /// The enclave that kept getting lost.
        enclave: EnclaveId,
        /// Restarts attempted before giving up.
        restarts: u32,
    },
}

impl fmt::Display for SdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdkError::UnknownEnclave(eid) => write!(f, "unknown {eid}"),
            SdkError::BadEcall(name) => write!(f, "no such ecall: {name}"),
            SdkError::BadOcall(name) => write!(f, "no such ocall: {name}"),
            SdkError::UnregisteredEcall(name) => {
                write!(f, "ecall `{name}` declared but not registered")
            }
            SdkError::UnregisteredOcall(name) => {
                write!(f, "ocall `{name}` declared but not registered")
            }
            SdkError::EcallAlreadyRegistered(name) => {
                write!(f, "ecall `{name}` already has a trusted function")
            }
            SdkError::SwitchlessAlreadyEnabled(eid) => {
                write!(f, "switchless calls are already enabled on {eid}")
            }
            SdkError::PrivateEcall(name) => write!(
                f,
                "private ecall `{name}` called outside an ocall (SGX_ERROR_ECALL_NOT_ALLOWED)"
            ),
            SdkError::EcallNotAllowed { ecall, ocall } => write!(
                f,
                "ecall `{ecall}` is not in the allow() list of ocall `{ocall}`"
            ),
            SdkError::OutOfTcs(eid) => write!(f, "all TCSs of {eid} are busy"),
            SdkError::OcallOutsideEcall(name) => {
                write!(f, "ocall `{name}` issued with no ecall in progress")
            }
            SdkError::NoSimulationThread(name) => write!(
                f,
                "sync ocall `{name}` requires a sim-threads logical thread"
            ),
            SdkError::Sim(e) => write!(f, "hardware: {e}"),
            SdkError::Interface(msg) => write!(f, "invalid interface: {msg}"),
            SdkError::InjectedFault { call, attempts } => write!(
                f,
                "injected fault on `{call}`: gave up after {attempts} attempt(s)"
            ),
            SdkError::EnclaveLost(eid) => {
                write!(f, "{eid} lost (SGX_ERROR_ENCLAVE_LOST): rebuild required")
            }
            SdkError::RecoveryExhausted { enclave, restarts } => write!(
                f,
                "recovery of {enclave} abandoned after {restarts} restart(s): circuit breaker open"
            ),
        }
    }
}

impl std::error::Error for SdkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdkError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SdkError {
    fn from(e: SimError) -> Self {
        match e {
            // A lost enclave is an application-visible condition with its
            // own SGX error code, not a generic hardware failure.
            SimError::EnclaveLost(eid) => SdkError::EnclaveLost(eid),
            other => SdkError::Sim(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SdkError::EcallNotAllowed {
            ecall: "e".into(),
            ocall: "o".into(),
        };
        assert!(e.to_string().contains("allow()"));
        let p = SdkError::PrivateEcall("secret".into());
        assert!(p.to_string().contains("ECALL_NOT_ALLOWED"));
    }

    #[test]
    fn sim_error_converts() {
        let e: SdkError = SimError::UnknownEnclave(EnclaveId(3)).into();
        assert!(matches!(e, SdkError::Sim(_)));
    }

    #[test]
    fn enclave_lost_maps_to_its_own_variant() {
        let e: SdkError = SimError::EnclaveLost(EnclaveId(7)).into();
        assert_eq!(e, SdkError::EnclaveLost(EnclaveId(7)));
        assert!(e.to_string().contains("ENCLAVE_LOST"));
    }
}
