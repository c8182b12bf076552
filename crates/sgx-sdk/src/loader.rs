//! The dynamic-loader model with `LD_PRELOAD`-style interposition.
//!
//! On a real system the sgx-perf logger is a shared library preloaded via
//! `LD_PRELOAD`; the dynamic linker then resolves the application's calls
//! to `sgx_ecall` to the logger's shadow implementation, which forwards to
//! the real URTS (Figure 2). [`Loader`] reproduces that resolution step:
//! the application always calls [`Loader::sgx_ecall`]; [`Loader::preload`]
//! pushes an interposing [`EcallDispatcher`] on top of the chain. The
//! logger's `signal`/`sigaction` shadowing is not modelled.

use std::sync::Arc;

use sgx_sim::EnclaveId;
use sim_core::sync::{AppendList, Mutex};

use crate::args::CallData;
use crate::error::SdkResult;
use crate::ocall::OcallTable;
use crate::thread_ctx::ThreadCtx;
use crate::urts::Urts;

/// Anything that can stand in the `sgx_ecall` resolution chain: the real
/// URTS at the bottom, interposition libraries above it.
pub trait EcallDispatcher: Send + Sync {
    /// Dispatches an ecall. Interposers record what they need and forward
    /// to the next dispatcher in the chain.
    fn sgx_ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()>;
}

/// The process's symbol-resolution state for the SDK entry points.
pub struct Loader {
    /// The URTS, then each preloaded library in load order; the last one
    /// is the top. Read without a lock.
    chain: AppendList<Arc<dyn EcallDispatcher>>,
    /// Serialises preloads, so each wraps the one before it.
    preloading: Mutex<()>,
}

impl std::fmt::Debug for Loader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loader").finish_non_exhaustive()
    }
}

impl Loader {
    pub(crate) fn new(urts: Arc<Urts>) -> Loader {
        let chain = AppendList::new();
        chain.push(urts as Arc<dyn EcallDispatcher>);
        Loader {
            chain,
            preloading: Mutex::new(()),
        }
    }

    fn top(&self) -> &Arc<dyn EcallDispatcher> {
        self.chain.last().expect("the chain starts with the URTS")
    }

    /// Preloads an interposition library: `wrap` receives the current top
    /// of the chain (what `dlsym(RTLD_NEXT, "sgx_ecall")` would return) and
    /// produces the new top.
    pub fn preload(&self, wrap: impl FnOnce(Arc<dyn EcallDispatcher>) -> Arc<dyn EcallDispatcher>) {
        let _preloading = self.preloading.lock();
        self.chain.push(wrap(Arc::clone(self.top())));
    }

    /// The application-facing `sgx_ecall` symbol: resolves to the top of
    /// the preload chain.
    ///
    /// # Errors
    ///
    /// Whatever the dispatch chain returns (unknown enclave, interface
    /// violations, hardware errors, ...).
    pub fn sgx_ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        self.top().sgx_ecall(tcx, eid, index, table, data)
    }
}
