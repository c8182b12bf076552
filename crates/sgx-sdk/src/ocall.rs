//! Ocall tables and the untrusted-side call context.
//!
//! The SDK constructs a table mapping numeric ocall identifiers to function
//! pointers which is passed to `sgx_ecall` and saved for later use (Figure
//! 3 of the paper; here on the [`Enclave`]). Because the table is plain data, a
//! preloaded library can substitute its own table whose entries are
//! generated call stubs — exactly what the sgx-perf logger does.

use std::fmt;
use std::sync::Arc;

use sgx_edl::InterfaceSpec;
use sgx_sim::{EnclaveId, ThreadToken};
use sim_core::{Clock, Nanos};
use sim_threads::LogicalThreadId;

use crate::args::CallData;
use crate::enclave::Enclave;
use crate::error::{SdkError, SdkResult};
use crate::sync_ocalls;
use crate::thread_ctx::ThreadCtx;
use crate::urts::Urts;

/// An untrusted ocall implementation.
pub type OcallFn = Arc<dyn Fn(&mut HostCtx<'_>, &mut CallData) -> SdkResult<()> + Send + Sync>;

/// One slot of an [`OcallTable`].
#[derive(Clone)]
pub struct OcallEntry {
    /// The ocall's name (diagnostics and logger classification).
    pub name: String,
    /// The function pointer.
    pub func: OcallFn,
}

impl fmt::Debug for OcallEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OcallEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The per-enclave table mapping ocall indexes to untrusted functions.
#[derive(Debug, Clone, Default)]
pub struct OcallTable {
    entries: Vec<OcallEntry>,
}

impl OcallTable {
    /// The entry at `index`.
    pub fn entry(&self, index: usize) -> Option<&OcallEntry> {
        self.entries.get(index)
    }

    /// Finds the index of an ocall by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in index order.
    pub fn entries(&self) -> &[OcallEntry] {
        &self.entries
    }

    /// Produces a new table with every entry replaced by
    /// `wrap(index, name, original)` — the primitive the sgx-perf logger
    /// uses to generate its call-stub table (`oT_logger` in Figure 3).
    pub fn wrap(&self, mut wrap: impl FnMut(usize, &str, OcallFn) -> OcallFn) -> OcallTable {
        OcallTable {
            entries: self
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| OcallEntry {
                    name: e.name.clone(),
                    func: wrap(i, &e.name, Arc::clone(&e.func)),
                })
                .collect(),
        }
    }
}

/// Builds an [`OcallTable`] against an enclave interface, pre-registering
/// the SDK's four synchronisation ocalls with their standard untrusted
/// implementations (sleep = park the logical thread, wake = unpark).
pub struct OcallTableBuilder {
    names: Vec<String>,
    impls: Vec<Option<OcallFn>>,
}

impl fmt::Debug for OcallTableBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OcallTableBuilder")
            .field("names", &self.names)
            .finish_non_exhaustive()
    }
}

impl OcallTableBuilder {
    /// Starts a builder for the given interface. Slots exist for every
    /// declared ocall, in index order; sync ocalls found in the interface
    /// get their default implementations immediately.
    pub fn new(spec: &InterfaceSpec) -> OcallTableBuilder {
        let names: Vec<String> = spec.ocalls().iter().map(|o| o.name.clone()).collect();
        let impls = names.iter().map(|name| default_sync_impl(name)).collect();
        OcallTableBuilder { names, impls }
    }

    /// Registers the untrusted implementation of `name`.
    ///
    /// # Errors
    ///
    /// [`SdkError::BadOcall`] if the interface declares no such ocall.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&mut HostCtx<'_>, &mut CallData) -> SdkResult<()> + Send + Sync + 'static,
    ) -> SdkResult<&mut Self> {
        let idx = self
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SdkError::BadOcall(name.to_string()))?;
        self.impls[idx] = Some(Arc::new(f));
        Ok(self)
    }

    /// Finalises the table.
    ///
    /// # Errors
    ///
    /// [`SdkError::UnregisteredOcall`] if a declared ocall has no
    /// implementation.
    pub fn build(self) -> SdkResult<OcallTable> {
        let mut entries = Vec::with_capacity(self.names.len());
        for (name, func) in self.names.into_iter().zip(self.impls) {
            let func = func.ok_or_else(|| SdkError::UnregisteredOcall(name.clone()))?;
            entries.push(OcallEntry { name, func });
        }
        Ok(OcallTable { entries })
    }
}

/// Default implementations of the four SDK sync ocalls.
fn default_sync_impl(name: &str) -> Option<OcallFn> {
    match name {
        sync_ocalls::WAIT => Some(Arc::new(|host: &mut HostCtx<'_>, _data: &mut CallData| {
            host.park()
        })),
        sync_ocalls::SET => Some(Arc::new(|host: &mut HostCtx<'_>, data: &mut CallData| {
            // Wake-up ocalls are "typically very short (<10us)" (§2.3.2);
            // model the futex-wake syscall cost.
            host.compute(Nanos::from_nanos(800));
            host.unpark(ThreadToken(data.scalar as usize))
        })),
        sync_ocalls::SETWAIT => Some(Arc::new(|host: &mut HostCtx<'_>, data: &mut CallData| {
            host.compute(Nanos::from_nanos(800));
            host.unpark(ThreadToken(data.scalar as usize))?;
            host.park()
        })),
        sync_ocalls::SET_MULTIPLE => {
            Some(Arc::new(|host: &mut HostCtx<'_>, data: &mut CallData| {
                for &target in &data.aux.clone() {
                    host.compute(Nanos::from_nanos(400));
                    host.unpark(ThreadToken(target as usize))?;
                }
                Ok(())
            }))
        }
        _ => None,
    }
}

/// The untrusted execution context passed to ocall implementations.
///
/// Ocall bodies run outside the enclave: they can burn untrusted CPU time
/// ([`HostCtx::compute`]), re-enter the enclave through allowed nested
/// ecalls ([`HostCtx::ecall`] — dispatched through the loader, so
/// interposed libraries see them), and park/unpark logical threads (the
/// sync ocalls).
pub struct HostCtx<'a> {
    pub(crate) urts: &'a Urts,
    /// The enclave this ocall left.
    pub(crate) enclave: &'a Enclave,
    /// The calling thread.
    pub thread: ThreadCtx<'a>,
}

impl fmt::Debug for HostCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostCtx")
            .field("enclave", &self.enclave.id())
            .field("thread", &self.thread.token)
            .finish()
    }
}

impl<'a> HostCtx<'a> {
    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        self.urts.machine().clock()
    }

    /// The enclave this ocall left.
    pub fn enclave_id(&self) -> EnclaveId {
        self.enclave.id()
    }

    /// Performs `dur` of untrusted computation (no AEXs are modelled
    /// outside the enclave; plain clock advance).
    pub fn compute(&self, dur: Nanos) {
        self.clock().advance(dur);
    }

    /// Issues a nested ecall by name through the dynamic loader (so any
    /// preloaded interposition library observes it).
    ///
    /// # Errors
    ///
    /// Fails with [`SdkError::EcallNotAllowed`] if the current ocall's
    /// `allow()` list does not include the ecall, plus all usual dispatch
    /// errors.
    pub fn ecall(&self, name: &str, data: &mut CallData) -> SdkResult<()> {
        // Nested ecalls pass the enclave's saved table (the generated code
        // reuses it). An ocall only runs once a table is saved, so none
        // left means the enclave was destroyed since.
        let eid = self.enclave.id();
        let table = (self.enclave.saved_table()).map_err(|_| SdkError::UnknownEnclave(eid))?;
        let index = (self.enclave.spec().ecall_by_name(name))
            .ok_or_else(|| SdkError::BadEcall(name.to_string()))?
            .index;
        self.urts
            .loader()?
            .sgx_ecall(&self.thread, eid, index, &table, data)
    }

    /// Parks the calling logical thread until unparked.
    ///
    /// # Errors
    ///
    /// [`SdkError::NoSimulationThread`] outside a `sim_threads` simulation.
    pub fn park(&self) -> SdkResult<()> {
        let sim = self
            .thread
            .sim
            .ok_or_else(|| SdkError::NoSimulationThread(sync_ocalls::WAIT.to_string()))?;
        sim.park();
        Ok(())
    }

    /// Unparks the logical thread identified by `target`.
    ///
    /// # Errors
    ///
    /// [`SdkError::NoSimulationThread`] outside a `sim_threads` simulation.
    pub fn unpark(&self, target: ThreadToken) -> SdkResult<()> {
        let sim = self
            .thread
            .sim
            .ok_or_else(|| SdkError::NoSimulationThread(sync_ocalls::SET.to_string()))?;
        sim.unpark(LogicalThreadId(target.0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_edl::InterfaceBuilder;

    fn spec_with_sync() -> InterfaceSpec {
        crate::runtime::with_sync_ocalls(
            &InterfaceBuilder::new()
                .public_ecall("e", vec![])
                .ocall("o", vec![])
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn builder_prefills_sync_ocalls() {
        let spec = spec_with_sync();
        let mut b = OcallTableBuilder::new(&spec);
        b.register("o", |_, _| Ok(())).unwrap();
        let table = b.build().unwrap();
        assert_eq!(table.len(), 5);
        for name in sync_ocalls::ALL {
            assert!(table.index_of(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn unregistered_ocall_fails_build() {
        let spec = spec_with_sync();
        let b = OcallTableBuilder::new(&spec);
        let err = b.build().unwrap_err();
        assert!(matches!(err, SdkError::UnregisteredOcall(n) if n == "o"));
    }

    #[test]
    fn register_unknown_name_fails() {
        let spec = spec_with_sync();
        let mut b = OcallTableBuilder::new(&spec);
        let err = b.register("nope", |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, SdkError::BadOcall(_)));
    }

    #[test]
    fn wrap_preserves_names_and_order() {
        let spec = spec_with_sync();
        let mut b = OcallTableBuilder::new(&spec);
        b.register("o", |_, _| Ok(())).unwrap();
        let table = b.build().unwrap();
        let wrapped = table.wrap(|_, _, orig| orig);
        assert_eq!(wrapped.len(), table.len());
        for (a, b) in table.entries().iter().zip(wrapped.entries()) {
            assert_eq!(a.name, b.name);
        }
    }
}
