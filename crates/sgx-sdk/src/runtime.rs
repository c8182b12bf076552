//! The process-level runtime tying machine, URTS and loader together.

use std::sync::Arc;

use sgx_edl::{InterfaceBuilder, InterfaceSpec, ParamSpec};
use sgx_sim::{EnclaveConfig, EnclaveId, Machine};
use sim_core::sync::Mutex;

use crate::args::CallData;
use crate::enclave::Enclave;
use crate::error::{SdkError, SdkResult};
use crate::loader::Loader;
use crate::ocall::OcallTable;
use crate::switchless::{Switchless, SwitchlessConfig};
use crate::sync_ocalls;
use crate::thread_ctx::ThreadCtx;
use crate::urts::Urts;

/// Extends an interface with the SDK's implicitly imported synchronisation
/// ocalls (the real SDK pulls them in from `sgx_tstdc.edl`). Already-present
/// names are kept as declared.
pub fn with_sync_ocalls(spec: &InterfaceSpec) -> SdkResult<InterfaceSpec> {
    let mut builder = InterfaceBuilder::new();
    for e in spec.ecalls() {
        builder = if e.public {
            builder.public_ecall(&e.name, e.params.clone())
        } else {
            builder.private_ecall(&e.name, e.params.clone())
        };
        if e.switchless {
            builder = builder.switchless();
        }
    }
    for o in spec.ocalls() {
        let allowed: Vec<String> = o
            .allowed_ecalls
            .iter()
            .map(|&i| spec.ecalls()[i].name.clone())
            .collect();
        let allowed_refs: Vec<&str> = allowed.iter().map(String::as_str).collect();
        builder = builder.ocall_allowing(&o.name, o.params.clone(), &allowed_refs);
        if o.switchless {
            builder = builder.switchless();
        }
    }
    for name in sync_ocalls::ALL {
        if spec.ocall_by_name(name).is_none() {
            builder = builder.ocall(name, vec![ParamSpec::value("target", "uint64_t")]);
        }
    }
    builder
        .build()
        .map_err(|e| SdkError::Interface(e.to_string()))
}

/// The top-level SDK runtime: owns the [`Urts`] and [`Loader`] for one
/// simulated process and provides the application-facing API.
///
/// See the [crate documentation](crate) for a full example.
#[derive(Debug)]
pub struct Runtime {
    machine: Arc<Machine>,
    urts: Arc<Urts>,
    loader: Arc<Loader>,
    /// The last interface passed to [`Runtime::create_enclave`] and its
    /// effective interface, which every enclave created from an equal
    /// interface shares.
    last_interface: Mutex<Option<(InterfaceSpec, Arc<InterfaceSpec>)>>,
}

impl Runtime {
    /// Creates a runtime on the given machine.
    pub fn new(machine: Arc<Machine>) -> Arc<Runtime> {
        let urts = Arc::new(Urts::new(Arc::clone(&machine)));
        let loader = Arc::new(Loader::new(Arc::clone(&urts)));
        urts.set_loader(Arc::downgrade(&loader));
        Arc::new(Runtime {
            machine,
            urts,
            loader,
            last_interface: Mutex::new(None),
        })
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The URTS (enclave registry, `sgx_ecall`).
    pub fn urts(&self) -> &Arc<Urts> {
        &self.urts
    }

    /// The dynamic loader (preload interposition).
    pub fn loader(&self) -> &Arc<Loader> {
        &self.loader
    }

    /// Creates an enclave from an interface and a build configuration:
    /// loads its pages into the EPC, appends the implicit sync ocalls to
    /// the interface and registers the enclave with the URTS. Enclaves
    /// created one after another from equal interfaces share one effective
    /// interface.
    ///
    /// # Errors
    ///
    /// Interface extension failures and hardware-layer errors.
    pub fn create_enclave(
        &self,
        spec: &InterfaceSpec,
        config: &EnclaveConfig,
    ) -> SdkResult<Arc<Enclave>> {
        let effective = self.effective_interface(spec)?;
        let eid = self.machine.create_enclave(config)?;
        let enclave = Arc::new(Enclave::new(
            eid,
            effective,
            Arc::clone(&self.machine),
            config.tcs_count,
        ));
        self.urts.register_enclave(Arc::clone(&enclave));
        Ok(enclave)
    }

    /// `spec` with the implicit sync ocalls: the last one built, if it was
    /// built from an equal interface, else a new one that replaces it.
    fn effective_interface(&self, spec: &InterfaceSpec) -> SdkResult<Arc<InterfaceSpec>> {
        let mut last = self.last_interface.lock();
        if let Some((input, effective)) = &*last {
            if input == spec {
                return Ok(Arc::clone(effective));
            }
        }
        let effective = Arc::new(with_sync_ocalls(spec)?);
        *last = Some((spec.clone(), Arc::clone(&effective)));
        Ok(effective)
    }

    /// Sets up the switchless subsystem for a loaded enclave: resolves the
    /// config's force lists against its interface and installs the ring.
    /// An enclave takes one switchless subsystem for its lifetime.
    /// Callers still need [`Switchless::spawn_workers`] on the workload's
    /// simulation (and [`Switchless::shutdown`] before it ends).
    ///
    /// # Errors
    ///
    /// [`SdkError::UnknownEnclave`], [`SdkError::SwitchlessAlreadyEnabled`]
    /// on an enclave that has one, plus the validation errors of the force
    /// lists (unknown or private call names).
    pub fn enable_switchless(
        &self,
        eid: EnclaveId,
        config: SwitchlessConfig,
    ) -> SdkResult<Arc<Switchless>> {
        let enclave = self.urts.enclave(eid)?;
        // Checked first, so a refused call allocates no sync-bus objects.
        if enclave.switchless().is_some() {
            return Err(SdkError::SwitchlessAlreadyEnabled(eid));
        }
        let sw = Arc::new(Switchless::new(&enclave, &self.urts, config)?);
        enclave.set_switchless(Arc::clone(&sw))?;
        Ok(sw)
    }

    /// Destroys an enclave: unregisters it and frees its EPC pages.
    ///
    /// # Errors
    ///
    /// [`SdkError::UnknownEnclave`] if it is not loaded.
    pub fn destroy_enclave(&self, eid: EnclaveId) -> SdkResult<()> {
        self.urts.unregister_enclave(eid)?;
        self.machine.destroy_enclave(eid)?;
        Ok(())
    }

    /// Issues an ecall by name — resolves the name against the enclave's
    /// interface and dispatches through the loader (so preloaded
    /// interposition libraries observe the call).
    ///
    /// # Errors
    ///
    /// Name-resolution and dispatch errors.
    pub fn ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        name: &str,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let enclave = self.urts.enclave(eid)?;
        let index = enclave
            .spec()
            .ecall_by_name(name)
            .ok_or_else(|| SdkError::BadEcall(name.to_string()))?
            .index;
        self.dispatch(tcx, &enclave, index, table, data)
    }

    /// Issues an ecall by index through the loader.
    ///
    /// # Errors
    ///
    /// Dispatch errors.
    pub fn ecall_index(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let enclave = self.urts.enclave(eid)?;
        self.dispatch(tcx, &enclave, index, table, data)
    }

    fn dispatch(
        &self,
        tcx: &ThreadCtx<'_>,
        enclave: &Enclave,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        // Switchless-eligible ecalls try the ring first. A `Some` result
        // means a trusted worker served the call: `sgx_ecall` (and any
        // library interposing on it) was bypassed — no transition happened.
        // The table must still be saved so the trusted body can ocall;
        // other ecalls save it in `sgx_ecall`.
        if let Some(sw) = enclave
            .switchless()
            .filter(|sw| sw.is_ecall_switchless(index))
        {
            enclave.save_table(Some(table));
            if let Some(result) = sw.try_ecall(tcx, index, data) {
                return result;
            }
        }
        self.loader.sgx_ecall(tcx, enclave.id(), index, table, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_edl::InterfaceBuilder;

    #[test]
    fn sync_ocalls_are_appended_once() {
        let spec = InterfaceBuilder::new()
            .public_ecall("e", vec![])
            .build()
            .unwrap();
        let eff = with_sync_ocalls(&spec).unwrap();
        assert_eq!(eff.ocalls().len(), 4);
        let again = with_sync_ocalls(&eff).unwrap();
        assert_eq!(again.ocalls().len(), 4);
    }

    #[test]
    fn allow_lists_survive_extension() {
        let spec = InterfaceBuilder::new()
            .public_ecall("pub", vec![])
            .private_ecall("priv", vec![])
            .ocall_allowing("o", vec![], &["priv"])
            .build()
            .unwrap();
        let eff = with_sync_ocalls(&spec).unwrap();
        let o = eff.ocall_by_name("o").unwrap();
        let priv_idx = eff.ecall_by_name("priv").unwrap().index;
        assert_eq!(o.allowed_ecalls, vec![priv_idx]);
    }
}
