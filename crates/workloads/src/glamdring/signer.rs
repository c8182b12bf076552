//! The certificate-signing benchmark (§5.2.3): sign as many certificates
//! as possible in a fixed (virtual-time) window, in the native,
//! Glamdring-partitioned and optimised variants.

use std::sync::Arc;

use sgx_edl::{InterfaceBuilder, InterfaceSpec, ParamSpec};
use sgx_sdk::{CallData, EcallCtx, OcallTableBuilder, Runtime, SdkResult, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, EnclaveId};
use sim_core::sync::Mutex;
use sim_core::{Clock, Nanos};

use crate::harness::{Harness, RunStats, Variant};

use super::bignum::{mul_comba, mul_recursive, sub_words, subs_per_mul, MulOps};

/// Workload configuration; the costs are constants calibrated to §5.2.3.
#[derive(Debug, Clone)]
pub struct GlamdringConfig {
    /// Virtual-time length of the benchmark (the paper runs 30 s).
    pub duration: Nanos,
    /// RNG seed for operand generation.
    pub seed: u64,
    /// Which variant to run.
    pub variant: Variant,
}

impl Default for GlamdringConfig {
    fn default() -> Self {
        GlamdringConfig {
            duration: Nanos::from_secs(30),
            seed: 0x91a3_d41c,
            variant: Variant::Enclave,
        }
    }
}

/// Operand size in 64-bit limbs (32 = 2048-bit).
const LIMBS: usize = 32;
/// Comba leaf size in limbs.
const LEAF_LIMBS: usize = 4;
/// `bn_mul_recursive` invocations per signature (modular
/// multiplications of the exponentiation).
const MULTS_PER_SIGN: u64 = 248;
/// Slowdown factor for computation executed inside the enclave
/// (encrypted memory, reduced cache efficiency).
const ENCLAVE_COMPUTE_FACTOR: f64 = 2.4;
/// Untrusted per-node recursion bookkeeping.
const NODE_UNTRUSTED: Nanos = Nanos::from_nanos(600);
/// Base cost of one `bn_sub_part_words`.
const SUB_BASE: Nanos = Nanos::from_nanos(100);
/// Additional subtraction cost per limb.
const SUB_PER_LIMB: Nanos = Nanos::from_nanos(8);
/// Cost of one comba leaf multiplication.
const LEAF_COST: Nanos = Nanos::from_nanos(300);
/// Per-signature untrusted overhead (hashing, padding, serialising).
const MISC_PER_SIGN: Nanos = Nanos::from_micros(2_000);
/// Issue one short BN_ helper ocall every this many trusted
/// subtractions (the SNC-flagged ocalls of §5.2.3).
pub const BN_OCALL_EVERY: u64 = 59;

fn sub_cost(limbs: usize) -> Nanos {
    SUB_BASE + SUB_PER_LIMB * limbs as u64
}

impl GlamdringConfig {
    /// Expected `bn_sub_part_words` calls per signature.
    pub fn subs_per_sign(&self) -> u64 {
        MULTS_PER_SIGN * subs_per_mul(LIMBS, LEAF_LIMBS)
    }
}

/// Outcome of a run: throughput plus call-count bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct GlamdringResult {
    /// Throughput stats (operations = completed signatures).
    pub stats: RunStats,
    /// Total `bn_sub_part_words` invocations (ecalls in the partitioned
    /// variant).
    pub sub_calls: u64,
    /// The enclave id, if one was created.
    pub enclave: Option<EnclaveId>,
}

/// Shared big-number scratch state — lives inside the enclave in the
/// partitioned variants.
struct SignState {
    a: Vec<u64>,
    b: Vec<u64>,
    t: Vec<u64>,
    r: Vec<u64>,
    counter: u64,
}

impl SignState {
    fn new(limbs: usize, seed: u64) -> SignState {
        let mut rng = sim_core::rng::seeded(seed);
        SignState {
            a: (0..limbs).map(|_| rng.gen()).collect(),
            b: (0..limbs).map(|_| rng.gen()).collect(),
            t: vec![0; limbs],
            r: vec![0; 2 * limbs],
            counter: 0,
        }
    }

    /// Real `bn_sub_part_words` work over the first `n` limbs.
    fn do_sub(&mut self, n: usize) -> u64 {
        let n = n.min(self.a.len());
        let (a, b) = (self.a[..n].to_vec(), self.b[..n].to_vec());
        let borrow = sub_words(&mut self.t[..n], &a, &b);
        self.counter = self.counter.wrapping_add(1);
        borrow
    }

    /// Real comba leaf over the first `n` limbs.
    fn do_leaf(&mut self, n: usize) {
        let n = n.min(self.a.len());
        let (a, b) = (self.a[..n].to_vec(), self.b[..n].to_vec());
        mul_comba(&mut self.r[..2 * n], &a, &b);
    }
}

// ---------------------------------------------------------------------
// MulOps implementations for the three variants
// ---------------------------------------------------------------------

/// Native: plain function calls, everything at untrusted speed.
struct NativeOps<'a> {
    clock: &'a Clock,
    state: &'a mut SignState,
    subs: u64,
}

impl MulOps for NativeOps<'_> {
    fn sub_part_words(&mut self, n: usize) -> SdkResult<()> {
        self.state.do_sub(n);
        self.clock.advance(sub_cost(n));
        self.subs += 1;
        Ok(())
    }
    fn leaf_mul(&mut self, n: usize) -> SdkResult<()> {
        self.state.do_leaf(n);
        self.clock.advance(LEAF_COST);
        Ok(())
    }
    fn node_overhead(&mut self) -> SdkResult<()> {
        self.clock.advance(NODE_UNTRUSTED);
        Ok(())
    }
}

/// Glamdring-partitioned: the recursion driver is untrusted; every
/// `sub_part_words` is an ecall (through the loader, so the logger sees it).
struct PartitionedOps<'a> {
    harness: &'a Harness,
    eid: EnclaveId,
    table: &'a Arc<sgx_sdk::OcallTable>,
    tcx: &'a ThreadCtx<'a>,
    subs: u64,
    state: &'a Mutex<SignState>,
}

impl MulOps for PartitionedOps<'_> {
    fn sub_part_words(&mut self, n: usize) -> SdkResult<()> {
        let mut data = CallData::new(n as u64);
        self.harness.runtime().ecall(
            self.tcx,
            self.eid,
            "ecall_bn_sub_part_words",
            self.table,
            &mut data,
        )?;
        self.subs += 1;
        Ok(())
    }
    fn leaf_mul(&mut self, n: usize) -> SdkResult<()> {
        // Comba stays untrusted in the Glamdring partitioning.
        self.state.lock().do_leaf(n);
        self.harness.clock().advance(LEAF_COST);
        Ok(())
    }
    fn node_overhead(&mut self) -> SdkResult<()> {
        self.harness.clock().advance(NODE_UNTRUSTED);
        Ok(())
    }
}

/// Optimised: the whole recursion executes inside one ecall; subtraction
/// and leaves are plain calls at enclave speed.
struct InEnclaveOps<'c, 'a> {
    ctx: &'c mut EcallCtx<'a>,
    state: &'c mut SignState,
    subs: u64,
}

impl MulOps for InEnclaveOps<'_, '_> {
    fn sub_part_words(&mut self, n: usize) -> SdkResult<()> {
        self.state.do_sub(n);
        self.ctx
            .compute(sub_cost(n).scale(ENCLAVE_COMPUTE_FACTOR))?;
        self.subs += 1;
        if self.state.counter.is_multiple_of(BN_OCALL_EVERY) {
            self.ctx.ocall("ocall_bn_new", &mut CallData::default())?;
        }
        Ok(())
    }
    fn leaf_mul(&mut self, n: usize) -> SdkResult<()> {
        self.state.do_leaf(n);
        self.ctx.compute(LEAF_COST.scale(ENCLAVE_COMPUTE_FACTOR))?;
        Ok(())
    }
    fn node_overhead(&mut self) -> SdkResult<()> {
        self.ctx
            .compute(NODE_UNTRUSTED.scale(ENCLAVE_COMPUTE_FACTOR))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Interface
// ---------------------------------------------------------------------

/// Builds the Glamdring-generated interface: 171 ecalls and 3,357 ocalls
/// declared (§5.2.3), of which only a handful are hot.
pub fn glamdring_interface() -> InterfaceSpec {
    let mut b = InterfaceBuilder::new()
        .public_ecall(
            "ecall_bn_sub_part_words",
            vec![ParamSpec::value("n", "size_t")],
        )
        .public_ecall(
            "ecall_bn_mul_recursive",
            vec![ParamSpec::value("n", "size_t")],
        )
        .public_ecall("ecall_load_key", vec![]);
    // The remaining auto-generated trusted functions (171 total).
    for i in 0..168 {
        b = b.public_ecall(&format!("ecall_glamdring_gen_{i}"), vec![]);
    }
    b = b
        .ocall("ocall_bn_new", vec![])
        .ocall("ocall_bn_free", vec![])
        .ocall("ocall_malloc", vec![ParamSpec::value("size", "size_t")])
        .ocall("ocall_log", vec![]);
    // Auto-generated untrusted stubs (3,357 total; 4 sync ocalls are added
    // by the SDK on top, so declare 3,353 - 4 = 3,349 fillers).
    for i in 0..3_349 {
        b = b.ocall(&format!("ocall_glamdring_gen_{i}"), vec![]);
    }
    b.build().expect("static interface is valid")
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Runs the signing benchmark.
///
/// # Errors
///
/// Propagates SDK failures.
pub fn run(harness: &Harness, config: &GlamdringConfig) -> SdkResult<GlamdringResult> {
    match config.variant {
        Variant::Native => run_native(harness, config),
        Variant::Enclave | Variant::Optimised => run_partitioned(harness, config),
    }
}

fn run_native(harness: &Harness, config: &GlamdringConfig) -> SdkResult<GlamdringResult> {
    let clock = harness.clock();
    let mut state = SignState::new(LIMBS, config.seed);
    let deadline = clock.now() + config.duration;
    let start = clock.now();
    let mut signs = 0u64;
    let mut sub_calls = 0u64;
    while clock.now() < deadline {
        clock.advance(MISC_PER_SIGN);
        for _ in 0..MULTS_PER_SIGN {
            let mut ops = NativeOps {
                clock,
                state: &mut state,
                subs: 0,
            };
            mul_recursive(&mut ops, LIMBS, LEAF_LIMBS)?;
            sub_calls += ops.subs;
        }
        signs += 1;
    }
    Ok(GlamdringResult {
        stats: RunStats {
            variant: config.variant,
            operations: signs,
            elapsed: clock.now() - start,
        },
        sub_calls,
        enclave: None,
    })
}

/// A loaded (partitioned or optimised) signing application, exposing the
/// start-up and benchmark phases separately so tools like the working-set
/// estimator can measure them independently (§5.2.3 reports 61 start-up
/// pages vs 32 benchmark pages).
pub struct GlamdringApp<'h> {
    harness: &'h Harness,
    config: GlamdringConfig,
    enclave: Arc<sgx_sdk::Enclave>,
    table: Arc<sgx_sdk::OcallTable>,
    state: Arc<Mutex<SignState>>,
}

impl<'h> GlamdringApp<'h> {
    /// Creates the enclave and registers the partitioned functions; no
    /// ecall is issued yet.
    ///
    /// # Errors
    ///
    /// Propagates SDK failures.
    pub fn new(harness: &'h Harness, config: &GlamdringConfig) -> SdkResult<GlamdringApp<'h>> {
        let (enclave, table, state) = build_enclave(harness, config)?;
        Ok(GlamdringApp {
            harness,
            config: config.clone(),
            enclave,
            table,
            state,
        })
    }

    /// The enclave id (e.g. for attaching a working-set estimator).
    pub fn enclave_id(&self) -> EnclaveId {
        self.enclave.id()
    }

    /// The start-up phase: key loading (touches the one-off working set).
    ///
    /// # Errors
    ///
    /// Propagates SDK failures.
    pub fn startup(&self) -> SdkResult<()> {
        let tcx = ThreadCtx::main();
        self.harness.runtime().ecall(
            &tcx,
            self.enclave.id(),
            "ecall_load_key",
            &self.table,
            &mut CallData::default(),
        )
    }

    /// Signs certificates for `duration` of virtual time; returns
    /// `(signatures, sub_part_words calls)`.
    ///
    /// # Errors
    ///
    /// Propagates SDK failures.
    pub fn sign_for(&self, duration: Nanos) -> SdkResult<(u64, u64)> {
        let config = &self.config;
        let optimised = config.variant == Variant::Optimised;
        let rt = self.harness.runtime();
        let tcx = ThreadCtx::main();
        let clock = self.harness.clock();
        let deadline = clock.now() + duration;
        let mut signs = 0u64;
        let mut sub_calls = 0u64;
        while clock.now() < deadline {
            clock.advance(MISC_PER_SIGN);
            if optimised {
                for _ in 0..MULTS_PER_SIGN {
                    let mut data = CallData::new(LIMBS as u64);
                    rt.ecall(
                        &tcx,
                        self.enclave.id(),
                        "ecall_bn_mul_recursive",
                        &self.table,
                        &mut data,
                    )?;
                    sub_calls += data.ret;
                }
            } else {
                for _ in 0..MULTS_PER_SIGN {
                    let mut ops = PartitionedOps {
                        harness: self.harness,
                        eid: self.enclave.id(),
                        table: &self.table,
                        tcx: &tcx,
                        subs: 0,
                        state: &self.state,
                    };
                    mul_recursive(&mut ops, LIMBS, LEAF_LIMBS)?;
                    sub_calls += ops.subs;
                }
            }
            signs += 1;
        }
        Ok((signs, sub_calls))
    }
}

type BuiltEnclave = (
    Arc<sgx_sdk::Enclave>,
    Arc<sgx_sdk::OcallTable>,
    Arc<Mutex<SignState>>,
);

fn build_enclave(harness: &Harness, config: &GlamdringConfig) -> SdkResult<BuiltEnclave> {
    let spec = glamdring_interface();
    let rt: &Arc<Runtime> = harness.runtime();
    let enclave = rt.create_enclave(
        &spec,
        &EnclaveConfig {
            code_kib: 256, // 64 code pages
            heap_kib: 256, // 64 heap pages
            ..EnclaveConfig::default()
        },
    )?;
    let eid = enclave.id();
    let heap = harness.machine().heap_range(eid)?;
    let code = harness.machine().code_range(eid)?;

    let state = Arc::new(Mutex::new(SignState::new(LIMBS, config.seed)));

    // Start-up: key loading touches a large one-off working set
    // (§5.2.3 reports 61 pages after start-up).
    {
        let heap = heap.clone();
        let code = code.clone();
        enclave.register_ecall("ecall_load_key", move |ctx, _| {
            ctx.touch(code.start..code.start + 32, AccessKind::Execute)?;
            ctx.touch(heap.start..heap.start + 27, AccessKind::Write)?;
            ctx.compute(Nanos::from_micros(400))?;
            Ok(())
        })?;
    }

    // The hot partitioned function.
    {
        let state = Arc::clone(&state);
        let heap = heap.clone();
        let code = code.clone();
        enclave.register_ecall("ecall_bn_sub_part_words", move |ctx, data| {
            let mut st = state.lock();
            let n = data.scalar as usize;
            // Steady-state working set: a handful of code pages plus the
            // rotating big-number heap buffers (§5.2.3: 32 pages).
            let code_page = code.start + (st.counter % 6) as usize;
            ctx.touch(code_page..code_page + 1, AccessKind::Execute)?;
            let heap_page = heap.start + (st.counter % 24) as usize;
            ctx.touch(heap_page..heap_page + 1, AccessKind::Write)?;
            data.ret = st.do_sub(n);
            ctx.compute(sub_cost(n).scale(ENCLAVE_COMPUTE_FACTOR))?;
            if st.counter.is_multiple_of(BN_OCALL_EVERY) {
                ctx.ocall("ocall_bn_new", &mut CallData::default())?;
            }
            Ok(())
        })?;
    }

    // The optimised entry point: whole multiplication inside the enclave.
    {
        let state = Arc::clone(&state);
        let heap = heap.clone();
        let code = code.clone();
        enclave.register_ecall("ecall_bn_mul_recursive", move |ctx, data| {
            let mut st = state.lock();
            let code_page = code.start + (st.counter % 6) as usize;
            ctx.touch(code_page..code_page + 1, AccessKind::Execute)?;
            let heap_page = heap.start + (st.counter % 24) as usize;
            ctx.touch(heap_page..heap_page + 1, AccessKind::Write)?;
            let n = data.scalar as usize;
            let mut ops = InEnclaveOps {
                ctx,
                state: &mut st,
                subs: 0,
            };
            let subs = mul_recursive(&mut ops, n, LEAF_LIMBS)?;
            data.ret = subs;
            Ok(())
        })?;
    }

    let mut builder = OcallTableBuilder::new(enclave.spec());
    for name in ["ocall_bn_new", "ocall_bn_free", "ocall_log"] {
        builder.register(name, |h, _| {
            h.compute(Nanos::from_nanos(500));
            Ok(())
        })?;
    }
    builder.register("ocall_malloc", |h, _| {
        h.compute(Nanos::from_nanos(700));
        Ok(())
    })?;
    for i in 0..3_349 {
        builder.register(&format!("ocall_glamdring_gen_{i}"), |_, _| Ok(()))?;
    }
    let table = Arc::new(builder.build()?);
    Ok((enclave, table, state))
}

fn run_partitioned(harness: &Harness, config: &GlamdringConfig) -> SdkResult<GlamdringResult> {
    let app = GlamdringApp::new(harness, config)?;
    app.startup()?;
    let start = harness.clock().now();
    let (signs, sub_calls) = app.sign_for(config.duration)?;
    Ok(GlamdringResult {
        stats: RunStats {
            variant: config.variant,
            operations: signs,
            elapsed: harness.clock().now() - start,
        },
        sub_calls,
        enclave: Some(app.enclave_id()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::HwProfile;

    fn short_cfg(variant: Variant) -> GlamdringConfig {
        GlamdringConfig {
            duration: Nanos::from_millis(400),
            variant,
            ..GlamdringConfig::default()
        }
    }

    #[test]
    fn interface_has_published_size() {
        let spec = glamdring_interface();
        assert_eq!(spec.ecalls().len(), 171);
        assert_eq!(spec.ocalls().len(), 3_353); // +4 sync = 3,357
    }

    #[test]
    fn subs_per_sign_matches_paper_scale() {
        let cfg = GlamdringConfig::default();
        // 248 mults x 26 subs = 6,448 ecalls per signature; over ~1,000
        // signatures of a 30 s run that is the paper's 6.6 M ecalls.
        assert_eq!(cfg.subs_per_sign(), 6_448);
    }

    #[test]
    fn native_throughput_in_paper_range() {
        let h = Harness::new(HwProfile::Unpatched);
        let res = run(&h, &short_cfg(Variant::Native)).unwrap();
        let tput = res.stats.throughput();
        // Paper native: 145 signs/s (their hardware); same order expected.
        assert!((80.0..260.0).contains(&tput), "{tput}");
    }

    #[test]
    fn partitioned_is_dominated_by_sub_ecalls() {
        let h = Harness::new(HwProfile::Unpatched);
        let res = run(&h, &short_cfg(Variant::Enclave)).unwrap();
        assert_eq!(
            res.sub_calls,
            res.stats.operations * GlamdringConfig::default().subs_per_sign()
        );
    }

    #[test]
    fn optimisation_speedup_matches_paper_shape() {
        let enclave = run(
            &Harness::new(HwProfile::Unpatched),
            &short_cfg(Variant::Enclave),
        )
        .unwrap()
        .stats
        .throughput();
        let optimised = run(
            &Harness::new(HwProfile::Unpatched),
            &short_cfg(Variant::Optimised),
        )
        .unwrap()
        .stats
        .throughput();
        let speedup = optimised / enclave;
        // Paper: 2.16x on the unpatched system.
        assert!((1.7..3.2).contains(&speedup), "speedup {speedup:.2}");
    }

    #[test]
    fn speedup_grows_with_mitigations() {
        let ratio = |profile: HwProfile| {
            let e = run(&Harness::new(profile), &short_cfg(Variant::Enclave))
                .unwrap()
                .stats
                .throughput();
            let o = run(&Harness::new(profile), &short_cfg(Variant::Optimised))
                .unwrap()
                .stats
                .throughput();
            o / e
        };
        let base = ratio(HwProfile::Unpatched);
        let spectre = ratio(HwProfile::Spectre);
        let l1tf = ratio(HwProfile::Foreshadow);
        // Paper: 2.16x -> 2.66x -> 2.87x.
        assert!(base < spectre && spectre < l1tf, "{base} {spectre} {l1tf}");
    }
}
