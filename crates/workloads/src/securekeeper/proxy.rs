//! The proxy enclaves, the shared connection map and the client driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_edl::InterfaceSpec;
use sgx_sdk::{CallData, OcallTableBuilder, SdkResult, SgxThreadMutex, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, EnclaveId};
use sim_core::rng::{bimodal, jitter};
use sim_core::sync::Mutex;
use sim_core::Nanos;
use sim_threads::Simulation;

use crate::harness::{Harness, RunStats, Variant};

use super::crypto::Keystream;

/// The per-client proxy interface: two ecalls, six ocalls (two declared
/// here, four implicit sync) — §5.2.4's "very narrow" interface.
pub const PROXY_EDL: &str = r#"
enclave {
    trusted {
        public uint64_t ecall_handle_input_from_client(
            [in, size=len] char* packet, size_t len);
        public uint64_t ecall_handle_input_from_zk(
            [in, size=len] char* packet, size_t len);
    };
    untrusted {
        void ocall_print_debug([in, string] const char* msg);
        void ocall_stat(uint64_t counter);
    };
};
"#;

/// The shared router enclave holding the client→session map (written only
/// on connect — the §5.2.4 contention point).
pub const ROUTER_EDL: &str = r#"
enclave {
    trusted {
        public uint64_t ecall_register_client(uint64_t client_id);
    };
    untrusted {
        void ocall_print_debug([in, string] const char* msg);
        void ocall_stat(uint64_t counter);
    };
};
"#;

/// Workload configuration; defaults model §5.2.4's full-load run.
#[derive(Debug, Clone)]
pub struct SecureKeeperConfig {
    /// Number of concurrently connected clients (each gets an enclave).
    pub clients: usize,
    /// Virtual-time length of the benchmark (the paper analyses 31 s).
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SecureKeeperConfig {
    fn default() -> Self {
        SecureKeeperConfig {
            clients: 10,
            duration: Nanos::from_secs(31),
            seed: 0x5ec0_4e14,
        }
    }
}

/// Mean think time between client requests.
const REQUEST_PERIOD: Nanos = Nanos::from_micros(410);
/// ZooKeeper packet payload size.
const PAYLOAD_BYTES: usize = 512;

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SecureKeeperResult {
    /// Throughput stats (operations = client requests proxied; each is
    /// one client-side and one ZooKeeper-side ecall).
    pub stats: RunStats,
    /// Per-client proxy enclave ids (first one is the usual WSE target).
    pub proxy_enclaves: Vec<EnclaveId>,
    /// The shared router enclave.
    pub router_enclave: EnclaveId,
}

/// The trusted state of one proxy enclave.
struct ProxyState {
    keystream: Keystream,
    packets: u64,
    rng: sim_core::rng::Rng,
}

/// Enclave sizing: 1 MiB of code + 512 KiB heap gives the paper's
/// 322-page start-up working set headroom.
fn proxy_config(clients: usize) -> EnclaveConfig {
    let _ = clients;
    EnclaveConfig {
        code_kib: 1_024,
        heap_kib: 512,
        stack_kib: 64,
        tcs_count: 1,
        ..EnclaveConfig::default()
    }
}

fn build_proxy_enclave(
    harness: &Harness,
    spec: &InterfaceSpec,
    seed: u64,
) -> SdkResult<(Arc<sgx_sdk::Enclave>, Arc<sgx_sdk::OcallTable>)> {
    let rt = harness.runtime();
    let enclave = rt.create_enclave(spec, &proxy_config(1))?;
    let eid = enclave.id();
    let code = harness.machine().code_range(eid)?;
    let heap = harness.machine().heap_range(eid)?;
    let state = Arc::new(Mutex::new(ProxyState {
        keystream: Keystream::new(seed, eid.0 as u64),
        packets: 0,
        rng: sim_core::rng::seeded(seed ^ eid.0 as u64),
    }));

    // Start-up initialisation happens on the first ecall: library init
    // touches a large one-off set of code and heap pages (322 total incl.
    // TCS/stack); steady state cycles through a much smaller set (94).
    let register = |name: &'static str, base_us: u64, zk_side: bool| -> SdkResult<()> {
        let state = Arc::clone(&state);
        let code = code.clone();
        let heap = heap.clone();
        enclave.register_ecall(name, move |ctx, data| {
            let mut st = state.lock();
            if st.packets == 0 && !zk_side {
                // One-off start-up: 252 code + 68 heap pages.
                ctx.touch(code.start..code.start + 252, AccessKind::Execute)?;
                ctx.touch(heap.start..heap.start + 68, AccessKind::Write)?;
                ctx.compute(Nanos::from_micros(300))?;
            }
            st.packets += 1;
            // Steady-state working set: 40 hot code pages + 52 rotating
            // heap pages (+ TCS and stack page via entry) = 94.
            let code_page = code.start + (st.packets % 40) as usize;
            ctx.touch(code_page..code_page + 1, AccessKind::Execute)?;
            let heap_page = heap.start + (st.packets % 52) as usize;
            ctx.touch(heap_page..heap_page + 1, AccessKind::Write)?;
            // Real payload transform.
            let mut packet = vec![0u8; data.in_bytes.max(16)];
            st.keystream.apply(&mut packet);
            data.ret = packet.iter().map(|&b| b as u64).sum::<u64>() & 0xff;
            // Parse + en/decrypt cost: client side ≈14 us mean measured
            // (≈9.5 us execution), ZooKeeper side ≈18 us (≈13.5 us), with
            // the occasional slow packet forming Figure 7's tail.
            let mean = Nanos::from_micros(base_us) + Nanos::from_nanos(6 * data.in_bytes as u64);
            let cost = bimodal(&mut st.rng, mean, mean * 2, 0.05);
            drop(st);
            ctx.compute(cost)?;
            Ok(())
        })
    };
    register("ecall_handle_input_from_client", 6, false)?;
    register("ecall_handle_input_from_zk", 10, true)?;

    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder.register("ocall_print_debug", |h, _| {
        h.compute(Nanos::from_micros(3));
        Ok(())
    })?;
    builder.register("ocall_stat", |h, _| {
        h.compute(Nanos::from_nanos(400));
        Ok(())
    })?;
    let table = Arc::new(builder.build()?);
    Ok((enclave, table))
}

/// Runs the full-load proxy benchmark: all clients connect simultaneously
/// (contending on the router's map mutex), then proxy requests until the
/// virtual deadline.
///
/// # Errors
///
/// Propagates SDK failures.
pub fn run(harness: &Harness, config: &SecureKeeperConfig) -> SdkResult<SecureKeeperResult> {
    let rt = harness.runtime();

    // Router enclave with the shared, mutex-protected connection map.
    let router_spec = sgx_edl::parse(ROUTER_EDL).expect("static EDL parses");
    let router = rt.create_enclave(
        &router_spec,
        &EnclaveConfig {
            tcs_count: config.clients.max(1),
            ..EnclaveConfig::default()
        },
    )?;
    let map_mutex = Arc::new(SgxThreadMutex::named("map_mutex"));
    let connection_map: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let map_mutex = Arc::clone(&map_mutex);
        let connection_map = Arc::clone(&connection_map);
        router.register_ecall("ecall_register_client", move |ctx, data| {
            map_mutex.lock(ctx)?;
            // Map insert while holding the lock; yielding here models the
            // simultaneous-connect contention of §5.2.4.
            connection_map.lock().push(data.scalar);
            if let Some(sim) = ctx.thread().sim {
                sim.yield_now();
            }
            ctx.compute(Nanos::from_micros(3))?;
            // Debug logging during connection establishment (the
            // "remaining ocalls" of §5.2.4).
            for _ in 0..9 {
                ctx.ocall(
                    "ocall_print_debug",
                    &mut CallData::default().with_in_bytes(48),
                )?;
            }
            map_mutex.unlock(ctx)?;
            data.ret = connection_map.lock().len() as u64;
            Ok(())
        })?;
    }
    let mut router_builder = OcallTableBuilder::new(router.spec());
    router_builder.register("ocall_print_debug", |h, _| {
        h.compute(Nanos::from_micros(3));
        Ok(())
    })?;
    router_builder.register("ocall_stat", |h, _| {
        h.compute(Nanos::from_nanos(400));
        Ok(())
    })?;
    let router_table = Arc::new(router_builder.build()?);

    // One proxy enclave per client.
    let proxy_spec = sgx_edl::parse(PROXY_EDL).expect("static EDL parses");
    let mut proxies = Vec::with_capacity(config.clients);
    for i in 0..config.clients {
        proxies.push(build_proxy_enclave(
            harness,
            &proxy_spec,
            config.seed ^ (i as u64) << 8,
        )?);
    }
    let proxy_ids: Vec<EnclaveId> = proxies.iter().map(|(e, _)| e.id()).collect();

    // Client threads. The sync bus makes spawn/join ordering visible to
    // the `sgxperf races` analyses alongside the map-mutex traffic.
    let sim = Simulation::new(harness.clock().clone());
    sim.set_sync_bus(Arc::clone(harness.machine().sync_bus()));
    let total_requests = Arc::new(AtomicU64::new(0));
    let start = harness.clock().now();
    let deadline = start + config.duration;
    for (i, (enclave, table)) in proxies.into_iter().enumerate() {
        let rt = Arc::clone(rt);
        let router_id = router.id();
        let router_table = Arc::clone(&router_table);
        let total = Arc::clone(&total_requests);
        let seed = config.seed;
        let eid = enclave.id();
        sim.spawn(&format!("client-{i}"), move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            let mut rng = sim_core::rng::seeded(seed ^ 0xc11e ^ i as u64);
            // Connection phase: all clients pile onto the router map.
            rt.ecall(
                &tcx,
                router_id,
                "ecall_register_client",
                &router_table,
                &mut CallData::new(i as u64),
            )
            .expect("register_client");
            // Steady state: proxy requests until the deadline.
            while ctx.clock().now() < deadline {
                let payload = PAYLOAD_BYTES + (rng.gen_range(0..PAYLOAD_BYTES / 2));
                let mut c = CallData::default().with_in_bytes(payload);
                rt.ecall(&tcx, eid, "ecall_handle_input_from_client", &table, &mut c)
                    .expect("client ecall");
                // ZooKeeper turnaround.
                ctx.sleep(jitter(&mut rng, REQUEST_PERIOD / 4, 0.3));
                let mut z = CallData::default().with_in_bytes(payload + 32);
                rt.ecall(&tcx, eid, "ecall_handle_input_from_zk", &table, &mut z)
                    .expect("zk ecall");
                total.fetch_add(1, Ordering::SeqCst);
                ctx.sleep(jitter(&mut rng, REQUEST_PERIOD, 0.3));
            }
        });
    }
    sim.run();
    Ok(SecureKeeperResult {
        stats: RunStats {
            variant: Variant::Enclave,
            operations: total_requests.load(Ordering::SeqCst),
            elapsed: harness.clock().now() - start,
        },
        proxy_enclaves: proxy_ids,
        router_enclave: router.id(),
    })
}

/// Measures the §5.2.4 working sets on a single proxy enclave: pages
/// touched by start-up (library init on the first packet) vs pages touched
/// by `steady_requests` steady-state packets. Paper: 322 vs 94.
///
/// The `wse` closure attaches the estimator between enclave creation and
/// first use (this is how the separate working-set tool operates — it
/// cannot share a run with the logger, §4).
///
/// # Errors
///
/// Propagates SDK failures.
pub fn working_set_probe(
    harness: &Harness,
    config: &SecureKeeperConfig,
    steady_requests: u64,
) -> SdkResult<(usize, usize)> {
    let proxy_spec = sgx_edl::parse(PROXY_EDL).expect("static EDL parses");
    let (enclave, table) = build_proxy_enclave(harness, &proxy_spec, config.seed)?;
    let wse = sgx_perf::WorkingSetEstimator::attach(harness.machine(), enclave.id())
        .map_err(sgx_sdk::SdkError::Sim)?;
    let tcx = ThreadCtx::main();
    let rt = harness.runtime();
    // Start-up: the first packet triggers library initialisation.
    let mut first = CallData::default().with_in_bytes(PAYLOAD_BYTES);
    rt.ecall(
        &tcx,
        enclave.id(),
        "ecall_handle_input_from_client",
        &table,
        &mut first,
    )?;
    let startup = wse.mark().map_err(sgx_sdk::SdkError::Sim)?;
    // Steady state.
    for i in 0..steady_requests {
        let mut c = CallData::default().with_in_bytes(PAYLOAD_BYTES + (i as usize % 64));
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_handle_input_from_client",
            &table,
            &mut c,
        )?;
        let mut z = CallData::default().with_in_bytes(PAYLOAD_BYTES + 32);
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_handle_input_from_zk",
            &table,
            &mut z,
        )?;
    }
    let steady = wse.mark().map_err(sgx_sdk::SdkError::Sim)?;
    wse.detach().map_err(sgx_sdk::SdkError::Sim)?;
    Ok((startup.pages, steady.pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::HwProfile;

    fn short_cfg() -> SecureKeeperConfig {
        SecureKeeperConfig {
            clients: 4,
            duration: Nanos::from_millis(50),
            ..SecureKeeperConfig::default()
        }
    }

    #[test]
    fn edl_parses_with_expected_shape() {
        let spec = sgx_edl::parse(PROXY_EDL).unwrap();
        assert_eq!(spec.ecalls().len(), 2);
        assert_eq!(spec.ocalls().len(), 2); // +4 sync = 6 total
    }

    #[test]
    fn proxies_requests_under_load() {
        let h = Harness::new(HwProfile::Unpatched);
        let res = run(&h, &short_cfg()).unwrap();
        assert!(res.stats.operations > 50, "{}", res.stats.operations);
        assert_eq!(res.proxy_enclaves.len(), 4);
    }

    #[test]
    fn throughput_scale_matches_paper() {
        // Paper: 1.1 M ecalls over 31 s ≈ 550 k requests ≈ 17.7 k req/s.
        let h = Harness::new(HwProfile::Unpatched);
        let res = run(
            &h,
            &SecureKeeperConfig {
                duration: Nanos::from_millis(400),
                ..SecureKeeperConfig::default()
            },
        )
        .unwrap();
        let tput = res.stats.throughput();
        assert!((10_000.0..30_000.0).contains(&tput), "{tput}");
    }

    #[test]
    fn run_is_deterministic() {
        let ops = |_| {
            let h = Harness::new(HwProfile::Unpatched);
            run(&h, &short_cfg()).unwrap().stats.operations
        };
        assert_eq!(ops(0), ops(1));
    }

    #[test]
    fn working_sets_match_paper() {
        // §5.2.4: 322 pages at start-up, 94 during execution.
        let h = Harness::new(HwProfile::Unpatched);
        let (startup, steady) = working_set_probe(&h, &SecureKeeperConfig::default(), 200).unwrap();
        assert_eq!(startup, 322);
        assert_eq!(steady, 94);
    }
}
