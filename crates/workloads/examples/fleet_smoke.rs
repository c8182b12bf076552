//! Fleet determinism smoke: runs the fleet scenario **twice per hardware
//! profile** and asserts the two traces are byte-identical — the
//! fleet-scale extension of the repo's core determinism invariant — then
//! verifies the shared-EPC contention signature (cross-enclave evictions)
//! is present in the trace.
//!
//! ```text
//! cargo run --release --example fleet_smoke -- <output-dir> [tiny|smoke|full|NxM] [profile...]
//! ```
//!
//! Scales: `tiny` (32 enclaves × 600 requests), `smoke` (100 × 10k, the
//! CI gate), `full` (1000 × 100k, the acceptance scale), or `NxM` — N
//! enclaves × M requests with a live pool of min(N, 64), otherwise as
//! `full` (e.g. `10x100000` for the Appendix G sweep). With no profiles
//! given, all three run. One trace per profile is kept as
//! `fleet-<profile>.evdb` for `sgxperf report` / `sgxperf fleet` / the
//! diff gate, next to `fleet.edl`, the fleet's interface. Each profile's
//! line reports the peak EPC eviction rate: the busiest 1 ms virtual-time
//! bucket of page-outs, scaled to a per-second rate.

use std::collections::HashMap;

use sgx_fleet::FleetPolicy;
use sim_core::HwProfile;
use workloads::fleet::{self, FleetRunConfig};

fn custom_scale(spec: &str) -> Option<FleetRunConfig> {
    let (slots, requests) = spec.split_once('x')?;
    let slots: usize = slots.parse().ok()?;
    Some(FleetRunConfig {
        slots,
        requests: requests.parse().ok()?,
        policy: FleetPolicy {
            live_pool: slots.min(64),
            ..FleetPolicy::default()
        },
        ..FleetRunConfig::full()
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = std::path::PathBuf::from(args.next().unwrap_or_else(|| {
        panic!("usage: fleet_smoke <output-dir> [tiny|smoke|full|NxM] [profile...]")
    }));
    let cfg = match args.next().as_deref() {
        Some("tiny") => FleetRunConfig::tiny(),
        None | Some("smoke") => FleetRunConfig::smoke(),
        Some("full") => FleetRunConfig::full(),
        Some(other) => custom_scale(other)
            .unwrap_or_else(|| panic!("unknown scale `{other}` (tiny|smoke|full|NxM)")),
    };
    let profiles: Vec<HwProfile> = {
        let named: Vec<HwProfile> = args
            .map(|p| HwProfile::parse(&p).unwrap_or_else(|| panic!("unknown profile `{p}`")))
            .collect();
        if named.is_empty() {
            HwProfile::ALL.to_vec()
        } else {
            named
        }
    };
    std::fs::create_dir_all(&dir).expect("create output dir");
    // The fleet's interface, for `sgxperf lint --trace` and
    // `sgxperf report --edl` against the traces.
    std::fs::write(dir.join("fleet.edl"), fleet::EDL).expect("write fleet.edl");

    println!(
        "fleet smoke: {} enclave(s) x {} request(s), live pool {}, EPC {} page(s)",
        cfg.slots,
        cfg.requests,
        cfg.policy.live_pool,
        cfg.epc_pages()
    );
    for profile in profiles {
        let label = profile.file_label();
        let a = fleet::run(profile, &cfg, None).expect("fleet run 1");
        let b = fleet::run(profile, &cfg, None).expect("fleet run 2");

        let path_a = dir.join(format!("fleet-{label}.evdb"));
        let path_b = dir.join(format!("fleet-{label}-rerun.evdb"));
        a.trace.save(&path_a).expect("save trace 1");
        b.trace.save(&path_b).expect("save trace 2");
        let bytes_a = std::fs::read(&path_a).expect("read trace 1");
        let bytes_b = std::fs::read(&path_b).expect("read trace 2");
        assert_eq!(
            bytes_a, bytes_b,
            "{label}: fleet traces differ between identical runs"
        );
        std::fs::remove_file(&path_b).expect("drop rerun trace");

        let agg = &a.aggregate;
        assert_eq!(agg.completed, cfg.requests, "{label}: requests lost");
        assert!(agg.page_outs > 0, "{label}: no cross-enclave evictions");
        let victims = a.slots.iter().filter(|s| s.page_outs > 0).count();
        assert!(victims > 1, "{label}: evictions confined to one slot");
        let mut buckets: HashMap<u64, u64> = HashMap::new();
        for p in a.trace.paging.iter().filter(|p| p.out) {
            *buckets.entry(p.time_ns / 1_000_000).or_default() += 1;
        }
        let peak_evictions_per_sec = buckets.values().max().map_or(0, |n| n * 1_000);
        println!(
            "{label}: {} completed in {} ({:.0} req/s virtual), {} spin-up(s), \
             {} eviction(s) across {} slot(s), peak {} evictions/s, p50 {} p99 {} — \
             byte-identical across 2 runs",
            agg.completed,
            a.stats.elapsed,
            a.stats.throughput(),
            agg.spin_ups,
            agg.page_outs,
            victims,
            peak_evictions_per_sec,
            sim_core::Nanos::from_nanos(agg.p50_ns),
            sim_core::Nanos::from_nanos(agg.p99_ns),
        );
    }
    println!("wrote fleet traces to {}", dir.display());
}
