//! Fleet benchmark: runs the acceptance-scale fleet scenario and emits
//! `BENCH_fleet.json` — the fleet-scale counterpart of `BENCH_diff.json`:
//!
//! * `enclaves_per_sec_spinup` — cold starts per *real* second (spin-up
//!   churn through the bounded live pool),
//! * `fleet_requests_per_sec` — completed requests per *virtual* second
//!   (deterministic, profile-dependent),
//! * `peak_epc_evictions_per_sec` — the busiest 1 ms virtual-time bucket
//!   of page-out events, scaled to a per-second rate (the shared-EPC
//!   contention headline).
//!
//! ```text
//! cargo run --release --example fleet_bench -- [out.json] [tiny|smoke|full|NxM] [profile]
//! ```
//!
//! `NxM` is a custom scale — N enclaves x M requests (e.g. `10x100000`
//! for the Appendix G sweep), with the live pool capped at min(N, 64).

use std::collections::HashMap;
use std::time::Instant;

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
    let out = args
        .next()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let cfg = match args.next().as_deref() {
        Some("tiny") => FleetRunConfig::tiny(),
        Some("smoke") => FleetRunConfig::smoke(),
        None | Some("full") => FleetRunConfig::full(),
        Some(other) => custom_scale(other)
            .unwrap_or_else(|| panic!("unknown scale `{other}` (tiny|smoke|full|NxM)")),
    };
    let profile = args.next().map_or(HwProfile::Unpatched, |p| {
        HwProfile::parse(&p).unwrap_or_else(|| panic!("unknown profile `{p}`"))
    });
    let label = profile.file_label();

    let start = Instant::now();
    let run = fleet::run(profile, &cfg, None).expect("fleet run");
    let real_secs = start.elapsed().as_secs_f64();
    let agg = &run.aggregate;

    let spinups_per_sec = agg.spin_ups as f64 / real_secs;
    let requests_per_sec = run.stats.throughput();

    // Peak eviction rate: bucket page-outs into 1 ms of virtual time.
    let mut buckets: HashMap<u64, u64> = HashMap::new();
    for p in run.trace.paging.iter().filter(|p| p.out) {
        *buckets.entry(p.time_ns / 1_000_000).or_default() += 1;
    }
    let peak_evictions_per_sec = buckets.values().copied().max().unwrap_or(0) * 1_000;

    let json = format!(
        "{{\n  \"profile\": \"{label}\",\n  \"slots\": {},\n  \"requests\": {},\n  \
         \"completed\": {},\n  \"spin_ups\": {},\n  \"restarts\": {},\n  \
         \"enclaves_per_sec_spinup\": {:.0},\n  \"fleet_requests_per_sec\": {:.0},\n  \
         \"peak_epc_evictions_per_sec\": {},\n  \"page_outs\": {},\n  \
         \"p50_ns\": {},\n  \"p99_ns\": {},\n  \"virtual_elapsed_ns\": {},\n  \
         \"real_seconds\": {:.3}\n}}\n",
        cfg.slots,
        agg.requests,
        agg.completed,
        agg.spin_ups,
        agg.restarts,
        spinups_per_sec,
        requests_per_sec,
        peak_evictions_per_sec,
        agg.page_outs,
        agg.p50_ns,
        agg.p99_ns,
        run.stats.elapsed.as_nanos(),
        real_secs,
    );
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
    eprintln!("wrote {out}");
}
