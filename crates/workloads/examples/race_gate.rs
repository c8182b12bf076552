//! Produces the traces the CI race gate feeds to `sgxperf races`,
//! written as `.evdb` files — all recorded with sync-event tracking on:
//!
//! * `racy-fixture.evdb` — the seeded data race + lock inversion; the
//!   gate expects exit **3**,
//! * `securekeeper.evdb`, `sqlitedb.evdb`, `switchless-loop.evdb` — the
//!   stock workloads; the gate expects exit **0** for each (warnings such
//!   as securekeeper's lock-held-across-ocall are allowed).
//!
//! ```text
//! cargo run --example race_gate -- <output-dir> [unpatched|spectre|l1tf]
//! ```

use sgx_perf::{Logger, LoggerConfig, TraceDb};
use sim_core::{HwProfile, Nanos};
use workloads::Harness;

fn record(profile: HwProfile, run: impl FnOnce(&Harness)) -> TraceDb {
    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::with_syncev());
    run(&harness);
    logger.finish()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = std::path::PathBuf::from(
        args.next()
            .unwrap_or_else(|| panic!("usage: race_gate <output-dir> [unpatched|spectre|l1tf]")),
    );
    let profile = args.next().map_or(HwProfile::Unpatched, |p| {
        HwProfile::parse(&p).unwrap_or_else(|| panic!("unknown profile `{p}`"))
    });
    std::fs::create_dir_all(&dir).expect("create output dir");

    let racy = record(profile, |h| {
        workloads::racy_fixture::run(h, &workloads::racy_fixture::RacyFixtureConfig::default())
            .expect("racy fixture");
    });
    racy.save(dir.join("racy-fixture.evdb")).expect("save");
    println!("racy-fixture.evdb: {} sync events", racy.syncev.len());

    let sk = record(profile, |h| {
        workloads::securekeeper::run(
            h,
            &workloads::securekeeper::SecureKeeperConfig {
                clients: 4,
                duration: Nanos::from_millis(50),
                ..Default::default()
            },
        )
        .expect("securekeeper");
    });
    sk.save(dir.join("securekeeper.evdb")).expect("save");
    println!("securekeeper.evdb: {} sync events", sk.syncev.len());

    let sq = record(profile, |h| {
        workloads::sqlitedb::run(
            h,
            &workloads::sqlitedb::SqliteConfig {
                inserts: 200,
                ..Default::default()
            },
        )
        .expect("sqlitedb");
    });
    sq.save(dir.join("sqlitedb.evdb")).expect("save");
    println!("sqlitedb.evdb: {} sync events", sq.syncev.len());

    let sl = record(profile, |h| {
        // Force the hot ocall onto the ring so the trace carries the
        // switchless post/complete hand-off events.
        let cfg = sgx_sdk::SwitchlessConfig {
            untrusted_workers: 1,
            force_ocalls: vec!["ocall_log".into()],
            ..sgx_sdk::SwitchlessConfig::default()
        };
        workloads::switchless_loop::run(h, 200, Some(cfg)).expect("switchless loop");
    });
    sl.save(dir.join("switchless-loop.evdb")).expect("save");
    println!("switchless-loop.evdb: {} sync events", sl.syncev.len());
}
