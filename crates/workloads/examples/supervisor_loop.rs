//! Crash-consistent recovery demo: the supervised SecureKeeper-style
//! server loses its enclave mid-run, recovers, and persists a trace
//! snapshot into a *segmented* event store after every completed request.
//! Kill the process at any point (`kill -9`) and `TraceDb::load` salvages
//! the file back to the last intact frame boundary — `sgxperf info` and
//! `sgxperf report` consume the survivor without ceremony.
//!
//! ```text
//! cargo run --example supervisor_loop -- <out.evdb> [--slow] [--no-fault] \
//!     [--requests N] [--profile unpatched|spectre|l1tf]
//! ```
//!
//! `--no-fault` skips the enclave-loss injection — the baseline for
//! `sgxperf diff`, which attributes the faulted run's regressions to the
//! recovery window.
//!
//! `--slow` sleeps real time between requests so a CI harness can land a
//! SIGKILL mid-run; virtual time (and thus the trace) is unaffected.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use eventdb::Store;
use sgx_perf::{Logger, LoggerConfig};
use sim_core::HwProfile;
use workloads::harness::Harness;
use workloads::supervisor_loop;

fn main() {
    let mut path = None;
    let mut slow = false;
    let mut fault = true;
    let mut requests: u64 = 48;
    let mut profile = HwProfile::Unpatched;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--slow" => slow = true,
            "--no-fault" => fault = false,
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests N");
            }
            "--profile" => {
                let name = args.next();
                profile = name
                    .as_deref()
                    .and_then(HwProfile::parse)
                    .unwrap_or_else(|| panic!("unknown profile {name:?}"));
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => panic!("unexpected argument {other:?}"),
        }
    }
    let path =
        path.expect("usage: supervisor_loop <out.evdb> [--slow] [--requests N] [--profile P]");

    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let writer = Arc::new(Mutex::new(
        Store::open_segmented(&path).expect("open segmented store"),
    ));

    // Persist after every unit of work: snapshot the live trace and append
    // it as one frame set. Frames are whole-table snapshots, so a torn
    // tail costs at most the last request's worth of rows.
    let observer: supervisor_loop::RequestObserver = {
        let logger = Arc::clone(&logger);
        let writer = Arc::clone(&writer);
        Arc::new(move |_req| {
            if slow {
                std::thread::sleep(Duration::from_millis(40));
            }
            let store = logger.snapshot().to_store();
            writer
                .lock()
                .unwrap()
                .append_store(&store)
                .expect("append frame");
        })
    };

    let plan = fault.then(|| supervisor_loop::loss_plan(requests / 2));
    let run =
        supervisor_loop::run_with_observer(&harness, requests, plan.as_ref(), None, Some(observer))
            .expect("supervised run");

    let trace = logger.finish();
    writer
        .lock()
        .unwrap()
        .append_store(&trace.to_store())
        .expect("final frame");

    println!("profile:        {profile:?}");
    println!("requests:       {requests}");
    println!("checksum:       {:#018x}", run.checksum);
    println!("restarts:       {}", run.restarts);
    println!("lifecycle rows: {}", trace.lifecycle.len());
    println!("elapsed:        {}", run.stats.elapsed);
    println!("wrote {path}");
}
