//! `record`: one op is one recording session — harness, logger, the
//! application, `Logger::finish`, and the `.evdb` saved to disk — rotating
//! over the TaLoS, switchless and fleet sessions.

use std::path::PathBuf;

use sgx_perf::LoggerConfig;

use crate::sessions::{self, Kind, Session};
use crate::spans::{metric_name, Tracer};
use crate::stats::{median, percentile, Metrics};
use crate::{Output, Workload};

/// TaLoS HTTPS requests per session (about 30 ecalls and 30 ocalls each).
const TALOS_REQUESTS: u64 = 400;
/// Switchless server requests per session (one ecall, four ocalls each).
const SWITCHLESS_REQUESTS: u64 = 4_000;
/// Fleet scale: logical enclaves × requests, sized so its EPC pages.
const FLEET_SLOTS: usize = 100;
const FLEET_REQUESTS: u64 = 10_000;

pub struct Record {
    sessions: [Session; 3],
    dir: PathBuf,
}

impl Record {
    pub fn setup(seed: u64, dir: PathBuf) -> Result<Record, String> {
        let record = Record {
            sessions: [
                Session::talos(seed, TALOS_REQUESTS),
                Session::Switchless {
                    requests: SWITCHLESS_REQUESTS,
                    workers: true,
                },
                Session::fleet(seed, FLEET_SLOTS, FLEET_REQUESTS),
            ],
            dir,
        };
        for s in &record.sessions {
            let bytes = s.record(LoggerConfig::default())?.to_bytes();
            sessions::check_round_trip(&bytes, s.kind().label())?;
        }
        Ok(record)
    }
}

impl Workload for Record {
    fn cycle_len(&self) -> usize {
        self.sessions.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Output, String> {
        let session = &self.sessions[i];
        let kind = session.kind().label();
        let path = self.dir.join(format!("{kind}.evdb"));
        if !tr.is_on() {
            let trace = session.record(LoggerConfig::default())?;
            sessions::save(&trace, &path)?;
            return Ok(Output::File(path));
        }
        let probed = session.probed(true, tr, "workloads.run");
        probed.result.clone()?;
        let trace = tr
            .span("logger.finish", kind, |_| probed.finish())
            .expect("logged session has a logger");
        let (store, bytes) = tr.span("eventdb.encode", kind, |_| {
            let store = trace.to_store();
            let bytes = store.to_bytes();
            (store, bytes)
        });
        tr.span("eventdb.write", kind, |_| std::fs::write(&path, &bytes))
            .map_err(|e| format!("write {}: {e}", path.display()))?;

        let rows: u64 = store.sections().map(|s| s.map_or(0, |s| s.rows)).sum();
        tr.count(metric_name("logger.rows", kind, ""), rows as f64);
        tr.count(
            metric_name("eventdb.trace_bytes", kind, ""),
            bytes.len() as f64,
        );
        tr.count(
            metric_name("sgx_sdk.ecalls", kind, ""),
            probed.ecall_ns.len() as f64,
        );
        tr.count(
            metric_name("sgx_sim.paging_events", kind, ""),
            probed.paging_events as f64,
        );
        tr.count(
            metric_name("sgx_sim.virtual_ms", kind, ""),
            probed.virtual_ns as f64 / 1e6,
        );
        tr.sample(
            metric_name("sgx_sdk.ecall_ns", kind, ""),
            probed.ecall_ns.iter().map(|&ns| ns as f64),
        );
        Ok(Output::File(path))
    }

    /// The same session without the logger, for the logger's host
    /// overhead.
    fn probe(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        self.sessions[i]
            .probed(false, tr, "workloads.run_unlogged")
            .result
    }

    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let durations = tr.durations_ms();
        let med = |layer: &str, kind: &str| {
            durations
                .get(&metric_name(layer, kind, "_ms"))
                .and_then(|v| median(v))
                .unwrap_or(0.0)
        };
        for kind in Kind::ALL.map(Kind::label) {
            for layer in [
                "workloads.run",
                "logger.finish",
                "eventdb.encode",
                "eventdb.write",
            ] {
                m.put(metric_name(layer, kind, "_ms"), med(layer, kind), "ms");
            }
            m.put_ratio(
                &metric_name("logger.host_overhead", kind, ""),
                med("workloads.run", kind),
                &metric_name("workloads.run_unlogged", kind, "_ms"),
                med("workloads.run_unlogged", kind),
                "ms",
            );
            for (name, unit) in [
                ("logger.rows", "count"),
                ("eventdb.trace_bytes", "bytes"),
                ("sgx_sdk.ecalls", "count"),
                ("sgx_sim.paging_events", "count"),
                ("sgx_sim.virtual_ms", "ms"),
            ] {
                let name = metric_name(name, kind, "");
                m.put(
                    name.clone(),
                    tr.counters.get(&name).copied().unwrap_or(0.0),
                    unit,
                );
            }
            let ecall_ns = tr
                .samples
                .get(&metric_name("sgx_sdk.ecall_ns", kind, ""))
                .map_or(&[][..], Vec::as_slice);
            for (suffix, p) in [("_p50", 50.0), ("_p99", 99.0)] {
                m.put(
                    metric_name("sgx_sdk.ecall_ns", kind, suffix),
                    percentile(ecall_ns, p).unwrap_or(0.0),
                    "ns",
                );
            }
        }
    }
}
