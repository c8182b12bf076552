//! The §5.2.2 benchmark driver: replay git-commit-like records as inserts
//! against the engine in the native, enclavised and optimised variants.

use std::sync::Arc;

use sgx_sdk::{CallData, OcallTableBuilder, SdkResult, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig};
use sim_core::sync::Mutex;

use crate::harness::{Harness, RunStats, Variant};

use super::engine::Engine;
use super::vfs::{HostFile, NativeVfs, OcallVfs};

/// The published (naïve) enclave interface: system calls as one-to-one
/// ocalls.
pub const SQLITE_EDL: &str = r#"
enclave {
    trusted {
        public int ecall_insert(uint64_t key, [in, size=len] char* row, size_t len);
        public int ecall_lookup(uint64_t key);
    };
    untrusted {
        void ocall_lseek(uint64_t offset);
        int ocall_write([in, size=len] char* buf, size_t len);
        int ocall_fsync();
    };
};
"#;

/// The optimised interface after applying the sgx-perf merge
/// recommendation: `lseek`+`write` fused into one ocall.
pub const SQLITE_EDL_OPTIMISED: &str = r#"
enclave {
    trusted {
        public int ecall_insert(uint64_t key, [in, size=len] char* row, size_t len);
        public int ecall_lookup(uint64_t key);
    };
    untrusted {
        void ocall_lseek(uint64_t offset);
        int ocall_write([in, size=len] char* buf, size_t len);
        int ocall_lseek_write(uint64_t offset, [in, size=len] char* buf, size_t len);
        int ocall_fsync();
    };
};
"#;

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct SqliteConfig {
    /// Number of insert requests to replay.
    pub inserts: u64,
    /// RNG seed for commit sizes and I/O jitter.
    pub seed: u64,
    /// Which variant to run.
    pub variant: Variant,
}

impl Default for SqliteConfig {
    fn default() -> Self {
        SqliteConfig {
            inserts: 10_000,
            seed: 0x5eed_0051,
            variant: Variant::Enclave,
        }
    }
}

/// Generator of git-commit-like records: `(key, row_len)` pairs with
/// commit-message-scale row sizes (the paper replays commits from popular
/// git repositories).
#[derive(Debug)]
pub struct CommitGen {
    rng: sim_core::rng::Rng,
    next_key: u64,
}

impl CommitGen {
    /// Creates a deterministic generator.
    pub fn new(seed: u64) -> CommitGen {
        CommitGen {
            rng: sim_core::rng::seeded(seed),
            next_key: 0,
        }
    }
}

impl Iterator for CommitGen {
    type Item = (u64, usize);
    fn next(&mut self) -> Option<(u64, usize)> {
        let key = self.next_key;
        self.next_key += 1;
        // Commit records: short subject lines usually, occasional large
        // bodies (merge commits, changelogs).
        let len = if self.rng.gen::<f64>() < 0.1 {
            self.rng.gen_range(600..2_000)
        } else {
            self.rng.gen_range(80..400)
        };
        Some((key, len))
    }
}

/// Runs the insert benchmark in the configured variant and returns the
/// throughput stats. Attach an [`sgx_perf::Logger`] to `harness.runtime()`
/// beforehand to trace the enclavised variants.
///
/// # Errors
///
/// Propagates SDK failures.
pub fn run(harness: &Harness, config: &SqliteConfig) -> SdkResult<RunStats> {
    match config.variant {
        Variant::Native => run_native(harness, config),
        Variant::Enclave | Variant::Optimised => run_enclavised(harness, config),
    }
}

fn run_native(harness: &Harness, config: &SqliteConfig) -> SdkResult<RunStats> {
    let mut vfs = NativeVfs::new(harness.clock().clone(), config.seed ^ 0xf11e);
    let mut engine = Engine::new();
    let generator = CommitGen::new(config.seed);
    let (count, elapsed) = {
        let before = harness.clock().now();
        let mut count = 0u64;
        for (key, len) in generator.take(config.inserts as usize) {
            if engine.insert(key, len, &mut vfs)? {
                count += 1;
            }
        }
        (count, harness.clock().now() - before)
    };
    Ok(RunStats {
        variant: config.variant,
        operations: count,
        elapsed,
    })
}

fn run_enclavised(harness: &Harness, config: &SqliteConfig) -> SdkResult<RunStats> {
    let optimised = config.variant == Variant::Optimised;
    let edl = if optimised {
        SQLITE_EDL_OPTIMISED
    } else {
        SQLITE_EDL
    };
    let spec = sgx_edl::parse(edl).expect("static EDL parses");
    let rt = harness.runtime();
    let enclave = rt.create_enclave(
        &spec,
        &EnclaveConfig {
            heap_kib: 512,
            ..EnclaveConfig::default()
        },
    )?;

    let engine = Arc::new(Mutex::new(Engine::new()));
    let heap = harness.machine().heap_range(enclave.id())?;
    let heap_pages = heap.len();

    let engine_insert = Arc::clone(&engine);
    let heap_start = heap.start;
    enclave.register_ecall("ecall_insert", move |ctx, data| {
        // The row lands in enclave heap: touch the page it belongs to
        // (drives working-set and paging behaviour).
        let page = heap_start + (data.scalar as usize % heap_pages);
        ctx.touch(page..page + 1, AccessKind::Write)?;
        let mut engine = engine_insert.lock();
        let mut vfs = if optimised {
            OcallVfs::merged(ctx)
        } else {
            OcallVfs::naive(ctx)
        };
        let inserted = engine.insert(data.scalar, data.in_bytes, &mut vfs)?;
        data.ret = u64::from(inserted);
        Ok(())
    })?;
    let engine_lookup = Arc::clone(&engine);
    enclave.register_ecall("ecall_lookup", move |ctx, data| {
        let engine = engine_lookup.lock();
        let mut vfs = OcallVfs::naive(ctx);
        data.ret = engine
            .lookup(data.scalar, &mut vfs)?
            .map_or(0, |l| l as u64);
        Ok(())
    })?;

    let host = HostFile::new(config.seed ^ 0xf11e);
    let mut builder = OcallTableBuilder::new(enclave.spec());
    {
        let host = Arc::clone(&host);
        builder.register("ocall_lseek", move |h, _| {
            h.compute(host.lseek_cost());
            Ok(())
        })?;
    }
    {
        let host = Arc::clone(&host);
        builder.register("ocall_write", move |h, data| {
            h.compute(host.write_cost(data.scalar as usize));
            Ok(())
        })?;
    }
    if optimised {
        let host = Arc::clone(&host);
        builder.register("ocall_lseek_write", move |h, data| {
            let bytes = data.aux.first().copied().unwrap_or(0) as usize;
            h.compute(host.lseek_cost() + host.write_cost(bytes));
            Ok(())
        })?;
    }
    {
        let host = Arc::clone(&host);
        builder.register("ocall_fsync", move |h, _| {
            h.compute(host.fsync_cost());
            Ok(())
        })?;
    }
    let table = Arc::new(builder.build()?);

    let tcx = ThreadCtx::main();
    let generator = CommitGen::new(config.seed);
    let before = harness.clock().now();
    let mut count = 0u64;
    for (key, len) in generator.take(config.inserts as usize) {
        let mut data = CallData::new(key).with_in_bytes(len);
        rt.ecall(&tcx, enclave.id(), "ecall_insert", &table, &mut data)?;
        count += data.ret;
    }
    let elapsed = harness.clock().now() - before;
    Ok(RunStats {
        variant: config.variant,
        operations: count,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::HwProfile;

    fn cfg(variant: Variant, inserts: u64) -> SqliteConfig {
        SqliteConfig {
            inserts,
            variant,
            ..SqliteConfig::default()
        }
    }

    #[test]
    fn edl_files_parse() {
        assert!(sgx_edl::parse(SQLITE_EDL).is_ok());
        assert!(sgx_edl::parse(SQLITE_EDL_OPTIMISED).is_ok());
    }

    #[test]
    fn commit_gen_is_deterministic() {
        let a: Vec<_> = CommitGen::new(9).take(50).collect();
        let b: Vec<_> = CommitGen::new(9).take(50).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&(_, len)| (80..2_000).contains(&len)));
    }

    #[test]
    fn figure6_ordering_native_beats_optimised_beats_enclave() {
        let native = run(
            &Harness::new(HwProfile::Unpatched),
            &cfg(Variant::Native, 2_000),
        )
        .unwrap()
        .throughput();
        let enclave = run(
            &Harness::new(HwProfile::Unpatched),
            &cfg(Variant::Enclave, 2_000),
        )
        .unwrap()
        .throughput();
        let optimised = run(
            &Harness::new(HwProfile::Unpatched),
            &cfg(Variant::Optimised, 2_000),
        )
        .unwrap()
        .throughput();
        assert!(
            native > optimised && optimised > enclave,
            "native {native:.0} optimised {optimised:.0} enclave {enclave:.0}"
        );
        // §5.2.2 shape: enclave ≈ 0.5-0.65x native, merging recovers ≈1.2-1.45x.
        let enclave_ratio = enclave / native;
        let gain = optimised / enclave;
        assert!((0.40..0.70).contains(&enclave_ratio), "{enclave_ratio}");
        assert!((1.15..1.50).contains(&gain), "{gain}");
    }

    #[test]
    fn native_throughput_is_in_paper_scale() {
        let stats = run(
            &Harness::new(HwProfile::Unpatched),
            &cfg(Variant::Native, 5_000),
        )
        .unwrap();
        let tput = stats.throughput();
        // Paper: 23,087 req/s native. Same order of magnitude expected.
        assert!((15_000.0..40_000.0).contains(&tput), "{tput}");
    }
}
