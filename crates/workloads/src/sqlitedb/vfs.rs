//! The storage engine's VFS layer.
//!
//! The engine performs all file I/O through the [`Vfs`] trait so the same
//! engine code runs natively (operations charge virtual time directly),
//! enclavised (each operation is an ocall) and optimised (`lseek`+`write`
//! fused into one ocall, as sgx-perf recommends for the SDSC problem).

use sgx_sdk::{CallData, EcallCtx, SdkResult};
use sim_core::rng::jitter;
use sim_core::sync::Mutex;
use sim_core::{Clock, Nanos};
use std::sync::Arc;

// Execution-time model of the underlying "disk" (SATA SSD of the paper's
// testbed), with 10% jitter applied per operation.

/// `lseek(2)` syscall cost.
const LSEEK_EXEC: Nanos = Nanos::from_nanos(800);
/// Base `write(2)` cost (page-cache write).
const WRITE_EXEC: Nanos = Nanos::from_nanos(1_500);
/// Additional write cost per 4 KiB page.
const WRITE_PER_PAGE: Nanos = Nanos::from_nanos(1_000);
/// `fsync(2)` cost (flush to the device).
const FSYNC_EXEC: Nanos = Nanos::from_nanos(8_000);

fn write_cost(rng: &mut sim_core::rng::Rng, bytes: usize) -> Nanos {
    let pages = bytes.div_ceil(4096) as u64;
    jitter(rng, WRITE_EXEC + WRITE_PER_PAGE * pages, 0.1)
}

/// File operations the engine needs. All methods account virtual time; the
/// enclave implementations additionally cross the boundary.
pub trait Vfs {
    /// CPU work performed by the engine itself (parsing, B-tree updates).
    /// Runs inside the enclave in the enclavised variants.
    fn compute(&mut self, dur: Nanos) -> SdkResult<()>;

    /// Positions the file cursor.
    fn lseek(&mut self, offset: u64) -> SdkResult<()>;

    /// Writes `bytes` at the cursor.
    fn write(&mut self, bytes: usize) -> SdkResult<()>;

    /// Positions then writes. The default implementation issues the two
    /// separate operations; the optimised VFS fuses them.
    fn lseek_write(&mut self, offset: u64, bytes: usize) -> SdkResult<()> {
        self.lseek(offset)?;
        self.write(bytes)
    }

    /// Flushes to stable storage.
    fn fsync(&mut self) -> SdkResult<()>;
}

/// Native execution: every operation is a plain syscall charged to the
/// clock.
#[derive(Debug)]
pub struct NativeVfs {
    clock: Clock,
    rng: sim_core::rng::Rng,
}

impl NativeVfs {
    /// Creates a native VFS over the shared clock.
    pub fn new(clock: Clock, seed: u64) -> NativeVfs {
        NativeVfs {
            clock,
            rng: sim_core::rng::seeded(seed),
        }
    }
}

impl Vfs for NativeVfs {
    fn compute(&mut self, dur: Nanos) -> SdkResult<()> {
        self.clock.advance(dur);
        Ok(())
    }

    fn lseek(&mut self, _offset: u64) -> SdkResult<()> {
        let cost = jitter(&mut self.rng, LSEEK_EXEC, 0.1);
        self.clock.advance(cost);
        Ok(())
    }

    fn write(&mut self, bytes: usize) -> SdkResult<()> {
        let cost = write_cost(&mut self.rng, bytes);
        self.clock.advance(cost);
        Ok(())
    }

    fn fsync(&mut self) -> SdkResult<()> {
        let cost = jitter(&mut self.rng, FSYNC_EXEC, 0.1);
        self.clock.advance(cost);
        Ok(())
    }
}

/// Shared untrusted-side I/O state: the "real" file descriptor the ocall
/// implementations operate on.
#[derive(Debug)]
pub struct HostFile {
    rng: Mutex<sim_core::rng::Rng>,
}

impl HostFile {
    /// Creates the host-side file model.
    pub fn new(seed: u64) -> Arc<HostFile> {
        Arc::new(HostFile {
            rng: Mutex::new(sim_core::rng::seeded(seed)),
        })
    }

    /// Cost of an `lseek`.
    pub fn lseek_cost(&self) -> Nanos {
        jitter(&mut self.rng.lock(), LSEEK_EXEC, 0.1)
    }

    /// Cost of a `write` of `bytes`.
    pub fn write_cost(&self, bytes: usize) -> Nanos {
        write_cost(&mut self.rng.lock(), bytes)
    }

    /// Cost of an `fsync`.
    pub fn fsync_cost(&self) -> Nanos {
        jitter(&mut self.rng.lock(), FSYNC_EXEC, 0.1)
    }
}

/// The naïve enclavised VFS: every operation is its own ocall (the
/// published design the paper criticises).
pub struct OcallVfs<'c, 'a> {
    ctx: &'c mut EcallCtx<'a>,
    merged: bool,
}

impl<'c, 'a> OcallVfs<'c, 'a> {
    /// Naïve variant: separate `ocall_lseek` and `ocall_write`.
    pub fn naive(ctx: &'c mut EcallCtx<'a>) -> Self {
        OcallVfs { ctx, merged: false }
    }

    /// Optimised variant: fused `ocall_lseek_write` (the sgx-perf merge
    /// recommendation).
    pub fn merged(ctx: &'c mut EcallCtx<'a>) -> Self {
        OcallVfs { ctx, merged: true }
    }
}

impl Vfs for OcallVfs<'_, '_> {
    fn compute(&mut self, dur: Nanos) -> SdkResult<()> {
        self.ctx.compute(dur)?;
        Ok(())
    }

    fn lseek(&mut self, offset: u64) -> SdkResult<()> {
        self.ctx.ocall("ocall_lseek", &mut CallData::new(offset))
    }

    fn write(&mut self, bytes: usize) -> SdkResult<()> {
        self.ctx.ocall(
            "ocall_write",
            &mut CallData::new(bytes as u64).with_in_bytes(bytes),
        )
    }

    fn lseek_write(&mut self, offset: u64, bytes: usize) -> SdkResult<()> {
        if self.merged {
            self.ctx.ocall(
                "ocall_lseek_write",
                &mut CallData::new(offset)
                    .with_aux(vec![bytes as u64])
                    .with_in_bytes(bytes),
            )
        } else {
            self.lseek(offset)?;
            self.write(bytes)
        }
    }

    fn fsync(&mut self) -> SdkResult<()> {
        self.ctx.ocall("ocall_fsync", &mut CallData::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_vfs_charges_time() {
        let clock = Clock::new();
        let mut vfs = NativeVfs::new(clock.clone(), 1);
        vfs.lseek(0).unwrap();
        vfs.write(4096).unwrap();
        vfs.fsync().unwrap();
        vfs.compute(Nanos::from_micros(5)).unwrap();
        // lseek ~0.8us + write ~2.5us + fsync ~8us + compute 5us ≈ 16us.
        let t = clock.now().as_nanos();
        assert!((12_000..22_000).contains(&t), "{t}");
    }

    #[test]
    fn native_vfs_is_deterministic() {
        let run = || {
            let clock = Clock::new();
            let mut vfs = NativeVfs::new(clock.clone(), 7);
            for i in 0..100 {
                vfs.lseek_write(i * 4096, 4096).unwrap();
            }
            clock.now()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn write_cost_grows_with_size() {
        let host = HostFile::new(3);
        let small = host.write_cost(128);
        let big = host.write_cost(64 * 4096);
        assert!(big > small * 2, "{small} vs {big}");
    }
}
