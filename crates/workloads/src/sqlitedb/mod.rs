//! The SQLite workload (§5.2.2, Figure 6).
//!
//! Several research works run an SQL database inside an enclave; the paper
//! benchmarks a series of insert operations into a persistently stored
//! database, "implementing system calls naïvely as ocalls", replaying
//! commits from popular git repositories. sgx-perf's analyzer spots an
//! SDSC problem between the short `lseek` ocalls and the `write` ocalls
//! that always follow them; merging the two into one ocall recovered a
//! third of the lost throughput.
//!
//! This module reproduces that setup with a real (small) storage engine:
//! a page cache + rollback journal + B-tree-backed table ([`engine`])
//! running over a VFS ([`vfs`]) whose operations are either direct
//! (native), naïve ocalls (enclave), or merged `lseek+write` ocalls
//! (optimised).

pub mod engine;
pub mod vfs;
pub mod workload;

pub use engine::Engine;
pub use vfs::Vfs;
pub use workload::{run, CommitGen, SqliteConfig, SQLITE_EDL, SQLITE_EDL_OPTIMISED};
