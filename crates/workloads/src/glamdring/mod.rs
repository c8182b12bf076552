//! The Glamdring-partitioned LibreSSL workload (§5.2.3, Figure 6).
//!
//! Glamdring automatically partitions an application: functions touching
//! sensitive data move into the enclave, the rest stays outside. For
//! LibreSSL's signing path this produced a pathological interface — the
//! untrusted `bn_mul_recursive` calls the trusted `bn_sub_part_words`
//! **in pairs at every recursion node**, so that single ecall accounts for
//! 99.5% of all 6.6 million ecalls of a 30-second signing benchmark, with
//! a mean execution time around the bare transition cost.
//!
//! sgx-perf flags it as an SISC problem; moving `bn_mul_recursive` (and
//! with it the whole multiplication) inside the enclave removed the
//! successive ecalls and yielded 2.16× (unpatched), 2.66× (Spectre) and
//! 2.87× (L1TF) speedups.
//!
//! [`bignum`] implements real multi-word arithmetic with the OpenSSL-style
//! Karatsuba recursion; [`signer`] drives the certificate-signing
//! benchmark in the three variants.

pub mod bignum;
pub mod signer;

pub use signer::{run, GlamdringApp, GlamdringConfig, GlamdringResult, BN_OCALL_EVERY};
