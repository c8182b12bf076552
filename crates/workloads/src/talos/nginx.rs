//! The nginx-like host: builds the TaLoS interface (207 ecalls / 61
//! ocalls), registers the enclave implementation and serves HTTPS GET
//! requests against it.

use std::sync::Arc;

use sgx_edl::{InterfaceBuilder, InterfaceSpec, ParamSpec, PointerDir};
use sgx_sdk::{CallData, EcallCtx, OcallTableBuilder, SdkResult, ThreadCtx};
use sgx_sim::EnclaveConfig;
use sim_core::rng::jitter;
use sim_core::sync::Mutex;
use sim_core::Nanos;

use crate::harness::{Harness, RunStats, Variant};

use super::tls::{OpEffects, TlsState};

/// Number of SSL_CTX-configuration ecalls invoked once at server start.
const STARTUP_ECALLS: usize = 46;
/// Filler trusted functions so the interface reaches the published 207.
const FILLER_ECALLS: usize = 207 - 15 - STARTUP_ECALLS;
/// Filler untrusted functions so the interface reaches the published 61
/// (10 called + 4 implicit sync + fillers).
const FILLER_OCALLS: usize = 61 - 10 - 4;

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct TalosConfig {
    /// Number of HTTPS GET requests (the paper uses 1000 curl requests).
    pub requests: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TalosConfig {
    fn default() -> Self {
        TalosConfig {
            requests: 1_000,
            seed: 0x7a10_57a5,
        }
    }
}

/// Response body size (drives `SSL_write` chunking).
const RESPONSE_BYTES: usize = 16 * 1024;

/// Outcome of a TaLoS run.
#[derive(Debug, Clone, PartialEq)]
pub struct TalosResult {
    /// Throughput stats (operations = requests served).
    pub stats: RunStats,
    /// The enclave id.
    pub enclave: sgx_sim::EnclaveId,
}

/// Builds the TaLoS enclave interface: the OpenSSL API surface as ecalls.
/// `ecall_SSL_write` takes its buffer as `user_check` — the real TaLoS
/// security issue the paper cites (§3.6, the paper's reference \[19\]).
pub fn talos_interface() -> InterfaceSpec {
    let mut b = InterfaceBuilder::new();
    for name in [
        "ecall_SSL_new",
        "ecall_SSL_set_fd",
        "ecall_SSL_set_accept_state",
        "ecall_SSL_do_handshake",
        "ecall_SSL_read",
        "ecall_SSL_get_error",
        "ecall_ERR_peek_error",
        "ecall_ERR_clear_error",
        "ecall_SSL_get_rbio",
        "ecall_BIO_int_ctrl",
        "ecall_SSL_ctrl",
        "ecall_SSL_get_verify_result",
        "ecall_SSL_shutdown",
        "ecall_SSL_free",
    ] {
        b = b.public_ecall(name, vec![ParamSpec::value("ssl", "uint64_t")]);
    }
    b = b.public_ecall(
        "ecall_SSL_write",
        vec![
            ParamSpec::value("ssl", "uint64_t"),
            ParamSpec::pointer("buf", "void", PointerDir::UserCheck),
            ParamSpec::value("len", "size_t"),
        ],
    );
    for i in 0..STARTUP_ECALLS {
        b = b.public_ecall(&format!("ecall_SSL_CTX_cfg_{i}"), vec![]);
    }
    for i in 0..FILLER_ECALLS {
        b = b.public_ecall(&format!("ecall_talos_gen_{i}"), vec![]);
    }
    for name in [
        "enclave_ocall_read",
        "enclave_ocall_write",
        "enclave_ocall_execute_ssl_ctx_info_callback",
        "enclave_ocall_alpn_select_cb",
        "ocall_malloc",
        "ocall_free",
        "ocall_gettime",
        "ocall_open",
        "ocall_stat",
        "ocall_close",
    ] {
        b = b.ocall(name, vec![ParamSpec::value("arg", "uint64_t")]);
    }
    for i in 0..FILLER_OCALLS {
        b = b.ocall(&format!("ocall_talos_gen_{i}"), vec![]);
    }
    b.build().expect("static interface is valid")
}

/// Applies the enclave-side effects of one TLS operation: trusted compute,
/// then the requested ocalls through the (logger-rewritable) table.
fn apply(ctx: &mut EcallCtx<'_>, fx: &OpEffects, data: &mut CallData) -> SdkResult<()> {
    ctx.compute(fx.compute)?;
    for _ in 0..fx.socket_reads {
        ctx.ocall(
            "enclave_ocall_read",
            &mut CallData::default().with_out_bytes(16 * 1024),
        )?;
    }
    for &bytes in &fx.socket_writes {
        ctx.ocall(
            "enclave_ocall_write",
            &mut CallData::new(bytes as u64).with_in_bytes(bytes),
        )?;
    }
    for _ in 0..fx.info_callbacks {
        ctx.ocall(
            "enclave_ocall_execute_ssl_ctx_info_callback",
            &mut CallData::default(),
        )?;
    }
    for _ in 0..fx.alpn_callbacks {
        ctx.ocall("enclave_ocall_alpn_select_cb", &mut CallData::default())?;
    }
    for _ in 0..fx.mallocs {
        ctx.ocall("ocall_malloc", &mut CallData::new(4_096))?;
    }
    for _ in 0..fx.frees {
        ctx.ocall("ocall_free", &mut CallData::default())?;
    }
    for _ in 0..fx.gettimes {
        ctx.ocall("ocall_gettime", &mut CallData::default())?;
    }
    data.ret = fx.ret;
    Ok(())
}

fn register_enclave_side(
    enclave: &sgx_sdk::Enclave,
    state: &Arc<Mutex<TlsState>>,
) -> SdkResult<()> {
    macro_rules! reg {
        ($name:literal, |$st:ident, $data:ident| $fx:expr) => {{
            let state = Arc::clone(state);
            enclave.register_ecall($name, move |ctx, data| {
                let fx = {
                    let mut $st = state.lock();
                    let $data = &*data;
                    $fx
                };
                apply(ctx, &fx, data)
            })?;
        }};
    }
    reg!("ecall_SSL_new", |st, _d| st.ssl_new());
    reg!("ecall_SSL_set_fd", |st, d| st
        .ssl_set_fd(d.scalar, d.aux.first().copied().unwrap_or(0)));
    reg!("ecall_SSL_set_accept_state", |st, d| st
        .ssl_set_accept_state(d.scalar));
    reg!("ecall_SSL_do_handshake", |st, d| st
        .ssl_do_handshake(d.scalar));
    reg!("ecall_SSL_read", |st, d| st.ssl_read(d.scalar, 4_096));
    reg!("ecall_SSL_write", |st, d| st.ssl_write(
        d.scalar,
        d.aux.first().copied().unwrap_or(0) as usize
    ));
    reg!("ecall_SSL_get_error", |st, d| st.ssl_get_error(d.scalar));
    reg!("ecall_ERR_peek_error", |st, d| st.err_peek_error(d.scalar));
    reg!("ecall_ERR_clear_error", |st, d| st
        .err_clear_error(d.scalar));
    reg!("ecall_SSL_shutdown", |st, d| st.ssl_shutdown(d.scalar));
    reg!("ecall_SSL_free", |st, d| st.ssl_free(d.scalar));
    for name in [
        "ecall_SSL_get_rbio",
        "ecall_BIO_int_ctrl",
        "ecall_SSL_ctrl",
        "ecall_SSL_get_verify_result",
    ] {
        let state = Arc::clone(state);
        enclave.register_ecall(name, move |ctx, data| {
            let fx = state.lock().trivial();
            apply(ctx, &fx, data)
        })?;
    }
    // The SSL_CTX configuration family called at server start. The first
    // one loads the certificate chain from disk (open/stat/close ocalls).
    {
        let state = Arc::clone(state);
        enclave.register_ecall("ecall_SSL_CTX_cfg_0", move |ctx, data| {
            let fx = state.lock().trivial();
            ctx.ocall("ocall_open", &mut CallData::default())?;
            ctx.ocall("ocall_stat", &mut CallData::default())?;
            ctx.ocall("ocall_close", &mut CallData::default())?;
            apply(ctx, &fx, data)
        })?;
    }
    for i in 1..STARTUP_ECALLS {
        let state = Arc::clone(state);
        enclave.register_ecall(&format!("ecall_SSL_CTX_cfg_{i}"), move |ctx, data| {
            let fx = state.lock().trivial();
            apply(ctx, &fx, data)
        })?;
    }
    Ok(())
}

fn build_ocall_table(spec: &InterfaceSpec, seed: u64) -> SdkResult<sgx_sdk::OcallTable> {
    let rng: Arc<Mutex<sim_core::rng::Rng>> = Arc::new(Mutex::new(sim_core::rng::seeded(seed)));
    let mut builder = OcallTableBuilder::new(spec);
    {
        let rng = Arc::clone(&rng);
        builder.register("enclave_ocall_read", move |h, _| {
            // Blocking socket read: the long ocall family.
            h.compute(jitter(&mut rng.lock(), Nanos::from_micros(12), 0.2));
            Ok(())
        })?;
    }
    {
        let rng = Arc::clone(&rng);
        builder.register("enclave_ocall_write", move |h, data| {
            // Handshake flights flush (slow); response chunks hit the
            // socket buffer (fast).
            let mean = if matches!(data.scalar, 1_600 | 900 | 300) {
                Nanos::from_micros(14)
            } else {
                Nanos::from_micros(6)
            };
            h.compute(jitter(&mut rng.lock(), mean, 0.2));
            Ok(())
        })?;
    }
    for (name, us) in [
        ("enclave_ocall_execute_ssl_ctx_info_callback", 2u64),
        ("enclave_ocall_alpn_select_cb", 2),
        ("ocall_malloc", 1),
        ("ocall_free", 1),
        ("ocall_open", 9),
        ("ocall_stat", 4),
        ("ocall_close", 3),
    ] {
        let rng = Arc::clone(&rng);
        builder.register(name, move |h, _| {
            h.compute(jitter(&mut rng.lock(), Nanos::from_micros(us), 0.2));
            Ok(())
        })?;
    }
    builder.register("ocall_gettime", |h, _| {
        h.compute(Nanos::from_nanos(300));
        Ok(())
    })?;
    for i in 0..FILLER_OCALLS {
        builder.register(&format!("ocall_talos_gen_{i}"), |_, _| Ok(()))?;
    }
    builder.build()
}

/// Runs the nginx+TaLoS workload: server start-up (SSL_CTX configuration)
/// followed by `config.requests` HTTPS GET requests, each exercising the
/// accept/read/write/shutdown path of §5.2.1.
///
/// TaLoS has no optimised variant in the paper (being a drop-in
/// replacement blocks the interface changes), so there is no
/// [`Variant`] knob here.
///
/// # Errors
///
/// Propagates SDK failures.
pub fn run(harness: &Harness, config: &TalosConfig) -> SdkResult<TalosResult> {
    let spec = talos_interface();
    let rt = harness.runtime();
    let enclave = rt.create_enclave(
        &spec,
        &EnclaveConfig {
            code_kib: 1_024, // LibreSSL is big
            heap_kib: 1_024,
            ..EnclaveConfig::default()
        },
    )?;
    let state = Arc::new(Mutex::new(TlsState::new(config.seed)));
    register_enclave_side(&enclave, &state)?;
    let table = Arc::new(build_ocall_table(enclave.spec(), config.seed ^ 0xabc)?);
    let tcx = ThreadCtx::main();
    let eid = enclave.id();

    let call = |name: &str, data: &mut CallData| rt.ecall(&tcx, eid, name, &table, data);

    // Server start-up: configure the SSL context.
    for i in 0..STARTUP_ECALLS {
        call(&format!("ecall_SSL_CTX_cfg_{i}"), &mut CallData::default())?;
        call(&format!("ecall_SSL_CTX_cfg_{i}"), &mut CallData::default())?;
    }

    let start = harness.clock().now();
    let mut served = 0u64;
    for _ in 0..config.requests {
        // Accept phase.
        let mut d = CallData::default();
        call("ecall_SSL_new", &mut d)?;
        let ssl = d.ret;
        call(
            "ecall_SSL_set_fd",
            &mut CallData::new(ssl).with_aux(vec![ssl + 100]),
        )?;
        call("ecall_SSL_set_accept_state", &mut CallData::new(ssl))?;
        loop {
            let mut hs = CallData::new(ssl);
            call("ecall_SSL_do_handshake", &mut hs)?;
            if hs.ret == 1 {
                break;
            }
            // nginx inspects the error before retrying.
            call("ecall_SSL_get_error", &mut CallData::new(ssl))?;
            call("ecall_ERR_peek_error", &mut CallData::new(ssl))?;
        }
        call("ecall_ERR_clear_error", &mut CallData::new(ssl))?;

        // Read the request (nginx reads until the headers are complete).
        for _ in 0..5 {
            let mut rd = CallData::new(ssl);
            call("ecall_SSL_read", &mut rd)?;
            call("ecall_SSL_get_error", &mut CallData::new(ssl))?;
            call("ecall_ERR_peek_error", &mut CallData::new(ssl))?;
        }
        call("ecall_SSL_ctrl", &mut CallData::new(ssl))?;
        call("ecall_SSL_get_verify_result", &mut CallData::new(ssl))?;

        // Send the response.
        call(
            "ecall_SSL_write",
            &mut CallData::new(ssl)
                .with_aux(vec![RESPONSE_BYTES as u64])
                .with_in_bytes(RESPONSE_BYTES),
        )?;
        call("ecall_SSL_get_rbio", &mut CallData::new(ssl))?;
        call("ecall_SSL_get_rbio", &mut CallData::new(ssl))?;
        call("ecall_BIO_int_ctrl", &mut CallData::new(ssl))?;
        call("ecall_ERR_clear_error", &mut CallData::new(ssl))?;

        // Teardown.
        call("ecall_SSL_shutdown", &mut CallData::new(ssl))?;
        call("ecall_SSL_free", &mut CallData::new(ssl))?;
        served += 1;
    }
    Ok(TalosResult {
        stats: RunStats {
            variant: Variant::Enclave,
            operations: served,
            elapsed: harness.clock().now() - start,
        },
        enclave: eid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::HwProfile;

    #[test]
    fn interface_has_published_size() {
        let spec = talos_interface();
        assert_eq!(spec.ecalls().len(), 207);
        assert_eq!(spec.ocalls().len(), 57); // +4 implicit sync = 61
                                             // The TaLoS SSL_write user_check issue is present.
        assert!(spec
            .user_check_params()
            .iter()
            .any(|(call, param)| call == "ecall_SSL_write" && param == "buf"));
    }

    #[test]
    fn serves_requests() {
        let h = Harness::new(HwProfile::Unpatched);
        let res = run(
            &h,
            &TalosConfig {
                requests: 50,
                ..TalosConfig::default()
            },
        )
        .unwrap();
        assert_eq!(res.stats.operations, 50);
        assert!(res.stats.elapsed > Nanos::ZERO);
    }

    #[test]
    fn run_is_deterministic() {
        let elapsed = |seed| {
            let h = Harness::new(HwProfile::Unpatched);
            run(&h, &TalosConfig { requests: 30, seed })
                .unwrap()
                .stats
                .elapsed
        };
        assert_eq!(elapsed(5), elapsed(5));
        assert_ne!(elapsed(5), elapsed(6));
    }
}
