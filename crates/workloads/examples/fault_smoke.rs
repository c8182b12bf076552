//! CI smoke driver for the chaos harness: runs the golden-trace fixtures
//! under a fault plan on one hardware profile and asserts the replay
//! contract — two runs of the same seeded plan must produce byte-identical
//! traces, and an empty plan must be indistinguishable from no plan.
//!
//! ```text
//! cargo run --example fault_smoke -- <unpatched|spectre|l1tf> [<fault-spec>]
//! ```
//!
//! Without a spec, a canned plan covering both classic and switchless
//! fault sites is used. Exits non-zero (panics) on any divergence.

use sim_core::fault::FaultPlan;
use sim_core::HwProfile;
use workloads::chaos;

/// One fault per site family: storms and paging on the classic fixture,
/// stall and ring pressure on the switchless one.
const CANNED_SPEC: &str = "seed=11;aex-storm@call=5:count=4;evict-storm@t=1ms;\
    ocall-timeout@call=3:delay=40us,times=2;worker-stall@call=1:delay=500us;\
    ring-full@call=2:calls=3;tcs-exhaust@call=4:times=2";

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next();
    let profile = name
        .as_deref()
        .and_then(HwProfile::parse)
        .unwrap_or_else(|| {
            panic!("usage: fault_smoke <unpatched|spectre|l1tf> [<fault-spec>] (got {name:?})")
        });
    let spec = args.next().unwrap_or_else(|| CANNED_SPEC.to_string());
    let plan = FaultPlan::parse(&spec).expect("fault spec");
    println!("profile: {profile:?}");
    println!("plan:    {plan}");

    // Replay: same plan, same bytes — twice, on both fixtures.
    let classic = chaos::antipatterns_trace(profile, Some(&plan));
    assert_eq!(
        classic,
        chaos::antipatterns_trace(profile, Some(&plan)),
        "classic fixture diverged between runs"
    );
    let switchless = chaos::switchless_trace(profile, Some(&plan));
    assert_eq!(
        switchless,
        chaos::switchless_trace(profile, Some(&plan)),
        "switchless fixture diverged between runs"
    );

    // Invisibility: an empty plan leaves no trace of the harness.
    assert_eq!(
        chaos::antipatterns_trace(profile, None),
        chaos::antipatterns_trace(profile, Some(&FaultPlan::seeded(plan.seed))),
        "empty plan perturbed the trace"
    );

    println!(
        "ok: classic {} fault row(s), switchless {} fault row(s)",
        chaos::fault_rows(&classic),
        chaos::fault_rows(&switchless),
    );
}
