//! Deterministic fault-injection sweep: every seeded fault plan
//! (power loss, counter-cache drops, bit flips, counter replay, shred
//! failures) against every [`HarnessConfig`] row, with zero undetected
//! corruptions as the gate. Flags and output are described in
//! [`ss_bench::sweep`].

use ss_harness::HarnessConfig;

fn main() -> std::process::ExitCode {
    ss_bench::sweep::main::<HarnessConfig>()
}
