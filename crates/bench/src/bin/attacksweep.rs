//! Deterministic adversary sweep: every attack script (shred-then-steal,
//! remap-probe, rollback-replay, scrub-race) against every
//! [`AttackConfig`] row, with zero leaked outcomes as the gate. Flags
//! and output are described in [`ss_bench::sweep`].

use ss_harness::AttackConfig;

fn main() -> std::process::ExitCode {
    ss_bench::sweep::main::<AttackConfig>()
}
