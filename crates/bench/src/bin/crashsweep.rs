//! Deterministic torn-write crash sweep: every crash scenario cut at
//! every persist step, whole and torn, against every [`CrashConfig`]
//! row, with zero silent outcomes as the gate. Flags and output are
//! described in [`ss_bench::sweep`].

use ss_harness::CrashConfig;

fn main() -> std::process::ExitCode {
    ss_bench::sweep::main::<CrashConfig>()
}
