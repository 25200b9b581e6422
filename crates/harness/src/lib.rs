//! Deterministic fault-injection and crash-recovery harness.
//!
//! Silent Shredder's security argument rests on what survives a crash:
//! the counter cache must be battery-backed write-back (§4.3) because
//! losing a major/minor counter makes ciphertext unrecoverable, and the
//! Merkle tree must reject replayed counters. This crate exercises
//! exactly those boundaries:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic schedule of faults,
//!   indexed by cumulative NVM write count: power loss, counter-cache
//!   line drops, single-bit NVM cell flips (data and counter lines),
//!   counter replay, and MMIO shred failures.
//! * [`ShadowModel`] — a plain reference model of architectural state
//!   (expected plaintext per line, shredded pages) that the controller
//!   is checked against after every fault.
//! * [`run_plan`] — drives a deterministic workload against a
//!   [`ss_core::MemoryController`], fires the plan, runs recovery
//!   (`power_loss` → `recover` → resume or degrade), and classifies
//!   every fault as recovered, detected, benign (with a verified bounded
//!   effect), skipped (not applicable to the configuration), or — the
//!   failure case — an undetected corruption.
//! * [`scenario`] — whole-[`ss_sim::System`] crash/recovery round trips
//!   and the write-queue-depth crash matrix used by `tests/persistence.rs`.
//!
//! * [`adversary`] — the malicious counterpart to the fault plan: an
//!   [`Adversary`] with scripted physical capabilities (cold scan of
//!   every persisted region between power cycles, stolen-DIMM offline
//!   decrypt, counter rollback and stale-ciphertext replay) driven
//!   through multi-step attack scenarios whose outcomes are classified
//!   `Defended`/`Detected`/`Leaked` — any `Leaked` fails the sweep.
//! * [`crash`] — the torn-write crash matrix: every persist step of
//!   every victim operation cut whole and torn, each crash point
//!   classified, any `Silent` outcome failing the sweep.
//! * [`campaign`] — the [`Campaign`] trait the three sweeps share:
//!   [`HarnessConfig`], [`AttackConfig`] and [`CrashConfig`] each give a
//!   config matrix, a scattered matrix, an optional weakened row, and a
//!   `run(seed)` whose report tallies, renders and says whether it is
//!   clean. One generic driver in `crates/bench` (`ss_bench::sweep`)
//!   turns each into its binary: `faultsweep`, `attacksweep` and
//!   `crashsweep`, whose 8-seed campaigns are pinned byte for byte
//!   against committed goldens.
//!
//! Everything is seeded through [`ss_common::DetRng`]: the same seed
//! always produces the same plan, the same workload, and the same
//! report. `faultsweep --seed N` replays one plan with per-fault
//! detail; `attacksweep --seed N` and `crashsweep --seed N` do the same
//! for attack scripts and crash points.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod campaign;
pub mod crash;
pub mod engine;
pub mod plan;
pub mod scenario;
pub mod shadow;

pub use adversary::{
    demo_records, run_attack, run_attacks, Adversary, AttackConfig, AttackKind, AttackOutcome,
    AttackRecord, AttackReport, AttackTally, DimmImage,
};
pub use campaign::{Campaign, CampaignReport, CampaignTally};
pub use crash::{
    run_crash_config, CrashConfig, CrashOutcome, CrashRecord, CrashReport, CrashScenario,
    CrashTally,
};
pub use engine::{
    json_escape, run_plan, run_plan_full, FaultOutcome, FaultRecord, HarnessConfig, PlanArtifacts,
    PlanReport, Tally,
};
pub use plan::{FaultKind, FaultPlan, ScheduledFault};
pub use scenario::{
    crash_at_depth, crash_at_depth_sharded, system_crash_roundtrip, system_volatile_crash,
    CrashVerdict,
};
pub use shadow::ShadowModel;
