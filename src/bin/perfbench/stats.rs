//! Simulated statistics of one configuration run, and their digest.
//!
//! Each run's statistics are one flat [`MetricsRegistry`]: the
//! controller's own registry (`ctrl.*`, `ccache.*`, `nvm.*`,
//! `profile.*`, ...) plus the cache-level (`cache.l1.*` .. `cache.l4.*`),
//! kernel (`os.*`), TLB (`tlb.*`) and core (`cpu.*`) statistics, and the
//! run's simulated length (`sim.cycles`, summed over cores). Every value is an exact integer,
//! so two runs of the same input produce byte-identical registries and
//! the same digest; any host-only change must keep it that way.

use ss_cache::Level;
use ss_core::MemoryController;
use ss_cpu::RunSummary;
use ss_sim::System;
use ss_trace::MetricsRegistry;

/// Level labels, in hierarchy order.
pub const LEVELS: [(&str, Level); 4] = [
    ("l1", Level::L1),
    ("l2", Level::L2),
    ("l3", Level::L3),
    ("l4", Level::L4),
];

/// Statistics of a full-system run (after `drain_caches`).
pub fn system_stats(sys: &System, summary: &RunSummary) -> MetricsRegistry {
    let hw = sys.hardware();
    let mut reg = hw.controller.inspect().metrics();
    for (label, level) in LEVELS {
        hw.hierarchy
            .level_stats(level)
            .cache
            .export(&mut reg, &format!("cache.{label}"));
    }
    let k = sys.kernel().stats();
    reg.set("os.minor_faults", k.minor_faults.get());
    reg.set("os.major_faults", k.major_faults.get());
    reg.set("os.pages_shredded", k.pages_shredded.get());
    reg.set("os.zeroing_cycles", k.zeroing_cycles.raw());
    reg.set("os.fault_cycles", k.fault_cycles.raw());
    reg.set("os.frames_allocated", k.frames_allocated.get());
    reg.set("os.frames_freed", k.frames_freed.get());
    for core in 0..sys.config().cores() {
        let t = sys.tlb_stats(core);
        reg.add("tlb.hits", t.hits.get());
        reg.add("tlb.misses", t.misses.get());
        reg.add("tlb.shootdowns", t.shootdowns.get());
    }
    for (core, c) in summary.cores.iter().enumerate() {
        reg.set(&format!("cpu.core{core}.cycles"), c.cycles.raw());
        reg.add("cpu.instructions", c.instructions);
        reg.add("cpu.loads", c.loads);
        reg.add("cpu.stores", c.stores);
    }
    reg.set("cpu.makespan", summary.makespan().raw());
    reg.set(
        "sim.cycles",
        summary.cores.iter().map(|c| c.cycles.raw()).sum(),
    );
    reg
}

/// Statistics of a controller driven directly; `cycles` is the
/// simulated time at which the last request completed.
pub fn controller_stats(mc: &MemoryController, cycles: u64) -> MetricsRegistry {
    let mut reg = mc.inspect().metrics();
    reg.set("sim.cycles", cycles);
    reg
}

/// FNV-1a over both configurations' registries (baseline first).
pub fn digest(stats: &[MetricsRegistry; 2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (label, reg) in ["base", "shredder"].iter().zip(stats) {
        for b in label.bytes().chain(reg.to_json().into_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A named metric of a registry; absent names read as 0.
pub fn get(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.get(name).unwrap_or(0)
}

/// `num / den` as a float, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Hit rate of a `<prefix>.hits` / `<prefix>.misses` pair.
pub fn hit_rate(reg: &MetricsRegistry, prefix: &str) -> f64 {
    let hits = get(reg, &format!("{prefix}.hits"));
    ratio(hits, hits + get(reg, &format!("{prefix}.misses")))
}

/// Renders both registries and the digest as one JSON document.
pub fn render(stats: &[MetricsRegistry; 2]) -> String {
    format!(
        "{{\"digest\":\"{:016x}\",\"base\":{},\"shredder\":{}}}\n",
        digest(stats),
        stats[0].to_json(),
        stats[1].to_json()
    )
}
