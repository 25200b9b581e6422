//! One iteration of a full-system workload (`spec_mix`,
//! `counter_pressure`): both configurations boot, receive the same op
//! streams, run to completion and drain their caches.

use std::cell::RefCell;
use std::rc::Rc;

use ss_common::{BlockAddr, VirtAddr};
use ss_cpu::Op;
use ss_sim::{System, SystemConfig};
use ss_workloads::Workload as _;

use crate::input::SystemInput;
use crate::probes::{ProbeInputs, CACHE_OPS};
use crate::segments::{SegmentClock, Ticking};
use crate::spans::SpanLog;
use crate::stats::{get, system_stats};
use crate::{Checks, Pair, Size};

/// Bit position of the core number in a cache-probe address, above
/// any heap address.
const CORE_REGION_SHIFT: u32 = 48;

/// Heap addresses of every model, per core.
type Heaps = Vec<Vec<VirtAddr>>;

/// Boots one configuration: ages every frame so each allocation
/// shreds, and gives each core a process with one heap per model.
fn boot(cfg: SystemConfig, input: &SystemInput) -> ss_common::Result<(System, Heaps)> {
    let mut sys = System::new(cfg)?;
    sys.age_free_frames();
    let mut heaps = Vec::with_capacity(input.cores.len());
    for (core, models) in input.cores.iter().enumerate() {
        let pid = sys.spawn_process(core)?;
        heaps.push(
            models
                .iter()
                .map(|m| sys.sys_alloc(pid, m.footprint_bytes()))
                .collect::<ss_common::Result<Vec<_>>>()?,
        );
    }
    Ok((sys, heaps))
}

/// The cache probe's address stream: memory ops taken round-robin over
/// the cores, virtual line addresses standing in for physical ones.
/// Each core runs its own process, so its addresses get their own
/// region; otherwise the cores would share lines the run never shares.
fn probe_addresses(traces: &[Vec<Op>], len: usize) -> Vec<(usize, BlockAddr, Op)> {
    let mut iters: Vec<_> = traces
        .iter()
        .map(|t| t.iter().filter(|op| op.is_memory()))
        .collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let before = out.len();
        for (core, it) in iters.iter_mut().enumerate() {
            if let Some(&op) = it.next() {
                let va = match op {
                    Op::Load(va) | Op::Store(va) | Op::StoreLine(va) | Op::StoreNt(va) => va,
                    Op::Compute(_) | Op::Fence => continue,
                };
                let line = (va.raw() & !63) | (core as u64) << CORE_REGION_SHIFT;
                out.push((core, BlockAddr::new(line), op));
            }
        }
        if out.len() == before {
            break;
        }
    }
    out
}

/// Runs both configurations on `input`. `want_probe` also collects what
/// the layer probes need (address stream, resident NVM lines).
pub fn run_pair(
    input: &SystemInput,
    size: Size,
    log: &mut SpanLog,
    want_probe: bool,
) -> Result<Pair, String> {
    let configs = input.configs(size);
    let probe_cfg = configs[1].clone();
    let (booted, new_s) = log.time("sim.new", || {
        configs
            .into_iter()
            .map(|cfg| boot(cfg, input))
            .collect::<ss_common::Result<Vec<_>>>()
    });
    let booted = booted.map_err(|e| format!("boot failed: {e}"))?;
    if booted[0].1 != booted[1].1 {
        return Err("the two configurations placed the heaps differently".into());
    }
    let (shredder_traces, gen_s) = log.time("workloads.trace", || input.traces(&booted[0].1));
    let base_traces = shredder_traces.clone();
    let mem_ops: u64 = 2 * base_traces
        .iter()
        .flatten()
        .filter(|op| op.is_memory())
        .count() as u64;
    let addresses = want_probe.then(|| probe_addresses(&base_traces, CACHE_OPS));

    let mut run_s = 0.0;
    let mut drain_s = 0.0;
    let mut segments = [Vec::new(), Vec::new()];
    let mut stats = Vec::with_capacity(2);
    let mut run_stats = Vec::with_capacity(2);
    let mut resident_lines = 0;
    for (config, ((mut sys, _), traces)) in booted
        .into_iter()
        .zip([base_traces, shredder_traces])
        .enumerate()
    {
        let ops = traces.iter().map(Vec::len).sum::<usize>() as u64;
        let clock = Rc::new(RefCell::new(SegmentClock::start(ops)));
        let streams: Vec<_> = traces
            .into_iter()
            .map(|t| Ticking::new(t.into_iter(), &clock))
            .collect();
        let (summary, run) = log.time("sim.run", || sys.run(streams, None));
        segments[config] = clock.borrow_mut().finish();
        run_stats.push(system_stats(&sys, &summary));
        let ((), drain) = log.time("sim.drain", || sys.drain_caches());
        segments[config].push(drain);
        run_s += run;
        drain_s += drain;
        stats.push(system_stats(&sys, &summary));
        if want_probe {
            let mc = &mut sys.hardware_mut().controller;
            let faults = mc.faults();
            resident_lines =
                (faults.cold_scan_data().len() + faults.cold_scan_counters().len()) as u64;
        }
    }
    let stats: [_; 2] = stats.try_into().expect("two configurations");
    let run_stats: [_; 2] = run_stats.try_into().expect("two configurations");
    let checks = system_checks(&stats);
    let probe = addresses.map(|addresses| ProbeInputs {
        hierarchy: probe_cfg.hierarchy.clone(),
        key: probe_cfg.controller.key,
        leaf_count: probe_cfg.controller.frames() as usize,
        resident_lines,
        divisor: size.probe_divisor(),
        addresses,
    });
    Ok(Pair {
        gen_s,
        new_s,
        run_s,
        drain_s,
        segments,
        mem_ops,
        stats,
        run_stats,
        checks,
        probe,
    })
}

/// Checks per iteration of a full-system workload (plus the digest).
pub const SYSTEM_CHECKS: u64 = 6;

/// The mechanism's invariants on one baseline + shredder pair:
/// Silent Shredder issues no zeroing write and shreds exactly the
/// frames it allocates; the baseline never shreds and zeroes every
/// allocated frame with 64 writes; both retire the same instructions.
fn system_checks(stats: &[ss_trace::MetricsRegistry; 2]) -> Checks {
    let [b, s] = stats;
    let mut checks = Checks::default();
    checks.record(get(s, "ctrl.zeroing_writes") == 0);
    checks.record(get(s, "ctrl.shreds") == get(s, "os.frames_allocated"));
    checks.record(get(b, "ctrl.shreds") == 0);
    checks.record(get(b, "os.pages_shredded") == get(b, "os.frames_allocated"));
    checks.record(get(b, "ctrl.zeroing_writes") == 64 * get(b, "os.pages_shredded"));
    checks.record(
        get(b, "cpu.instructions") == get(s, "cpu.instructions") && get(s, "cpu.instructions") > 0,
    );
    debug_assert_eq!(checks.attempted, SYSTEM_CHECKS);
    checks
}
