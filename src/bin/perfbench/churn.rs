//! One iteration of `tenant_churn`: the same request sequence driven
//! into a baseline and a Silent Shredder [`MemoryController`], one
//! request at a time (each issued when the previous one completes, in
//! simulated time). Every read is checked against the value the input
//! says it must return.

use ss_common::{Cycles, LINE_SIZE};
use ss_core::MemoryController;

use crate::input::{system_config, ChurnInput, ChurnOp, ZEROING_WRITES_PER_PAGE};
use crate::probes::{ProbeInputs, CACHE_OPS};
use crate::segments::SegmentClock;
use crate::spans::SpanLog;
use crate::stats::controller_stats;
use crate::{Checks, Pair, Size};

/// Drives `ops` into `mc`, ticking `clock` per request; returns the
/// simulated completion time. Every request is one check. After an
/// `Err` the remaining requests count as failed and the run stops.
fn drive(
    mc: &mut MemoryController,
    shredder: bool,
    ops: &[ChurnOp],
    log: &mut SpanLog,
    checks: &mut Checks,
    clock: &mut SegmentClock,
) -> u64 {
    let mut now = Cycles::ZERO;
    for (i, op) in ops.iter().enumerate() {
        clock.tick();
        let done = match op {
            ChurnOp::Write { addr, data } => log
                .call("core.write_block", || {
                    mc.write_block(*addr, data, false, now)
                })
                .map(|lat| (lat, true)),
            ChurnOp::Read { addr, expect } => log
                .call("core.read_block", || mc.read_block(*addr, now))
                .map(|r| {
                    // A live line round-trips from the array; a torn-down
                    // one reads as zero, by zero-fill on Silent Shredder.
                    let ok = match expect {
                        Some(data) => r.data == *data && !r.zero_filled,
                        None => r.data == [0u8; LINE_SIZE] && r.zero_filled == shredder,
                    };
                    (r.latency, ok)
                }),
            ChurnOp::Teardown { page } => {
                let result = if shredder {
                    log.call("core.shred_page", || mc.shred_page_at(*page, true, now))
                } else {
                    (0..ZEROING_WRITES_PER_PAGE as usize).try_fold(Cycles::ZERO, |acc, b| {
                        let zero = [0u8; LINE_SIZE];
                        let lat = log.call("core.write_block", || {
                            mc.write_block(page.block_addr(b), &zero, true, now + acc)
                        })?;
                        Ok::<_, ss_common::Error>(acc + lat)
                    })
                };
                result.map(|lat| (lat, true))
            }
        };
        match done {
            Ok((lat, ok)) => {
                now += lat;
                checks.record(ok);
            }
            Err(e) => {
                eprintln!("tenant_churn: request {i} ({op:?}) failed: {e}");
                checks.fail_remaining((ops.len() - i) as u64);
                break;
            }
        }
    }
    now.raw()
}

/// Runs both configurations on `input`. `want_probe` also collects what
/// the layer probes need (address stream, resident NVM lines).
pub fn run_pair(
    input: &ChurnInput,
    size: Size,
    log: &mut SpanLog,
    want_probe: bool,
) -> Result<Pair, String> {
    let configs = [false, true].map(|shredder| system_config(shredder, size));
    let probe_cfg = configs[1].clone();
    let (controllers, new_s) = log.time("sim.new", || {
        configs
            .into_iter()
            .map(|cfg| MemoryController::new(cfg.controller))
            .collect::<ss_common::Result<Vec<_>>>()
    });
    let controllers = controllers.map_err(|e| format!("controller construction failed: {e}"))?;
    let mut checks = Checks::default();
    let mut segments = [Vec::new(), Vec::new()];
    let mut stats = Vec::with_capacity(2);
    let mut resident_lines = 0;
    for (config, (mut mc, shredder)) in controllers.into_iter().zip([false, true]).enumerate() {
        log.enter("sim.run");
        let mut clock = SegmentClock::start(input.ops.len() as u64);
        let cycles = drive(&mut mc, shredder, &input.ops, log, &mut checks, &mut clock);
        segments[config] = clock.finish();
        log.exit();
        stats.push(controller_stats(&mc, cycles));
        if want_probe {
            let faults = mc.faults();
            resident_lines =
                (faults.cold_scan_data().len() + faults.cold_scan_counters().len()) as u64;
        }
    }
    let stats: [_; 2] = stats.try_into().expect("two configurations");
    let probe = want_probe.then(|| ProbeInputs {
        hierarchy: probe_cfg.hierarchy.clone(),
        key: probe_cfg.controller.key,
        leaf_count: probe_cfg.controller.frames() as usize,
        resident_lines,
        divisor: size.probe_divisor(),
        addresses: input
            .addresses()
            .take(CACHE_OPS)
            .map(|a| (0, a, ss_cpu::Op::Load(ss_common::VirtAddr::new(a.raw()))))
            .collect(),
    });
    Ok(Pair {
        gen_s: 0.0,
        new_s,
        run_s: segments.iter().flatten().sum(),
        drain_s: 0.0,
        segments,
        mem_ops: input.mem_ops(false) + input.mem_ops(true),
        run_stats: stats.clone(),
        stats,
        checks,
        probe,
    })
}
