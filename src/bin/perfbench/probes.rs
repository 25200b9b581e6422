//! Host-time probes of the layers `System::run` calls internally.
//!
//! The traced run cannot span calls made inside the program (that
//! instrumentation is future work), so each inner layer's host cost is
//! measured by calling its public function directly at the run's own
//! scale, and multiplied by the run's exact operation count to give the
//! layer's estimated share of `sim.run_s`:
//!
//! * `ss-cache`: the workload's address stream fed to `Hierarchy::access`
//!   (with `fill` on a miss, as the simulator does);
//! * `ss-crypto`: `CtrEngine::pad`, and `MerkleTree::update_leaf` /
//!   `verify_leaf` on a tree with the run's leaf count;
//! * `ss-nvm`: `NvmDevice::write_line` / `read_line` on a device holding
//!   the run's resident-line count.
//!
//! Probes build their own objects; they never touch the simulated
//! machines, so they cannot change a simulated statistic.
// lint:allow-file(SEC-002): the NVM probe times the raw device API on its own device; it holds no controller data and no secret
// lint:allow-file(CRYPTO-001): the AES probe times pad generation under its own engine; no data is decrypted

use std::hint::black_box;

use ss_cache::{AccessKind, Hierarchy, HierarchyConfig};
use ss_common::{BlockAddr, DetRng, LINE_SIZE};
use ss_cpu::Op;
use ss_crypto::{CtrEngine, Iv, MerkleTree};
use ss_nvm::{NvmConfig, NvmDevice};

use crate::spans::SpanLog;

/// Accesses replayed per cache sample, from the start of the run's
/// stream. Not divided at the tiny size, where it covers the whole
/// stream, so the probe is not all cold misses.
pub const CACHE_OPS: usize = 100_000;
// The counts below are divided by `Size::probe_divisor`.
/// AES pads per sample.
const AES_OPS: usize = 10_000;
/// Merkle updates (and verifies) per sample.
const MERKLE_OPS: usize = 1_000;
/// NVM reads (and writes) per sample.
const NVM_OPS: usize = 20_000;

/// What the probes need from a run.
#[derive(Debug, Clone)]
pub struct ProbeInputs {
    /// Cache geometry of the run.
    pub hierarchy: HierarchyConfig,
    /// Processor key of the run's controller.
    pub key: [u8; 16],
    /// Merkle leaves (one per data frame).
    pub leaf_count: usize,
    /// Lines the run left resident in NVM (data + counters).
    pub resident_lines: u64,
    /// Divisor of every per-sample call count.
    pub divisor: usize,
    /// `(core, line, op)` in issue order.
    pub addresses: Vec<(usize, BlockAddr, Op)>,
}

/// Host nanoseconds per call of each probed function.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeResults {
    /// `Hierarchy::access` (+ `fill` on a miss).
    pub cache_access_ns: f64,
    /// `CtrEngine::pad`.
    pub aes_pad_ns: f64,
    /// `MerkleTree::verify_leaf`.
    pub merkle_verify_ns: f64,
    /// `MerkleTree::update_leaf`.
    pub merkle_update_ns: f64,
    /// `NvmDevice::read_line`.
    pub nvm_read_ns: f64,
    /// `NvmDevice::write_line`.
    pub nvm_write_ns: f64,
    /// Probe calls whose result was wrong (verify of a just-updated
    /// leaf failing, a read not returning what was written).
    pub failures: u64,
}

impl ProbeResults {
    /// Per probe, the faster of two samples; failures add up.
    fn fastest(self, other: ProbeResults) -> ProbeResults {
        ProbeResults {
            cache_access_ns: self.cache_access_ns.min(other.cache_access_ns),
            aes_pad_ns: self.aes_pad_ns.min(other.aes_pad_ns),
            merkle_verify_ns: self.merkle_verify_ns.min(other.merkle_verify_ns),
            merkle_update_ns: self.merkle_update_ns.min(other.merkle_update_ns),
            nvm_read_ns: self.nvm_read_ns.min(other.nvm_read_ns),
            nvm_write_ns: self.nvm_write_ns.min(other.nvm_write_ns),
            failures: self.failures + other.failures,
        }
    }
}

/// Runs `f` (which returns calls made and calls failed) inside a span;
/// returns nanoseconds per call and the failures.
fn ns_per_call(
    log: &mut SpanLog,
    name: &'static str,
    f: impl FnOnce() -> (u64, u64),
) -> (f64, u64) {
    let ((calls, failed), secs) = log.time(name, f);
    (secs * 1e9 / calls.max(1) as f64, failed)
}

/// The probed objects, built once at the run's scale and sampled after
/// every traced iteration, so probes and iterations see the same host
/// conditions. Each probe reports its fastest sample.
pub struct Probes {
    inputs: ProbeInputs,
    engine: CtrEngine,
    tree: MerkleTree,
    device: NvmDevice,
    lines: u64,
    rng: DetRng,
    best: Option<ProbeResults>,
}

impl Probes {
    /// Builds the probed objects: a Merkle tree with the run's leaf
    /// count and an NVM device holding the run's resident lines.
    pub fn new(inputs: ProbeInputs) -> Self {
        let lines = inputs.resident_lines.max(1);
        let mut device = NvmDevice::new(NvmConfig {
            capacity_bytes: (lines * LINE_SIZE as u64).next_power_of_two().max(1 << 20),
            ..NvmConfig::default()
        });
        for l in 0..lines {
            device
                .write_line(BlockAddr::new(l * LINE_SIZE as u64), &FILL)
                .expect("fill write within capacity");
        }
        Probes {
            engine: CtrEngine::new(inputs.key),
            tree: MerkleTree::new(inputs.leaf_count.max(2)),
            device,
            lines,
            rng: DetRng::new(0x7072_6f62_6573),
            inputs,
            best: None,
        }
    }

    /// Times one sample of every probe, each inside a span named after it.
    pub fn sample(&mut self, log: &mut SpanLog) {
        // A cold hierarchy per sample, as each run starts with one; its
        // construction is not part of the access cost.
        let mut hierarchy =
            Hierarchy::new(&self.inputs.hierarchy).expect("the run's hierarchy config is valid");
        let addresses = &self.inputs.addresses;
        let (cache_access_ns, f1) = ns_per_call(log, "probe.cache.access", || {
            cache_probe(&mut hierarchy, addresses)
        });
        let d = self.inputs.divisor;
        let (engine, rng) = (&self.engine, &mut self.rng);
        let (aes_pad_ns, f2) = ns_per_call(log, "probe.crypto.aes_ctr.pad", || {
            aes_probe(engine, rng, AES_OPS / d)
        });
        let (tree, rng) = (&mut self.tree, &mut self.rng);
        let (written, merkle_update_ns) = {
            let (written, secs) = log.time("probe.crypto.merkle_update", || {
                merkle_updates(tree, rng, MERKLE_OPS / d)
            });
            (written, secs * 1e9 / (MERKLE_OPS / d) as f64)
        };
        // Verify the last value written to each leaf: every call must pass.
        let last: Vec<_> = written
            .into_iter()
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        let (merkle_verify_ns, f3) = ns_per_call(log, "probe.crypto.merkle_verify", || {
            let bad = last
                .iter()
                .filter(|(leaf, line)| !tree.verify_leaf(*leaf, black_box(line)))
                .count();
            (last.len() as u64, bad as u64)
        });
        let (device, rng, lines) = (&mut self.device, &mut self.rng, self.lines);
        let nvm_ops = NVM_OPS / d;
        let (nvm_write_ns, f4) = ns_per_call(log, "probe.nvm.write_line", || {
            let failed = (0..nvm_ops)
                .filter(|_| {
                    let addr = BlockAddr::new(rng.below(lines) * LINE_SIZE as u64);
                    device.write_line(addr, &FILL).is_err()
                })
                .count();
            (nvm_ops as u64, failed as u64)
        });
        let (nvm_read_ns, f5) = ns_per_call(log, "probe.nvm.read_line", || {
            let failed = (0..nvm_ops)
                .filter(|_| {
                    let addr = BlockAddr::new(rng.below(lines) * LINE_SIZE as u64);
                    !device.read_line(addr).is_ok_and(|r| r.into_data() == FILL)
                })
                .count();
            (nvm_ops as u64, failed as u64)
        });
        let sample = ProbeResults {
            cache_access_ns,
            aes_pad_ns,
            merkle_verify_ns,
            merkle_update_ns,
            nvm_read_ns,
            nvm_write_ns,
            failures: f1 + f2 + f3 + f4 + f5,
        };
        self.best = Some(self.best.map_or(sample, |b| b.fastest(sample)));
    }

    /// The fastest sample of each probe (`None` before any sample).
    pub fn results(&self) -> Option<ProbeResults> {
        self.best
    }
}

/// Line written to every resident line of the NVM probe device.
const FILL: [u8; LINE_SIZE] = [0x5A; LINE_SIZE];

fn cache_probe(h: &mut Hierarchy, addresses: &[(usize, BlockAddr, Op)]) -> (u64, u64) {
    let cores = h.cores();
    for &(core, addr, op) in addresses {
        let core = core % cores;
        let (kind, data) = match op {
            Op::StoreLine(_) | Op::StoreNt(_) => {
                (AccessKind::WriteLineNoFetch, Some([0xC3; LINE_SIZE]))
            }
            Op::Store(_) => (AccessKind::WritePartial, None),
            _ => (AccessKind::Read, None),
        };
        let r = h.access(core, kind, addr, data);
        if r.needs_fetch {
            black_box(h.fill(core, addr, [0; LINE_SIZE], kind == AccessKind::WritePartial));
        }
        black_box(r);
    }
    (addresses.len() as u64, 0)
}

fn aes_probe(engine: &CtrEngine, rng: &mut DetRng, ops: usize) -> (u64, u64) {
    for _ in 0..ops {
        let iv = Iv::new(
            rng.below(1 << 20),
            rng.below(64) as u8,
            rng.below(1 << 20),
            1 + rng.below(100) as u8,
        );
        black_box(engine.pad(black_box(&iv)));
    }
    (ops as u64, 0)
}

/// `ops` updates of random leaves; returns what each wrote.
fn merkle_updates(
    tree: &mut MerkleTree,
    rng: &mut DetRng,
    ops: usize,
) -> Vec<(usize, [u8; LINE_SIZE])> {
    let leaves = tree.leaf_count() as u64;
    (0..ops)
        .map(|_| {
            let leaf = rng.below(leaves) as usize;
            let mut line = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut line);
            tree.update_leaf(leaf, &line);
            (leaf, line)
        })
        .collect()
}
