//! Seeded inputs for the three workloads.
//!
//! Everything the program under test receives is built here from the
//! `--seed` argument: which SPEC models run on which core, and the
//! tenant schedule driven into the controller. The same seed always
//! gives the same input. A seed changes the arrangement of the work
//! (which models share the machine and in which order, which tenant owns
//! which frames, what they write and read), not how much work the run
//! holds; that keeps the end-to-end figures of different seeds
//! comparable.

use std::collections::VecDeque;

use ss_common::{BlockAddr, DetRng, PageId, VirtAddr, BLOCKS_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use ss_cpu::Op;
use ss_sim::SystemConfig;
use ss_workloads::{spec_suite, SpecWorkload, Workload as _};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Cores of the simulated machine (the paper's Table 1 count).
pub const CORES: usize = 8;

/// Counter-cache capacity of `counter_pressure`: far below the hot
/// counter set of eight large-footprint models.
pub const PRESSURE_COUNTER_CACHE: usize = 16 << 10;

/// The 1024-page models `counter_pressure` draws from.
pub const PRESSURE_POOL: [&str; 5] = ["MCF", "LBM", "GEMS", "ZEUS", "MILC"];

/// Domain constant folded into the tenant-schedule seed.
const CHURN_DOMAIN: u64 = 0x7465_6e61_6e74_7321;

/// Domain constant folded into the model-deal seed.
const MIX_DOMAIN: u64 = 0x7370_6563_5f6d_6978;

/// Further domain constant for `counter_pressure`'s deal, so one seed
/// shuffles the two system workloads independently.
const PRESSURE_DOMAIN: u64 = 0x0c7e;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs 8-11: eight cores, each a SPEC model drawn from the suite.
    SpecMix,
    /// Fig 12: large-footprint models against a 16 KiB counter cache.
    CounterPressure,
    /// Server consolidation driven straight into the controller.
    TenantChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SpecMix,
        Workload::CounterPressure,
        Workload::TenantChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecMix => "spec_mix",
            Workload::CounterPressure => "counter_pressure",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is. `Bench` is what the benchmark measures; `Tiny`
/// exists for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// A few seconds of host time per baseline + shredder pair.
    Bench,
    /// Well under a second per pair.
    #[cfg_attr(not(test), allow(dead_code))] // only the self-test builds it
    Tiny,
}

impl Size {
    /// Pages of a `spec_mix` model whose reference footprint is `pages`:
    /// a quarter (the `--quick` experiment scale), 16 at least.
    fn spec_pages(self, pages: u64) -> u64 {
        match self {
            Size::Bench => (pages / 4).max(16),
            Size::Tiny => 2,
        }
    }

    /// Pages per `counter_pressure` model.
    fn pressure_pages(self) -> u64 {
        match self {
            Size::Bench => 256,
            Size::Tiny => 4,
        }
    }

    /// Data memory of the simulated machine, MiB.
    fn data_mib(self) -> u64 {
        match self {
            Size::Bench => 64,
            Size::Tiny => 4,
        }
    }

    /// `tenant_churn`'s shape.
    fn churn_shape(self) -> ChurnShape {
        match self {
            Size::Bench => ChurnShape {
                tenants: 160,
                live: 8,
                frames: 512,
                min_pages: 24,
                max_pages: 40,
            },
            Size::Tiny => ChurnShape {
                tenants: 8,
                live: 2,
                frames: 24,
                min_pages: 4,
                max_pages: 8,
            },
        }
    }

    /// Divides the layer probes' per-sample call counts.
    pub fn probe_divisor(self) -> usize {
        match self {
            Size::Bench => 1,
            Size::Tiny => 20,
        }
    }
}

/// The simulated machine: Table 1 shapes with caches 128x smaller and
/// `data_mib` of NVM (the counter cache covers data/64, 1 MiB at bench
/// size). `shredder` selects Silent Shredder over the §5 baseline.
pub fn system_config(shredder: bool, size: Size) -> SystemConfig {
    let preset = if shredder {
        SystemConfig::silent_shredder()
    } else {
        SystemConfig::baseline()
    };
    let mut cfg = preset.scaled(128, size.data_mib());
    cfg.hierarchy.cores = CORES;
    cfg
}

/// Input of a full-system workload: the SPEC models each core runs, one
/// after the other, in one process.
#[derive(Debug, Clone)]
pub struct SystemInput {
    /// Per core (index = core), the models it runs, page counts scaled.
    pub cores: Vec<Vec<SpecWorkload>>,
    /// Counter-cache override for both configurations.
    pub counter_cache_bytes: Option<usize>,
}

impl SystemInput {
    /// Builds both configurations of this input.
    pub fn configs(&self, size: Size) -> [SystemConfig; 2] {
        [false, true].map(|shredder| {
            let mut cfg = system_config(shredder, size);
            if let Some(bytes) = self.counter_cache_bytes {
                cfg.controller.counter_cache_bytes = bytes;
            }
            cfg
        })
    }

    /// The op stream of every core, given each model's heap address.
    /// Each core's models are joined with one exact-size copy: collecting
    /// a `flat_map` grows the vector by doubling, and that copying and
    /// page-faulting (the benchmark's work, not `ss-workloads`') took a
    /// third of `spec_mix`'s set-up time and most of its host noise.
    pub fn traces(&self, heaps: &[Vec<VirtAddr>]) -> Vec<Vec<Op>> {
        self.cores
            .iter()
            .zip(heaps)
            .map(|(models, heaps)| {
                models
                    .iter()
                    .zip(heaps)
                    .map(|(model, &heap)| model.trace(heap))
                    .collect::<Vec<_>>()
                    .concat()
            })
            .collect()
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Deals `pool` to the cores in a seed-shuffled order, round-robin, so
/// each core runs its share of the models back to back. A seed changes
/// which models share the machine at once and in which order they run;
/// the work the run holds stays that of the whole pool.
fn deal(mut pool: Vec<SpecWorkload>, seed: u64) -> Vec<Vec<SpecWorkload>> {
    let mut rng = DetRng::new(seed ^ MIX_DOMAIN);
    shuffle(&mut pool, &mut rng);
    let mut cores = vec![Vec::new(); CORES];
    for (i, model) in pool.into_iter().enumerate() {
        cores[i % CORES].push(model);
    }
    cores
}

/// `spec_mix`: the 26 SPEC models dealt to the eight cores (three or four
/// each), page counts divided by 4 (the `--quick` experiment scale).
pub fn spec_mix(seed: u64, size: Size) -> SystemInput {
    let pool = spec_suite()
        .into_iter()
        .map(|mut w| {
            w.pages = size.spec_pages(w.pages);
            w
        })
        .collect();
    SystemInput {
        cores: deal(pool, seed),
        counter_cache_bytes: None,
    }
}

/// `counter_pressure`: the five 1024-page models three times each, dealt
/// to the eight cores (one or two each), against a 16 KiB counter cache.
pub fn counter_pressure(seed: u64, size: Size) -> SystemInput {
    let pool: Vec<SpecWorkload> = spec_suite()
        .into_iter()
        .filter(|w| PRESSURE_POOL.contains(&w.name()))
        .map(|mut w| {
            w.pages = size.pressure_pages();
            w
        })
        .collect();
    SystemInput {
        cores: deal(
            [pool.clone(), pool.clone(), pool].concat(),
            seed ^ PRESSURE_DOMAIN,
        ),
        counter_cache_bytes: Some(PRESSURE_COUNTER_CACHE),
    }
}

/// How many tenants `tenant_churn` runs and how big they are.
struct ChurnShape {
    /// Tenants over the run.
    tenants: u32,
    /// Tenants resident at once.
    live: usize,
    /// Frames the tenants cycle through (FIFO reuse); at least
    /// `live * max_pages`.
    frames: u64,
    /// Smallest tenant, pages.
    min_pages: u64,
    /// Largest tenant, pages.
    max_pages: u64,
}

/// One controller request of `tenant_churn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// A tenant writes a line.
    Write {
        /// Target line.
        addr: BlockAddr,
        /// Plaintext written.
        data: [u8; LINE_SIZE],
    },
    /// A tenant reads a line it wrote, or a line of a torn-down page.
    Read {
        /// Target line.
        addr: BlockAddr,
        /// What the read must return: the plaintext last written to a
        /// live line, or `None` for a torn-down line, which must read as
        /// zero (served by zero-fill on Silent Shredder).
        expect: Option<[u8; LINE_SIZE]>,
    },
    /// A departing tenant's page is torn down: one shred command on
    /// Silent Shredder, 64 zeroing writes on the baseline.
    Teardown {
        /// The page released.
        page: PageId,
    },
}

/// Zeroing writes per torn-down page on the baseline.
pub const ZEROING_WRITES_PER_PAGE: u64 = BLOCKS_PER_PAGE as u64;

/// Input of `tenant_churn`.
#[derive(Debug, Clone)]
pub struct ChurnInput {
    /// Requests in issue order.
    pub ops: Vec<ChurnOp>,
}

impl ChurnInput {
    /// Controller calls this input makes on one configuration.
    pub fn mem_ops(&self, shredder: bool) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                ChurnOp::Teardown { .. } if !shredder => ZEROING_WRITES_PER_PAGE,
                _ => 1,
            })
            .sum()
    }

    /// Line addresses touched, in issue order (the cache probe's stream).
    pub fn addresses(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.ops.iter().map(|op| match op {
            ChurnOp::Write { addr, .. } | ChurnOp::Read { addr, .. } => *addr,
            ChurnOp::Teardown { page } => page.block_addr(0),
        })
    }
}

/// Reads of a torn-down page when a new tenant inherits it.
const REUSE_READS_PER_PAGE: u64 = 8;
/// Reads served per line a tenant writes.
const SERVE_READS_PER_WRITE: u64 = 4;

struct Tenant {
    pages: Vec<u64>,
    /// Every line the tenant wrote, with its plaintext.
    written: Vec<(BlockAddr, [u8; LINE_SIZE])>,
}

fn line_addr(page: u64, block: u64) -> BlockAddr {
    BlockAddr::new(page * PAGE_SIZE as u64 + block * LINE_SIZE as u64)
}

/// `tenant_churn`: tenants arrive, fill their pages, serve reads over
/// every live tenant, and depart once enough of them are resident. A
/// newcomer inherits the frames departed tenants released (FIFO) and
/// first reads some of their torn-down lines, which must read as zero.
/// The generator is the shadow model: each read carries the value it
/// must return, so checking a read costs one 64-byte compare.
pub fn tenant_churn(seed: u64, size: Size) -> ChurnInput {
    let mut rng = DetRng::new(seed ^ CHURN_DOMAIN);
    let shape = size.churn_shape();
    let mut free: VecDeque<u64> = (0..shape.frames).collect();
    let mut torn = vec![false; shape.frames as usize];
    let mut live: VecDeque<Tenant> = VecDeque::new();
    let mut ops = Vec::new();
    let teardown = |tenant: Tenant, ops: &mut Vec<ChurnOp>, free: &mut VecDeque<u64>| {
        for page in tenant.pages {
            ops.push(ChurnOp::Teardown {
                page: PageId::new(page),
            });
            free.push_back(page);
        }
    };
    // Tenant sizes and write densities are fixed multisets that the seed
    // only shuffles, so every seed holds about the same work.
    let span = shape.max_pages - shape.min_pages + 1;
    let mut sizes: Vec<u64> = (0..u64::from(shape.tenants))
        .map(|i| shape.min_pages + i % span)
        .collect();
    shuffle(&mut sizes, &mut rng);
    let mut densities: Vec<u64> = (0..u64::from(shape.tenants)).map(|i| 6 + i % 7).collect();
    shuffle(&mut densities, &mut rng);
    for (&npages, &dirty_per_page) in sizes.iter().zip(&densities) {
        if live.len() == shape.live {
            let departing = live.pop_front().expect("live is full");
            for &page in &departing.pages {
                torn[page as usize] = true;
            }
            teardown(departing, &mut ops, &mut free);
        }
        let pages: Vec<u64> = free.drain(..npages as usize).collect();
        for &page in &pages {
            if torn[page as usize] {
                for _ in 0..REUSE_READS_PER_PAGE {
                    let block = rng.below(BLOCKS_PER_PAGE as u64);
                    ops.push(ChurnOp::Read {
                        addr: line_addr(page, block),
                        expect: None,
                    });
                }
            }
        }
        let mut written = Vec::new();
        for &page in &pages {
            let mut picked = [false; BLOCKS_PER_PAGE];
            for _ in 0..dirty_per_page {
                let mut block = rng.below(BLOCKS_PER_PAGE as u64) as usize;
                while picked[block] {
                    block = (block + 1) % BLOCKS_PER_PAGE;
                }
                picked[block] = true;
                let mut data = [0u8; LINE_SIZE];
                rng.fill_bytes(&mut data);
                let addr = line_addr(page, block as u64);
                ops.push(ChurnOp::Write { addr, data });
                written.push((addr, data));
            }
        }
        live.push_back(Tenant { pages, written });
        let serve = SERVE_READS_PER_WRITE * live.back().map_or(0, |t| t.written.len() as u64);
        for _ in 0..serve {
            let tenant = &live[rng.below(live.len() as u64) as usize];
            let (addr, data) = tenant.written[rng.below(tenant.written.len() as u64) as usize];
            ops.push(ChurnOp::Read {
                addr,
                expect: Some(data),
            });
        }
    }
    while let Some(departing) = live.pop_front() {
        teardown(departing, &mut ops, &mut free);
    }
    ChurnInput { ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for size in [Size::Tiny, Size::Bench] {
            let deal = |seed| spec_mix(seed, size).cores;
            assert_eq!(deal(3), deal(3));
            assert_ne!(deal(3), deal(4));
            assert_eq!(tenant_churn(3, size).ops, tenant_churn(3, size).ops);
        }
    }

    #[test]
    fn every_model_runs_whatever_the_seed() {
        let count = |input: SystemInput, name: &str| {
            input
                .cores
                .iter()
                .flatten()
                .filter(|m| m.name() == name)
                .count()
        };
        for seed in [1, 2, 3] {
            for w in spec_suite() {
                assert_eq!(count(spec_mix(seed, Size::Tiny), w.name()), 1);
            }
            for name in PRESSURE_POOL {
                assert_eq!(count(counter_pressure(seed, Size::Tiny), name), 3);
            }
            assert_eq!(spec_mix(seed, Size::Tiny).cores.len(), CORES);
        }
    }

    #[test]
    fn churn_reads_expect_what_a_shadow_model_holds() {
        use std::collections::BTreeMap;
        let input = tenant_churn(5, Size::Bench);
        let mut live: BTreeMap<u64, [u8; LINE_SIZE]> = BTreeMap::new();
        let mut torn = std::collections::BTreeSet::new();
        for op in &input.ops {
            match op {
                ChurnOp::Write { addr, data } => {
                    live.insert(addr.raw(), *data);
                }
                ChurnOp::Read { addr, expect } => {
                    assert_eq!(live.get(&addr.raw()), expect.as_ref(), "{addr:?}");
                    if expect.is_none() {
                        assert!(torn.contains(&(addr.raw() / PAGE_SIZE as u64)));
                    }
                }
                ChurnOp::Teardown { page } => {
                    let base = page.raw() * PAGE_SIZE as u64;
                    live.retain(|&a, _| !(base..base + PAGE_SIZE as u64).contains(&a));
                    torn.insert(page.raw());
                }
            }
        }
        assert!(live.is_empty());
    }

    #[test]
    fn churn_tears_down_every_page_it_uses() {
        let input = tenant_churn(5, Size::Tiny);
        let teardowns = input
            .ops
            .iter()
            .filter(|op| matches!(op, ChurnOp::Teardown { .. }))
            .count() as u64;
        assert_eq!(
            input.mem_ops(false) - input.mem_ops(true),
            teardowns * (ZEROING_WRITES_PER_PAGE - 1)
        );
    }
}
