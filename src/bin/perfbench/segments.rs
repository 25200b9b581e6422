//! Host-clock stamps through a measured phase.
//!
//! On a shared machine the host's speed changes from one moment to the
//! next, often within a single iteration. So each configuration's
//! measured phase is cut into about [`SEGMENTS`] segments of equal work
//! (a fixed number of ops), each timed on its own. The same input gives
//! the same segments in every iteration, so the fastest time of each
//! segment over the iterations estimates the code's own cost of that
//! work, and their sum that of the whole phase. Stamping costs a counter
//! increment per op and one clock reading per segment.
// lint:allow-file(DET-002): segments are timed on the host wall clock by design; no reading enters a simulated statistic

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Segments per measured phase.
pub const SEGMENTS: u64 = 64;

/// Times the segments of one measured phase.
#[derive(Debug)]
pub struct SegmentClock {
    every: u64,
    done: u64,
    last: Instant,
    segments: Vec<f64>,
}

impl SegmentClock {
    /// Starts timing a phase of `work` ops, cut into `SEGMENTS` segments
    /// (plus the remainder).
    pub fn start(work: u64) -> Self {
        SegmentClock {
            every: (work / SEGMENTS).max(1),
            done: 0,
            last: Instant::now(),
            segments: Vec::with_capacity(SEGMENTS as usize + 1),
        }
    }

    /// Counts one op done; ends a segment every `work / SEGMENTS` ops.
    #[inline]
    pub fn tick(&mut self) {
        self.done += 1;
        if self.done.is_multiple_of(self.every) {
            self.cut();
        }
    }

    fn cut(&mut self) {
        let now = Instant::now();
        self.segments.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Ends the phase: returns each segment's seconds, in order. The
    /// last one holds whatever followed the last full segment.
    pub fn finish(&mut self) -> Vec<f64> {
        self.cut();
        std::mem::take(&mut self.segments)
    }
}

/// An op stream that ticks a clock shared by every core's stream for
/// each op the simulator takes from it.
pub struct Ticking<I> {
    inner: I,
    clock: Rc<RefCell<SegmentClock>>,
}

impl<I> Ticking<I> {
    /// Wraps `inner`.
    pub fn new(inner: I, clock: &Rc<RefCell<SegmentClock>>) -> Self {
        Ticking {
            inner,
            clock: Rc::clone(clock),
        }
    }
}

impl<I: Iterator> Iterator for Ticking<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.clock.borrow_mut().tick();
        Some(item)
    }
}

/// Sum over segments of each segment's fastest time across `runs`
/// (every run holds the same segments of the same work).
pub fn fastest_total<'a>(runs: impl Iterator<Item = &'a [f64]> + Clone) -> f64 {
    let n = runs.clone().map(<[f64]>::len).max().unwrap_or(0);
    (0..n)
        .map(|k| {
            runs.clone()
                .filter_map(|r| r.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_the_phase_and_fastest_takes_each_minimum() {
        let mut clock = SegmentClock::start(640);
        for _ in 0..645 {
            clock.tick();
        }
        let segments = clock.finish();
        assert_eq!(segments.len(), SEGMENTS as usize + 1);
        let a = [3.0, 1.0, 2.0];
        let b = [1.0, 2.0, 2.5];
        let runs = [&a[..], &b[..]];
        assert_eq!(fastest_total(runs.iter().copied()), 1.0 + 1.0 + 2.0);
    }
}
