//! The machine-speed calibration: a fixed piece of work that stands
//! apart from the program under test, timed next to every repetition.
//!
//! Shared machines change speed by more than half within seconds (other
//! tenants of the same cores), which no amount of repetition inside one
//! run can average away. Every time this benchmark reports is therefore
//! scaled by `NOMINAL_NS / calibration`, where the calibration is timed
//! right before and right after the stretch of work it scales: a slower
//! machine phase slows both alike and cancels, a slower program does
//! not, because the calibration never calls it. The unscaled question
//! median and rate are printed next to the scaled ones.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Stream time between two calibrations.
const EVERY_NS: u64 = 100_000_000;

/// The calibration time the scaled numbers are expressed against; about
/// what [`calibrate`] takes on a 2-vCPU Xeon VM in a quiet phase.
pub const NOMINAL_NS: f64 = 3.0e6;

/// One pass of the fixed work: string formatting, hashing, a hash-set
/// and a B-tree, the same kinds of work the server's hot paths do.
fn pass() -> u64 {
    let mut set: HashSet<String> = HashSet::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut acc = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if !set.insert(format!("k{}", x % 5000)) {
            acc += 1;
        }
        *tree.entry(x % 3000).or_default() += i;
    }
    acc + tree.values().sum::<u64>()
}

/// The time scale of work timed between two calibrations.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_NS / ((before + after) / 2.0)
}

/// Per line, the scale of the two calibrations around it, given the
/// calibrations as `(first line after it, ns)` in stream order.
pub fn line_scales(cals: &[(usize, f64)]) -> Vec<f64> {
    let mut out = Vec::new();
    for pair in cals.windows(2) {
        let ((from, before), (to, after)) = (pair[0], pair[1]);
        out.extend(std::iter::repeat_n(scale(before, after), to - from));
    }
    out
}

/// A stream clock that stops while the calibration runs: the caller
/// calls [`Pacer::tick`] between lines, and every [`EVERY_NS`] of stream
/// time the calibration is timed again, so no latency includes it.
pub struct Pacer {
    origin: Instant,
    paused: u64,
    last: u64,
    cals: Vec<(usize, f64)>,
}

impl Pacer {
    /// Calibrates, then starts the stream clock.
    pub fn start() -> Self {
        let first = calibrate();
        Pacer {
            origin: Instant::now(),
            paused: 0,
            last: 0,
            cals: vec![(0, first)],
        }
    }

    /// The first calibration's time, ns.
    pub fn first(&self) -> f64 {
        self.cals[0].1
    }

    /// Stream time, ns.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 - self.paused
    }

    /// Calibrates again before `line` when it is due.
    pub fn tick(&mut self, line: usize) {
        if self.now() - self.last >= EVERY_NS {
            let t = Instant::now();
            self.cals.push((line, calibrate()));
            self.paused += t.elapsed().as_nanos() as u64;
            self.last = self.now();
        }
    }

    /// Calibrates once more after the last of `lines` lines; returns the
    /// per-line scales and that last calibration's time.
    pub fn finish(mut self, lines: usize) -> (Vec<f64>, f64) {
        let last = calibrate();
        self.cals.push((lines, last));
        (line_scales(&self.cals), last)
    }
}

/// The median time of three passes, ns.
pub fn calibrate() -> f64 {
    let mut ns: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(pass());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_line_takes_the_scale_of_its_segment() {
        let n = NOMINAL_NS;
        let scales = line_scales(&[(0, n), (2, n), (3, 2.0 * n), (5, 2.0 * n)]);
        assert_eq!(scales, vec![1.0, 1.0, 1.0 / 1.5, 0.5, 0.5]);
    }
}
