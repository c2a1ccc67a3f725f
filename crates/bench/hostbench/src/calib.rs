//! Host-speed reference: a fixed calibration kernel, timed between cells.
//!
//! On a shared host, other tenants slow the simulator down by up to about 1.8× for minutes at
//! a time. The process is not descheduled meanwhile (its CPU time equals its wall time); the
//! core it runs on is slower. Taking each cell at its fastest repetition removes the short
//! slow spells but not one that outlasts the run, so the benchmark also times a fixed kernel
//! of its own between cells, all through the run. The kernel's fastest runs slow down with
//! the cells' fastest repetitions when the whole host is busy, and every host time the
//! benchmark reports is divided by the slowdown they show: its tenth-percentile time over
//! [`NOMINAL_KERNEL_S`]. Times then read as host seconds at the speed the kernel had when
//! [`NOMINAL_KERNEL_S`] was fixed. The kernel is a small event loop (binary-heap pops and
//! pushes plus reads and writes of a table larger than a core's private caches), the kind of
//! work the simulator does, and no simulator code runs in it, so a change to the simulator
//! leaves it alone.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The kernel's tenth-percentile time on the 2-vCPU Intel Xeon container the benchmark was
/// built on, at a calm moment. It only sets the scale reported times read in.
pub const NOMINAL_KERNEL_S: f64 = 0.020;
/// The kernel runs again once this many times its own last duration has been measured
/// since, so it takes about a tenth of a run.
const DUTY: f64 = 9.0;
/// Pending events in the kernel's queue.
const EVENTS: usize = 4_096;
/// Words in the kernel's table: 1 MiB.
const TABLE_WORDS: usize = 1 << 17;
/// Events the kernel processes per run.
const STEPS: u64 = 300_000;

/// Runs and times the calibration kernel between measurements. Its buffers are allocated
/// once, before anything is measured.
pub struct Speedometer {
    table: RefCell<Vec<u64>>,
    queue: RefCell<BinaryHeap<Reverse<(u64, u64)>>>,
    /// The kernel's result, which every run must reproduce.
    checksum: Cell<Option<u64>>,
    /// Duration of the latest kernel run.
    kernel_s: Cell<f64>,
    /// Host seconds measured since the latest kernel run.
    since_s: Cell<f64>,
    /// Kernel durations since the last [`Speedometer::take_slowdown`].
    samples: RefCell<Vec<f64>>,
}

impl Speedometer {
    pub fn new() -> Self {
        Speedometer {
            table: RefCell::new(vec![0; TABLE_WORDS]),
            queue: RefCell::new(BinaryHeap::with_capacity(EVENTS + 1)),
            checksum: Cell::new(None),
            kernel_s: Cell::new(NOMINAL_KERNEL_S),
            since_s: Cell::new(0.0),
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Runs and times the kernel now.
    pub fn sample(&self) {
        let t = Instant::now();
        let sum = kernel(&mut self.table.borrow_mut(), &mut self.queue.borrow_mut());
        let kernel_s = t.elapsed().as_secs_f64();
        match self.checksum.get() {
            None => self.checksum.set(Some(sum)),
            Some(first) => assert_eq!(sum, first, "the calibration kernel is deterministic"),
        }
        self.kernel_s.set(kernel_s);
        self.since_s.set(0.0);
        self.samples.borrow_mut().push(kernel_s);
    }

    /// Records `seconds` of host time just measured, and runs the kernel if it is due.
    pub fn measured(&self, seconds: f64) {
        self.since_s.set(self.since_s.get() + seconds);
        if self.since_s.get() >= DUTY * self.kernel_s.get() {
            self.sample();
        }
    }

    /// The kernel runs since the last call, and the host's slowdown over them: their
    /// tenth-percentile duration over [`NOMINAL_KERNEL_S`].
    pub fn take_slowdown(&self) -> (usize, f64) {
        let samples = std::mem::take(&mut *self.samples.borrow_mut());
        (samples.len(), tenth_percentile(samples) / NOMINAL_KERNEL_S)
    }
}

/// The tenth percentile, interpolated between order statistics; 1.0 × nominal if empty.
fn tenth_percentile(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return NOMINAL_KERNEL_S;
    }
    xs.sort_by(f64::total_cmp);
    let at = 0.1 * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// A deterministic event loop: pop the earliest event, update a pseudo-randomly chosen table
/// word, branch on it, and schedule the event again a little later.
fn kernel(table: &mut [u64], queue: &mut BinaryHeap<Reverse<(u64, u64)>>) -> u64 {
    table.fill(0);
    queue.clear();
    for id in 0..EVENTS as u64 {
        queue.push(Reverse((id.wrapping_mul(7_919) % 1_000, id)));
    }
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse((time, id)) = queue.pop().expect("the queue never empties");
        let slot = (x ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d)) as usize & mask;
        let word = table[slot];
        if word & 3 == 0 {
            acc = acc.wrapping_add(word ^ time);
        } else {
            acc ^= word.rotate_left(7);
        }
        table[slot] = word.wrapping_add(x | 1);
        queue.push(Reverse((time + 1 + x % 97, id)));
    }
    std::hint::black_box(acc)
}
