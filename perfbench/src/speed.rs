//! Host-speed calibration.
//!
//! The host this benchmark was written on (2 vCPUs shared with other
//! tenants) ran the same cells up to 2× slower or faster within half an
//! hour. A fixed kernel (see [`sample`]) slowed down with them, if less.
//! Every worker therefore times that kernel between chunks of units, and
//! the run reports each timing scaled to a host on which the kernel takes
//! [`REFERENCE_MS`]. On that host scaling halved the spread of repeated
//! same-seed runs. The kernel calls no repository code,
//! so a change to the program moves the scaled figures exactly as it
//! moves the raw ones; the raw figures are printed as notes.

use crate::report::Metric;
use crate::stats::median;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host, ms.
pub const REFERENCE_MS: f64 = 1.0;

/// Time the kernel once, ms: the geometric mean of a CPU-bound xorshift
/// chain and a cache-bound miniature event loop (a binary heap of timers
/// updating a 4 MB state table). The sharing that slows the simulator
/// hits memory harder than arithmetic; neither part alone followed it
/// as closely as their mean.
pub fn sample() -> f64 {
    thread_local! {
        static STATE: RefCell<Vec<u64>> = RefCell::new(vec![0; 1 << 19]);
    }
    let t = Instant::now();
    let mut x = black_box(SEED);
    for _ in 0..200_000 {
        x = xorshift(x);
    }
    black_box(x);
    let cpu = t.elapsed().as_secs_f64();
    let events = STATE.with(|state| {
        let mut state = state.borrow_mut();
        let mask = state.len() - 1;
        let t = Instant::now();
        let mut heap = BinaryHeap::with_capacity(2048);
        let mut x = SEED;
        for id in 0..2048u64 {
            x = xorshift(x);
            heap.push(Reverse((x % 1000, id)));
        }
        for _ in 0..25_000 {
            let Some(Reverse((at, id))) = heap.pop() else {
                break;
            };
            x = xorshift(x);
            let slot = &mut state[x as usize & mask];
            *slot = slot.wrapping_add(at ^ id);
            heap.push(Reverse((at + 1 + (x >> 54), id)));
        }
        black_box(&*state);
        t.elapsed().as_secs_f64()
    });
    (cpu * events).sqrt() * 1e3
}

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// How many times longer a timing would take on the reference host:
/// `REFERENCE_MS` over the median kernel time.
pub fn factor(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m > 0.0 {
        REFERENCE_MS / m
    } else {
        1.0
    }
}

/// Scale a metric by `factor`: durations grow by it, rates shrink by
/// it, everything else is left alone.
pub fn scale(m: &mut Metric, factor: f64) {
    match m.unit.as_str() {
        "s" | "ms" | "us" | "ns" => m.value *= factor,
        "1/s" => m.value /= factor,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, unit: &str) -> Metric {
        Metric {
            name: "m".into(),
            value,
            unit: unit.into(),
        }
    }

    #[test]
    fn durations_grow_and_rates_shrink_on_a_slower_reference() {
        let k = factor(&[0.5, 0.4, 0.6].map(|x| x * REFERENCE_MS));
        assert_eq!(k, 2.0);
        for (unit, scaled) in [
            ("ms", 6.0),
            ("ns", 6.0),
            ("s", 6.0),
            ("1/s", 1.5),
            ("count", 3.0),
        ] {
            let mut m = metric(3.0, unit);
            scale(&mut m, k);
            assert_eq!(m.value, scaled, "{unit}");
        }
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(sample() > 0.0);
        assert_eq!(factor(&[]), 1.0);
    }
}
