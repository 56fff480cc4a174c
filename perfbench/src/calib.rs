//! A fixed reference computation, independent of the program under test.
//! Timed between units, it measures how fast the shared host is running,
//! so that timing metrics can be expressed at one reference host speed.

use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 40;

/// Dense LU of a fixed, diagonally dominant `N×N` matrix. `scale` is
/// always 1; it only hides the input from the optimizer.
fn lu_kernel(scale: f64) -> f64 {
    let mut a = [[0.0f64; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = scale * ((i * 7 + j * 13) % 17) as f64 / 17.0;
        }
        row[i] += N as f64;
    }
    for k in 0..N {
        let pivot_row = a[k];
        for row in a.iter_mut().skip(k + 1) {
            let f = row[k] / pivot_row[k];
            for (x, p) in row[k..].iter_mut().zip(&pivot_row[k..]) {
                *x -= f * p;
            }
        }
    }
    (0..N).map(|i| a[i][i]).sum()
}

/// Fastest of three timings of four kernel runs (about 0.1 ms on a quiet
/// host).
pub fn measure() -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..4 {
                black_box(lu_kernel(black_box(1.0)));
            }
            t.elapsed()
        })
        .min()
        .expect("three timings")
}
