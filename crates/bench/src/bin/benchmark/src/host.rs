//! Host context recorded with every result.

use std::time::{Duration, Instant};

/// `available_parallelism`, or 1 when it cannot be determined.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sweep-pool workers the load generator may use: never more threads
/// than the host has cores, and at most two.
pub fn workers() -> usize {
    cores().min(2)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` (no process is spawned); "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Probe time, in ms, of the reference host that host-time metrics are
/// scaled to (see [`probe`]).
pub const REFERENCE_PROBE_MS: f64 = 1.0;

/// A fixed calibration kernel timed before each rep (fastest of five
/// tries): data-dependent loads and stores over a table that fits in L2,
/// then a branchy register-machine interpreter, the two kinds of work in
/// the simulator's inner loops. The mix tracks the system's speed across
/// host states better than either half alone. It is this package's code,
/// not the repository's, so a change to the system under test cannot move
/// it; host drift between and within runs shows here.
pub fn probe() -> Duration {
    const MASK: usize = (1 << 15) - 1;
    let mut table: Vec<u64> = (0..=MASK as u64).collect();
    let ops: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61)
        .collect();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..TABLE_STEPS {
                x ^= table[x as usize & MASK];
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(29);
                table[i & MASK] = x;
            }
            let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
            for step in 0..INTERPRETER_STEPS {
                let (a, b) = (step & 7, (step >> 3) & 7);
                match ops[step & 4095] {
                    0 => r[a] = r[a].wrapping_add(r[b]),
                    1 => r[a] ^= r[b] >> 3,
                    2 => r[a] = r[a].wrapping_mul(r[b] | 1),
                    3 if r[a] > r[b] => r[a] -= r[b],
                    3 => r[b] = r[b].wrapping_sub(r[a]),
                    4 => r[a] = r[a].rotate_left(7),
                    5 => r[b] = r[a] & 0xffff,
                    6 => r[a] = r[a].wrapping_add(step as u64),
                    _ => r.swap(a, b),
                }
            }
            std::hint::black_box((x, r));
            start.elapsed()
        })
        .min()
        .expect("five tries")
}

/// Steps of the two probe kernels: about 1 ms together on the reference
/// host.
const TABLE_STEPS: usize = 96_000;
const INTERPRETER_STEPS: usize = 180_000;
