//! Host-side measurement helpers: process CPU time, peak resident memory,
//! the calibration loops, and order statistics.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux ABI this benchmark targets).
const USER_HZ: f64 = 100.0;

/// Process CPU time in seconds (user + system, every thread, including
/// joined ones), from the kernel's tick accounting in `/proc/self/stat`.
///
/// Tick accounting charges a tick the hypervisor stole to steal, not to
/// the process; the nanosecond `CLOCK_PROCESS_CPUTIME_ID` does charge it,
/// and on a shared host its per-run figures spread 2–4x wider. The 10 ms
/// tick is fine against the seconds of CPU each metric sums.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesized and may hold spaces; fields after
    // the closing parenthesis start at field 3 (state).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` clock ticks of every CPU of the machine as the kernel
/// reports them (`/proc/stat`); steal is time the hypervisor gave to other
/// guests while this one wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host-calibration figures: a fixed scalar loop and a memory-streaming
/// loop. Printed beside the metrics, never gated — they let a reader tell
/// host drift from a code change.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Nanoseconds per iteration of a dependent integer/float chain.
    pub scalar_ns: f64,
    /// Streaming read bandwidth over a buffer larger than the caches.
    pub stream_gbps: f64,
}

/// Runs both calibration loops (about 0.1 s in total).
pub fn calibrate() -> Calibration {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut f = black_box(1.0f64);
    for i in 0..ITERS {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        f = f * 0.999_999_9 + (x >> 60) as f64;
    }
    black_box((x, f));
    let scalar_ns = start.elapsed().as_secs_f64() * 1e9 / ITERS as f64;

    const WORDS: usize = 3 << 20; // 24 MiB of u64
    const PASSES: usize = 4;
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..PASSES {
        sum = sum.wrapping_add(black_box(&buf).iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    }
    black_box(sum);
    let bytes = (WORDS * PASSES * 8) as f64;
    let stream_gbps = bytes / start.elapsed().as_secs_f64() / 1e9;
    Calibration {
        scalar_ns,
        stream_gbps,
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}
