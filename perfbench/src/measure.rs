//! Process-level measurements taken from outside the program: live heap
//! (a counting global allocator), process CPU time, and host facts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator with a live-byte count and a resettable peak.
pub struct CountingAlloc;

// Statistics only: no other data is published through these counters,
// so relaxed ordering is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are updated
// only after the system call succeeded and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator and `new_size`
        // meets `realloc`'s requirements, as the caller guarantees.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Largest live size since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// CPU seconds (user + system) of the whole process, every thread
/// included, from `/proc/self/stat` (10 ms resolution).
pub fn process_cpu_seconds() -> f64 {
    // Linux reports these fields in USER_HZ ticks, fixed at 100.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces: fields are counted after
    // its closing parenthesis, where field 3 (state) comes first.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND
}

/// Wall seconds, CPU seconds and peak live heap over timed regions
/// only, so checks and bookkeeping between regions are never counted.
#[derive(Debug, Default, Clone)]
pub struct Stopwatch {
    pub wall: f64,
    pub cpu: f64,
    /// Peak live heap while each input matrix was processed.
    pub peaks: BTreeMap<String, usize>,
}

impl Stopwatch {
    /// Times one call into the program on the input named `matrix`.
    pub fn time<R>(&mut self, matrix: &str, f: impl FnOnce() -> R) -> R {
        reset_peak();
        let cpu = process_cpu_seconds();
        let started = Instant::now();
        let out = f();
        self.wall += started.elapsed().as_secs_f64();
        self.cpu += process_cpu_seconds() - cpu;
        let peak = self.peaks.entry(matrix.to_string()).or_default();
        *peak = (*peak).max(peak_bytes());
        out
    }
}

/// The host facts a result is only comparable under, as a JSON object.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_total_kb = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    format!(
        "{{\"nproc\":{nproc},\"llc_kb\":{},\"mem_total_kb\":{mem_total_kb},\"cpu\":{}}}",
        llc_kb(),
        json_string(cpu)
    )
}

/// Size of the highest cache level cpu0 reports, in KiB (0 if unknown).
fn llc_kb() -> u64 {
    let mut best = (0u64, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level = level.trim().parse::<u64>().unwrap_or(0);
        let size = size.trim();
        let kb = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map_or(0, |m| m * 1024),
        };
        if level >= best.0 {
            best = (level, kb);
        }
    }
    best.1
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (mean of the middle two for even counts; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Exact nearest-rank percentile (`p` in 0..=1) of sorted observations.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
