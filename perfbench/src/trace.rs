//! The traced run: spans the benchmark puts around each call into a
//! crate's public functions, and a sink that keeps the raw observations
//! the program's own telemetry emits while a traced pass runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use commorder::obs::{self, Event, Sink};

use crate::measure::{self, percentile, process_cpu_seconds};

/// Every per-layer metric with its unit, in report order. A layer a
/// workload bypasses reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("synth.generate_s", "s"),
    ("sparse.permute_s", "s"),
    ("sparse.permute_medges_per_s", "Medges/s"),
    ("sparse.symmetrize_s", "s"),
    ("sparse.components_s", "s"),
    ("reorder.original_s", "s"),
    ("reorder.random_s", "s"),
    ("reorder.degsort_s", "s"),
    ("reorder.dbg_s", "s"),
    ("reorder.gorder_s", "s"),
    ("reorder.rabbit_s", "s"),
    ("reorder.rabbitpp_s", "s"),
    ("reorder.boba_s", "s"),
    ("reorder.rabbit_medges_per_s", "Medges/s"),
    ("reorder.cluster_detect_s", "s"),
    ("reorder.community_shards", "count"),
    ("reorder.community_passes", "count"),
    ("reorder.community_merges", "count"),
    ("exec.jobs", "count"),
    ("exec.steals", "count"),
    ("exec.utilization", "ratio"),
    ("exec.queue_wait_p50_s", "s"),
    ("exec.queue_wait_p99_s", "s"),
    ("exec.queue_wait_samples", "count"),
    ("cachesim.trace_gen_s", "s"),
    ("cachesim.lru_s", "s"),
    ("cachesim.lru_maccesses_per_s", "Maccesses/s"),
    ("cachesim.belady_s", "s"),
    ("cachesim.belady_maccesses_per_s", "Maccesses/s"),
    ("cachesim.belady_next_use_mb", "MB"),
    ("cachesim.spgemm_trace_gen_s", "s"),
    ("cachesim.spgemm_lru_s", "s"),
    ("cachesim.spgemm_lru_maccesses_per_s", "Maccesses/s"),
    ("cachesim.lru_heap_mb", "MB"),
    ("cachesim.accesses", "count"),
    ("cachesim.hit_ratio", "ratio"),
    ("cachesim.writeback_ratio", "ratio"),
    ("cachesim.spgemm_acc_peak", "count"),
    ("core.unattributed_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Layer metric of a reordering technique, by its display name.
pub fn reorder_metric(technique: &str) -> &'static str {
    match technique {
        "ORIGINAL" => "reorder.original_s",
        "RANDOM" => "reorder.random_s",
        "DEGSORT" => "reorder.degsort_s",
        "DBG" => "reorder.dbg_s",
        "GORDER" => "reorder.gorder_s",
        "RABBIT" => "reorder.rabbit_s",
        "RABBIT++" => "reorder.rabbitpp_s",
        "BOBA" => "reorder.boba_s",
        other => panic!("no layer metric for technique {other}"),
    }
}

/// Keeps what the per-layer metrics need from the program's telemetry:
/// raw queue-wait observations (for exact percentiles) and counter sums.
/// Spans and gauges are dropped.
#[derive(Default)]
struct LayerSink {
    data: Mutex<SinkData>,
}

#[derive(Default)]
struct SinkData {
    queue_waits: Vec<f64>,
    counters: BTreeMap<&'static str, u64>,
}

impl Sink for LayerSink {
    fn record(&self, event: &Event) {
        let mut data = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            Event::Observe {
                name: "exec.queue_wait_seconds",
                value,
            } => data.queue_waits.push(*value),
            Event::Counter { name, delta } => *data.counters.entry(name).or_default() += delta,
            _ => {}
        }
    }
}

/// One traced pass: layer spans, work done per layer, and the pass wall
/// time (the sum of its cells).
pub struct Trace {
    layers: BTreeMap<&'static str, f64>,
    work: BTreeMap<&'static str, f64>,
    wall: f64,
    attributed: f64,
    in_cell: bool,
    reorder_wall: f64,
    reorder_cpu: f64,
    sink: Arc<LayerSink>,
    guard: obs::SinkGuard,
}

impl Trace {
    /// Starts a traced pass with the layer sink installed.
    pub fn start() -> Trace {
        let sink = Arc::new(LayerSink::default());
        let guard = obs::install(sink.clone());
        Trace {
            layers: BTreeMap::new(),
            work: BTreeMap::new(),
            wall: 0.0,
            attributed: 0.0,
            in_cell: false,
            reorder_wall: 0.0,
            reorder_cpu: 0.0,
            sink,
            guard,
        }
    }

    /// Times a cell of the pass: its wall time counts toward the traced
    /// wall, and whatever its spans do not cover is unattributed.
    pub fn cell<R>(&mut self, f: impl FnOnce(&mut Trace) -> R) -> R {
        let started = Instant::now();
        self.in_cell = true;
        let out = f(self);
        self.in_cell = false;
        self.wall += started.elapsed().as_secs_f64();
        out
    }

    /// Times one call into a layer. Outside a cell the span is a
    /// standalone probe and does not count toward the traced wall.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let cpu = process_cpu_seconds();
        let started = Instant::now();
        let out = f();
        let seconds = started.elapsed().as_secs_f64();
        *self.layers.entry(layer).or_default() += seconds;
        if self.in_cell {
            self.attributed += seconds;
        }
        if layer.starts_with("reorder.") {
            self.reorder_wall += seconds;
            self.reorder_cpu += process_cpu_seconds() - cpu;
        }
        out
    }

    /// Adds `amount` to a work counter (entries, accesses, ...).
    pub fn add(&mut self, work: &'static str, amount: f64) {
        *self.work.entry(work).or_default() += amount;
    }

    /// Raises a work maximum (footprints, peaks).
    pub fn max(&mut self, work: &'static str, value: f64) {
        let slot = self.work.entry(work).or_default();
        *slot = slot.max(value);
    }

    /// Peak extra heap, in bytes, that `f` allocates over what was live
    /// when it started.
    pub fn heap_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = measure::live_bytes();
        measure::reset_peak();
        let out = f();
        (out, measure::peak_bytes().saturating_sub(before))
    }

    /// Ends the pass and derives every per-layer metric. `width` is the
    /// engine width; `untraced_wall` the wall time of an untraced pass
    /// of the same run.
    pub fn finish(self, width: usize, untraced_wall: f64) -> BTreeMap<&'static str, f64> {
        let Trace {
            layers,
            work,
            wall,
            attributed,
            reorder_wall,
            reorder_cpu,
            sink,
            guard,
            ..
        } = self;
        drop(guard);
        let mut data =
            std::mem::take(&mut *sink.data.lock().unwrap_or_else(PoisonError::into_inner));
        data.queue_waits.sort_by(f64::total_cmp);

        let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
        let work = |name: &str| work.get(name).copied().unwrap_or(0.0);
        let counter = |name: &str| data.counters.get(name).copied().unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let rate = |amount: f64, seconds: f64| ratio(amount, seconds) / 1e6;

        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        for &(name, unit) in LAYER_METRICS {
            if unit == "s" {
                m.insert(name, layer(name));
            }
        }
        m.insert(
            "sparse.permute_medges_per_s",
            rate(work("permute_nnz"), layer("sparse.permute_s")),
        );
        m.insert(
            "reorder.rabbit_medges_per_s",
            rate(work("rabbit_nnz"), layer("reorder.rabbit_s")),
        );
        m.insert(
            "reorder.community_shards",
            counter("reorder.community.shards"),
        );
        m.insert(
            "reorder.community_passes",
            counter("reorder.community.passes"),
        );
        m.insert(
            "reorder.community_merges",
            counter("reorder.community.merges"),
        );
        m.insert("exec.jobs", counter("exec.jobs"));
        m.insert("exec.steals", counter("exec.steals"));
        m.insert(
            "exec.utilization",
            ratio(reorder_cpu, width as f64 * reorder_wall),
        );
        m.insert("exec.queue_wait_p50_s", percentile(&data.queue_waits, 0.50));
        m.insert("exec.queue_wait_p99_s", percentile(&data.queue_waits, 0.99));
        m.insert("exec.queue_wait_samples", data.queue_waits.len() as f64);
        m.insert(
            "cachesim.lru_maccesses_per_s",
            rate(work("lru_accesses"), layer("cachesim.lru_s")),
        );
        m.insert(
            "cachesim.belady_maccesses_per_s",
            rate(work("belady_accesses"), layer("cachesim.belady_s")),
        );
        m.insert(
            "cachesim.belady_next_use_mb",
            work("belady_next_use_bytes") / 1e6,
        );
        m.insert(
            "cachesim.spgemm_lru_maccesses_per_s",
            rate(work("spgemm_accesses"), layer("cachesim.spgemm_lru_s")),
        );
        m.insert("cachesim.lru_heap_mb", work("lru_heap_bytes") / 1e6);
        m.insert("cachesim.accesses", work("accesses"));
        m.insert("cachesim.hit_ratio", ratio(work("hits"), work("accesses")));
        m.insert(
            "cachesim.writeback_ratio",
            ratio(work("writebacks"), work("writebacks") + work("fill_misses")),
        );
        m.insert("cachesim.spgemm_acc_peak", work("acc_peak"));
        m.insert("core.unattributed_s", wall - attributed);
        m.insert("obs.trace_overhead_ratio", ratio(wall, untraced_wall));
        m.insert("traced_wall_s", wall);
        m
    }
}
