//! The three workloads. Each one is run two ways over the same inputs:
//! as a user runs it (untraced, through the highest-level entry point)
//! and one layer at a time with a span around every call (traced). Both
//! ways record the same named fingerprints, so a traced pass can be
//! checked against an untraced one.

use commorder::cachesim::belady::simulate_belady;
use commorder::cachesim::source::KernelTrace;
use commorder::cachesim::trace::ExecutionModel;
use commorder::cachesim::{CacheConfig, CacheStats, LruCache, SpGemmTrace, TraceSource};
use commorder::exec::Engine;
use commorder::experiment::{ExperimentSpec, NamedMatrix};
use commorder::gpumodel::GpuSpec;
use commorder::pipeline::{Pipeline, ReplacementPolicy};
use commorder::reorder::{paper_suite, technique_by_name, Rabbit, ReorderContext, Reordering};
use commorder::sparse::traffic::Kernel;
use commorder::sparse::{ops, CsrMatrix, Permutation};
use commorder::synth::corpus::{self, CorpusEntry};

use crate::check::{permutation_fingerprint, stats_fingerprint, Checks, Fingerprints, Op};
use crate::measure::Stopwatch;
use crate::trace::{reorder_metric, Trace};

/// Seed the orderings receive (RANDOM draws from it); the workload seed
/// changes only the inputs.
const REORDER_SEED: u64 = 0xC0DE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    PreprocessMega,
    Spgemm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::PreprocessMega,
        Workload::Spgemm,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::PreprocessMega => "preprocess-mega",
            Workload::Spgemm => "spgemm",
        }
    }

    /// Engine width, fixed per workload whatever `COMMORDER_THREADS` says.
    pub fn width(self) -> usize {
        match self {
            Workload::PreprocessMega => 2,
            Workload::PaperGrid | Workload::Spgemm => 1,
        }
    }

    /// The corpus entries the workload runs on, with every generation
    /// seed shifted by the workload seed (seed 0 is the corpus itself).
    pub fn entries(self, seed: u64) -> Vec<CorpusEntry> {
        let (tier, names): (Vec<CorpusEntry>, &[&str]) = match self {
            Workload::PaperGrid => (
                corpus::standard(),
                &[
                    "soc-rmat-131k",
                    "opt-block-512",
                    "road-grid-131k",
                    "kmer-131k",
                ],
            ),
            Workload::PreprocessMega => (corpus::mega(), &["mega-soc-rmat-1m"]),
            Workload::Spgemm => (
                corpus::standard(),
                &["opt-block-512", "road-grid-131k", "kmer-131k"],
            ),
        };
        names
            .iter()
            .map(|name| {
                let mut entry = tier
                    .iter()
                    .find(|e| e.name == *name)
                    .cloned()
                    .unwrap_or_else(|| panic!("corpus entry {name} exists"));
                entry.seed = entry.seed.wrapping_add(seed);
                entry
            })
            .collect()
    }

    /// Builds what every pass needs from freshly generated inputs.
    pub fn prepare(self, inputs: Vec<NamedMatrix>) -> Box<dyn Pass> {
        match self {
            Workload::PaperGrid => Box::new(PaperGrid::new(inputs)),
            Workload::PreprocessMega => Box::new(PreprocessMega::new(inputs)),
            Workload::Spgemm => Box::new(Spgemm::new(inputs)),
        }
    }
}

pub trait Pass {
    /// One untraced pass: only the calls into the program are timed, and
    /// every operation is checked after its timed region.
    fn run(&self, engine: &Engine, clock: &mut Stopwatch, checks: &mut Checks) -> Fingerprints;

    /// One traced pass: the same work, one layer call at a time.
    fn run_traced(&self, engine: &Engine, trace: &mut Trace, checks: &mut Checks) -> Fingerprints;
}

/// Generates every input, in entry order.
pub fn generate(entries: &[CorpusEntry]) -> Vec<NamedMatrix> {
    entries
        .iter()
        .map(|e| NamedMatrix {
            name: e.name.to_string(),
            group: e.domain.label().to_string(),
            matrix: e.generate().expect("corpus entries generate"),
        })
        .collect()
}

/// The standalone probes of the sparse layer's graph passes, which
/// detection runs internally where no outside span can reach.
fn probe_graph_passes(trace: &mut Trace, m: &CsrMatrix) {
    trace.span("sparse.symmetrize_s", || {
        ops::symmetrize(m).expect("square input")
    });
    trace.span("sparse.components_s", || {
        ops::connected_components(m).expect("square input")
    });
}

/// Streams `source` through a fresh LRU cache inside the span `layer`,
/// recording how far the simulator grows the heap (its seen-line set).
fn traced_lru<S: TraceSource>(
    trace: &mut Trace,
    layer: &'static str,
    l2: CacheConfig,
    source: &S,
) -> CacheStats {
    let (stats, heap) = Trace::heap_growth(|| {
        trace.span(layer, || {
            let mut cache = LruCache::new(l2);
            cache.consume(source);
            cache.finish()
        })
    });
    trace.max("lru_heap_bytes", heap as f64);
    stats
}

fn count_stats(trace: &mut Trace, s: &CacheStats) {
    trace.add("accesses", s.accesses as f64);
    trace.add("hits", s.hits as f64);
    trace.add("fill_misses", s.fill_misses as f64);
    trace.add("writebacks", s.writebacks as f64);
}

fn perm_key(matrix: &str, technique: &str) -> String {
    format!("permutation.{matrix}.{}", technique.to_lowercase())
}

fn cache_key(matrix: &str, what: &str, policy: &str) -> String {
    format!("cache.{matrix}.{}.{policy}", what.to_lowercase())
}

// --- paper-grid ------------------------------------------------------

/// The paper grid: 4 matrices × `paper_suite` × SpMV-CSR × LRU, plus the
/// Fig. 8 Belady bound on ORIGINAL and RABBIT++. Each matrix is its own
/// pair of grid runs, so a pass times eight shorter calls.
struct PaperGrid {
    /// Per matrix: the five orderings simulated under LRU only, then
    /// ORIGINAL and RABBIT++ under LRU and Belady.
    specs: Vec<[ExperimentSpec; 2]>,
    gpu: GpuSpec,
}

fn has_belady(technique: &str) -> bool {
    matches!(technique, "ORIGINAL" | "RABBIT++")
}

/// One (matrix, ordering) cell of the paper grid, as either run yields it.
struct SpmvCell<'a> {
    input: &'a NamedMatrix,
    technique: &'a str,
    p: &'a Permutation,
    reordered: Option<&'a CsrMatrix>,
    lru: &'a CacheStats,
    opt: Option<&'a CacheStats>,
}

impl SpmvCell<'_> {
    fn check(&self, checks: &mut Checks, pass: &mut Fingerprints, label: &str, l2: CacheConfig) {
        let (name, lru) = (&self.input.name, self.lru);
        let mut op = Op::new(format!("{label}{name}/{}", self.technique));
        op.bijection(self.p, self.input.matrix.n_rows());
        match self.reordered {
            Some(reordered) => op.same_nnz(&self.input.matrix, reordered),
            None => op.require(false, || "the permutation does not apply".to_string()),
        }
        op.fingerprint(
            perm_key(name, self.technique),
            permutation_fingerprint(self.p),
        );
        op.balanced("lru", lru, l2);
        op.fingerprint(
            cache_key(name, self.technique, "lru"),
            stats_fingerprint(lru),
        );
        if let Some(opt) = self.opt {
            op.balanced("belady", opt, l2);
            op.require(opt.misses() <= lru.misses(), || {
                format!(
                    "Belady misses {} > LRU misses {}",
                    opt.misses(),
                    lru.misses()
                )
            });
            op.fingerprint(
                cache_key(name, self.technique, "belady"),
                stats_fingerprint(opt),
            );
        }
        checks.finish(op, pass);
    }
}

impl PaperGrid {
    fn new(inputs: Vec<NamedMatrix>) -> Self {
        let gpu = GpuSpec::a6000_scaled();
        let specs = inputs
            .into_iter()
            .map(|input| {
                let (belady, lru): (Vec<_>, Vec<_>) = paper_suite(REORDER_SEED)
                    .into_iter()
                    .partition(|t| has_belady(t.name()));
                let mut lru_only = ExperimentSpec::new(gpu).techniques(lru);
                let mut with_belady = ExperimentSpec::new(gpu)
                    .techniques(belady)
                    .policies(vec![ReplacementPolicy::Lru, ReplacementPolicy::Belady]);
                lru_only.matrices.push(input.clone());
                with_belady.matrices.push(input);
                [lru_only, with_belady]
            })
            .collect();
        PaperGrid { specs, gpu }
    }
}

impl Pass for PaperGrid {
    fn run(&self, engine: &Engine, clock: &mut Stopwatch, checks: &mut Checks) -> Fingerprints {
        let mut pass = Fingerprints::new();
        let l2 = self.gpu.l2;
        for spec in self.specs.iter().flatten() {
            let result = clock
                .time(&spec.matrices[0].name, || spec.run(engine))
                .expect("paper grid runs");
            let input = &spec.matrices[0];
            for (ti, technique) in result.techniques.iter().enumerate() {
                let p = &result.permutations[0][ti];
                let reordered = input.matrix.permute_symmetric(p).ok();
                let lru = &result.record(0, ti, 0, 0, 0).run.stats;
                let opt =
                    (spec.policies.len() == 2).then(|| &result.record(0, ti, 0, 0, 1).run.stats);
                let cell = SpmvCell {
                    input,
                    technique,
                    p,
                    reordered: reordered.as_ref(),
                    lru,
                    opt,
                };
                cell.check(checks, &mut pass, "", l2);
            }
        }
        pass
    }

    fn run_traced(&self, engine: &Engine, trace: &mut Trace, checks: &mut Checks) -> Fingerprints {
        let mut pass = Fingerprints::new();
        let gpu = self.gpu;
        let pipeline = Pipeline::new(gpu);
        let cx = ReorderContext::new(engine, REORDER_SEED);
        for [spec, _] in &self.specs {
            let input = &spec.matrices[0];
            let m = &input.matrix;
            probe_graph_passes(trace, m);
            for technique in paper_suite(REORDER_SEED) {
                let name = technique.name();
                let (p, reordered, lru, opt) = trace.cell(|t| {
                    let p = t.span(reorder_metric(name), || technique.reorder_with(m, &cx));
                    let p = p.expect("square input");
                    if name == "RABBIT" {
                        t.add("rabbit_nnz", m.nnz() as f64);
                    }
                    let reordered = t.span("sparse.permute_s", || m.permute_symmetric(&p));
                    let reordered = reordered.expect("valid permutation");
                    t.add("permute_nnz", m.nnz() as f64);
                    let source =
                        KernelTrace::new(&reordered, Kernel::SpmvCsr, ExecutionModel::Sequential);
                    t.span("cachesim.trace_gen_s", || {
                        let mut generated = 0u64;
                        source.replay(&mut |_| generated += 1);
                        std::hint::black_box(generated)
                    });
                    let lru = traced_lru(t, "cachesim.lru_s", gpu.l2, &source);
                    t.add("lru_accesses", lru.accesses as f64);
                    count_stats(t, &lru);
                    std::hint::black_box(pipeline.run_from_stats(&reordered, lru));
                    let opt = has_belady(name).then(|| {
                        let (opt, next_use) = Trace::heap_growth(|| {
                            t.span("cachesim.belady_s", || simulate_belady(gpu.l2, &source))
                        });
                        t.add("belady_accesses", opt.accesses as f64);
                        t.max("belady_next_use_bytes", next_use as f64);
                        count_stats(t, &opt);
                        opt
                    });
                    (p, reordered, lru, opt)
                });
                let cell = SpmvCell {
                    input,
                    technique: name,
                    p: &p,
                    reordered: Some(&reordered),
                    lru: &lru,
                    opt: opt.as_ref(),
                };
                cell.check(checks, &mut pass, "traced ", gpu.l2);
            }
        }
        pass
    }
}

// --- preprocess-mega -------------------------------------------------

/// Fig. 9 preprocessing cost: reorder-then-permute of the mega matrix,
/// no simulation.
struct PreprocessMega {
    input: NamedMatrix,
    techniques: Vec<Box<dyn Reordering>>,
}

impl PreprocessMega {
    fn new(mut inputs: Vec<NamedMatrix>) -> Self {
        let techniques = ["rabbit", "rabbit++", "boba", "dbg"]
            .iter()
            .map(|name| technique_by_name(name, REORDER_SEED).expect("registered technique"))
            .collect();
        PreprocessMega {
            input: inputs.remove(0),
            techniques,
        }
    }

    fn check(
        &self,
        checks: &mut Checks,
        pass: &mut Fingerprints,
        label: &str,
        name: &str,
        p: &Permutation,
        reordered: &CsrMatrix,
    ) {
        let m = &self.input.matrix;
        let mut op = Op::new(format!("{label}{}/{name}", self.input.name));
        op.bijection(p, m.n_rows());
        op.same_nnz(m, reordered);
        op.fingerprint(perm_key(&self.input.name, name), permutation_fingerprint(p));
        checks.finish(op, pass);
    }
}

impl Pass for PreprocessMega {
    fn run(&self, engine: &Engine, clock: &mut Stopwatch, checks: &mut Checks) -> Fingerprints {
        let mut pass = Fingerprints::new();
        let m = &self.input.matrix;
        let cx = ReorderContext::new(engine, REORDER_SEED);
        for technique in &self.techniques {
            let (p, reordered) = clock.time(&self.input.name, || {
                let p = technique.reorder_with(m, &cx).expect("square input");
                let reordered = m.permute_symmetric(&p).expect("valid permutation");
                (p, reordered)
            });
            self.check(checks, &mut pass, "", technique.name(), &p, &reordered);
        }
        pass
    }

    fn run_traced(&self, engine: &Engine, trace: &mut Trace, checks: &mut Checks) -> Fingerprints {
        let mut pass = Fingerprints::new();
        let m = &self.input.matrix;
        let cx = ReorderContext::new(engine, REORDER_SEED);
        probe_graph_passes(trace, m);
        for technique in &self.techniques {
            let name = technique.name();
            let (p, reordered) = trace.cell(|t| {
                let p = t.span(reorder_metric(name), || technique.reorder_with(m, &cx));
                let p = p.expect("square input");
                if name == "RABBIT" {
                    t.add("rabbit_nnz", m.nnz() as f64);
                }
                let reordered = t.span("sparse.permute_s", || m.permute_symmetric(&p));
                t.add("permute_nnz", m.nnz() as f64);
                (p, reordered.expect("valid permutation"))
            });
            self.check(checks, &mut pass, "traced ", name, &p, &reordered);
        }
        pass
    }
}

// --- spgemm ----------------------------------------------------------

/// A·A under LRU with the Gustavson and cluster-wise kernels.
struct Spgemm {
    inputs: Vec<NamedMatrix>,
    gpu: GpuSpec,
}

const SPGEMM_KERNELS: [Kernel; 2] = [Kernel::SpGemmGustavson, Kernel::SpGemmClusterWise];

impl Spgemm {
    fn new(inputs: Vec<NamedMatrix>) -> Self {
        Spgemm {
            inputs,
            gpu: GpuSpec::a6000_scaled(),
        }
    }

    /// Checks one matrix's pair of cells; the kernels differ only in row
    /// order, so they must make the same number of accesses.
    fn check(
        &self,
        checks: &mut Checks,
        pass: &mut Fingerprints,
        label: &str,
        name: &str,
        stats: &[CacheStats; 2],
    ) {
        for (kernel, s) in SPGEMM_KERNELS.iter().zip(stats) {
            let mut op = Op::new(format!("{label}{name}/{}", kernel.cli_name()));
            op.balanced("lru", s, self.gpu.l2);
            op.require(s.accesses == stats[0].accesses, || {
                format!(
                    "{} accesses {} != spgemm accesses {}",
                    kernel.cli_name(),
                    s.accesses,
                    stats[0].accesses
                )
            });
            op.fingerprint(
                cache_key(name, &kernel.cli_name(), "lru"),
                stats_fingerprint(s),
            );
            checks.finish(op, pass);
        }
    }
}

impl Pass for Spgemm {
    fn run(&self, _engine: &Engine, clock: &mut Stopwatch, checks: &mut Checks) -> Fingerprints {
        let mut pass = Fingerprints::new();
        for input in &self.inputs {
            let stats = SPGEMM_KERNELS.map(|kernel| {
                let pipeline = Pipeline::builder(self.gpu)
                    .kernel(kernel)
                    .build()
                    .expect("valid SpGEMM pipeline");
                clock
                    .time(&input.name, || pipeline.simulate(&input.matrix))
                    .stats
            });
            self.check(checks, &mut pass, "", &input.name, &stats);
        }
        pass
    }

    fn run_traced(&self, _engine: &Engine, trace: &mut Trace, checks: &mut Checks) -> Fingerprints {
        let mut pass = Fingerprints::new();
        let l2 = self.gpu.l2;
        for input in &self.inputs {
            let m = &input.matrix;
            let mut lengths = [None; 2];
            let stats = [0, 1].map(|k| {
                let kernel = SPGEMM_KERNELS[k];
                trace.cell(|t| {
                    let assignment = (kernel == Kernel::SpGemmClusterWise).then(|| {
                        t.span("reorder.cluster_detect_s", || Rabbit::new().run(m))
                            .expect("square input")
                            .assignment
                    });
                    let source = t.span("cachesim.spgemm_trace_gen_s", || {
                        let source = SpGemmTrace::new(m, m, kernel, assignment.as_deref())
                            .expect("square input");
                        let mut generated = 0u64;
                        source.replay(&mut |_| generated += 1);
                        std::hint::black_box(generated);
                        source
                    });
                    let s = traced_lru(t, "cachesim.spgemm_lru_s", l2, &source);
                    t.add("spgemm_accesses", s.accesses as f64);
                    t.max("acc_peak", source.accumulator_peak() as f64);
                    count_stats(t, &s);
                    lengths[k] = source.len_hint();
                    s
                })
            });
            for (k, s) in stats.iter().enumerate() {
                checks.expect(
                    &format!(
                        "traced {}/{} trace length",
                        input.name,
                        SPGEMM_KERNELS[k].cli_name()
                    ),
                    lengths[k] == Some(s.accesses),
                    || {
                        format!(
                            "{} accesses against a trace of {:?}",
                            s.accesses, lengths[k]
                        )
                    },
                );
            }
            self.check(checks, &mut pass, "traced ", &input.name, &stats);
        }
        pass
    }
}
