//! Golden result fingerprints: the behaviour contract of the cache
//! simulators and of the end-to-end experiment report.
//!
//! Each value is an FNV-1a hash of a deterministic output — the full
//! counter vector of one cache simulation, or the rendered JSON report
//! of a small paper suite. A change to the trace generators, a
//! replacement policy, a reordering or the report format moves the
//! hash, so any such change must come with a reviewed update of these
//! constants. The reorderers' own permutation fingerprints are pinned
//! in `crates/reorder/tests/parallel_reorder.rs`.

use commorder::cachesim::belady::simulate_belady;
use commorder::cachesim::plru::PlruCache;
use commorder::cachesim::source::{simulate_lru, KernelTrace};
use commorder::cachesim::SpGemmTrace;
use commorder::prelude::*;

/// FNV-1a over little-endian bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a over the full counter vector of a cache simulation.
fn stats_fingerprint(s: &CacheStats) -> u64 {
    let counters = [
        s.accesses,
        s.hits,
        s.fill_misses,
        s.write_alloc_misses,
        s.compulsory_misses,
        s.evictions,
        s.dead_lines,
        s.writebacks,
        s.fills,
        u64::from(s.line_bytes),
    ];
    fnv1a(counters.iter().flat_map(|c| c.to_le_bytes()))
}

fn mini_matrix(name: &str) -> CsrMatrix {
    corpus::mini()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} must exist in the mini corpus"))
        .generate()
        .expect("mini corpus generates")
}

fn assert_fingerprint(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what} fingerprint drifted (got {got:#018x}, want {want:#018x})"
    );
}

#[test]
fn spmv_cache_fingerprints_on_mini_rmat() {
    let matrix = mini_matrix("mini-rmat");
    let config = CacheConfig::test_scale();
    let source = KernelTrace::new(&matrix, Kernel::SpmvCsr, ExecutionModel::Sequential);

    let lru = simulate_lru(config, &source);
    assert_fingerprint("cache.lru", stats_fingerprint(&lru), 0x7EC5_5B24_1900_6CF8);

    let mut plru = PlruCache::new(config);
    plru.consume(&source);
    assert_fingerprint(
        "cache.plru",
        stats_fingerprint(&plru.finish()),
        0x2F1A_20E1_24F4_6BDD,
    );

    let belady = simulate_belady(config, &source);
    assert_fingerprint(
        "cache.belady",
        stats_fingerprint(&belady),
        0x34E6_60F7_A76D_A5E6,
    );
}

#[test]
fn spgemm_cache_fingerprints_on_mini_sbm() {
    let matrix = mini_matrix("mini-sbm");
    let config = CacheConfig::test_scale();

    let gustavson =
        SpGemmTrace::self_multiply(&matrix, Kernel::SpGemmGustavson).expect("square matrix");
    assert_fingerprint(
        "cache.spgemm_lru",
        stats_fingerprint(&simulate_lru(config, &gustavson)),
        0x01E7_C9F0_E039_DFFE,
    );

    let assignment = Rabbit::new()
        .run(&matrix)
        .expect("square matrix")
        .assignment;
    let clustered = SpGemmTrace::new(
        &matrix,
        &matrix,
        Kernel::SpGemmClusterWise,
        Some(&assignment),
    )
    .expect("assignment covers every row");
    assert_fingerprint(
        "cache.spgemm_cluster_lru",
        stats_fingerprint(&simulate_lru(config, &clustered)),
        0xA215_C667_B9E0_77B8,
    );
}

#[test]
fn paper_suite_report_fingerprint_on_mini() {
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale()).techniques(paper_suite(0xC0DE));
    for entry in corpus::mini().into_iter().take(2) {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix(entry.name, matrix);
    }
    // The report is byte-identical at any engine width.
    let report = spec.run(&Engine::new(2)).expect("valid grid").render_json();
    assert_fingerprint("suite.report", fnv1a(report.bytes()), 0xB01C_AEE1_D69B_06FF);
}
