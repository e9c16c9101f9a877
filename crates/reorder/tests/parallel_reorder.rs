//! Thread-count invariance at corpus scale: the engine-parallel
//! reorder paths ([`Reordering::reorder_with`]) must emit permutations
//! byte-identical to the serial ones on real 131k-row corpus entries,
//! at every thread count.
//!
//! Two entries are chosen deliberately: `soc-rmat-131k` is one giant
//! component (the sharded detection path collapses to the inline serial
//! sweep; parallelism lives in dendrogram flattening and the insular
//! scan), while `kmer-131k` splits into many chain islands (the
//! connectivity-sharded detection path runs for real). A golden
//! fingerprint test pins the serial permutations themselves so a silent
//! algorithm change cannot hide behind self-consistent parallel runs.

use commorder_exec::Engine;
use commorder_reorder::{Boba, Rabbit, RabbitPlusPlus, ReorderContext, Reordering};
use commorder_sparse::CsrMatrix;
use commorder_synth::corpus;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 0xC0DE;

fn corpus_matrix(name: &str) -> CsrMatrix {
    corpus::standard()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} must exist in the standard corpus"))
        .generate()
        .expect("corpus entries generate")
}

fn techniques() -> Vec<Box<dyn Reordering>> {
    vec![
        Box::new(Rabbit::new()),
        Box::new(RabbitPlusPlus::new()),
        Box::new(Boba),
    ]
}

/// FNV-1a over the permutation's new-id array, little-endian — the
/// workspace's permutation fingerprint.
fn fnv1a(ids: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for id in ids {
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Asserts thread-count invariance on corpus entry `name` and returns
/// each technique's name with its serial permutation fingerprint.
fn assert_invariant_on(name: &str) -> Vec<(String, u64)> {
    let m = corpus_matrix(name);
    let mut fingerprints = Vec::new();
    for technique in techniques() {
        let serial = technique.reorder(&m).expect("square corpus matrix");
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            let cx = ReorderContext::new(&engine, SEED);
            let parallel = technique.reorder_with(&m, &cx).expect("square");
            assert_eq!(
                serial,
                parallel,
                "{} must be thread-count-invariant on {name} at {threads} threads",
                technique.name()
            );
        }
        fingerprints.push((technique.name().to_string(), fnv1a(serial.as_slice())));
    }
    fingerprints
}

#[test]
fn parallel_permutations_match_serial_on_single_component_entry() {
    let got = assert_invariant_on("soc-rmat-131k");
    // Golden serial fingerprints, as for `kmer-131k` below.
    let want = [
        ("RABBIT", 0x7DD1_8AD7_146A_48D1u64),
        ("RABBIT++", 0xFE57_094B_445D_98B5),
        ("BOBA", 0x3E15_2420_A19B_4C41),
    ];
    assert_eq!(got.len(), want.len());
    for ((name, got), (technique, want)) in got.into_iter().zip(want) {
        assert_eq!(name, technique);
        assert_eq!(
            got, want,
            "{technique} serial permutation fingerprint drifted on soc-rmat-131k \
             (got {got:#018x})"
        );
    }
}

#[test]
fn parallel_permutations_match_serial_on_island_entry() {
    assert_invariant_on("kmer-131k");
}

/// Golden serial fingerprints on `kmer-131k`. These pin the algorithms,
/// not just serial/parallel agreement: a change to merge order, insular
/// handling or first-touch traversal shifts the hash and must be an
/// intentional, reviewed update of these constants.
#[test]
fn golden_serial_fingerprints_on_kmer_131k() {
    let m = corpus_matrix("kmer-131k");
    let expect: &[(&str, u64)] = &[
        ("RABBIT", 0x83E8_7365_0BAB_E161),
        ("RABBIT++", 0xB872_E892_D992_B8E1),
        ("BOBA", 0xD78D_8BE1_A162_9F6D),
    ];
    for (technique, want) in expect {
        let t = commorder_reorder::technique_by_name(technique, SEED)
            .unwrap_or_else(|| panic!("{technique} is registered"));
        let p = t.reorder(&m).expect("square");
        let got = fnv1a(p.as_slice());
        assert_eq!(
            got, *want,
            "{technique} serial permutation fingerprint drifted on kmer-131k \
             (got {got:#018x})"
        );
    }
}
