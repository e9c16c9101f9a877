//! Output checks behind `success_ratio`. Every operation the benchmark
//! times is checked afterwards, outside the timed region: invariants on
//! every seed, and reference fingerprints at the default seed.

use std::collections::BTreeMap;

use commorder::cachesim::{CacheConfig, CacheStats};
use commorder::sparse::{CsrMatrix, Permutation};

/// Reference fingerprints of every workload at the default seed, taken
/// on the serial engine (`perfbench --reference`).
const REFERENCE: &str = include_str!("../reference.txt");

/// The seed whose outputs are compared against [`REFERENCE`]; any other
/// seed runs the invariant checks only.
pub const DEFAULT_SEED: u64 = 0;

/// FNV-1a over 64-bit words, the workspace's result-fingerprint hash.
pub fn fnv1a_u64s(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

pub fn permutation_fingerprint(p: &Permutation) -> u64 {
    fnv1a_u64s(p.as_slice().iter().map(|&id| u64::from(id)))
}

pub fn stats_fingerprint(s: &CacheStats) -> u64 {
    fnv1a_u64s([
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
    ])
}

/// Parses `name 0xHEX` lines; blank lines and `#` comments are skipped.
fn parse_reference(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            let value = u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// Tally of checked operations for one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Compared against when the run uses the default seed.
    reference: Option<BTreeMap<String, u64>>,
}

impl Checks {
    pub fn new(seed: u64) -> Self {
        Checks {
            reference: (seed == DEFAULT_SEED).then(|| parse_reference(REFERENCE)),
            ..Checks::default()
        }
    }

    /// Counts `op`, comparing its fingerprints with the reference, and
    /// adds them to `pass` for cross-pass comparisons.
    pub fn finish(&mut self, mut op: Op, pass: &mut Fingerprints) {
        if let Some(reference) = &self.reference {
            for (name, value) in &op.fingerprints {
                match reference.get(name) {
                    Some(expected) if expected == value => {}
                    Some(expected) => op.errors.push(format!(
                        "{name} = {value:#018x}, reference {expected:#018x}"
                    )),
                    None => op.errors.push(format!("{name} missing from the reference")),
                }
            }
        }
        self.record(&op.label, &op.errors);
        pass.extend(op.fingerprints);
    }

    /// Counts an operation with no fingerprints of its own.
    pub fn expect(&mut self, label: &str, ok: bool, detail: impl FnOnce() -> String) {
        let errors = if ok { Vec::new() } else { vec![detail()] };
        self.record(label, &errors);
    }

    fn record(&mut self, label: &str, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: check failed: {label}: {}", errors.join("; "));
        }
    }

    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Named fingerprints of one pass, for pass-to-pass comparisons.
pub type Fingerprints = BTreeMap<String, u64>;

/// One checked operation under construction.
#[derive(Debug)]
pub struct Op {
    label: String,
    errors: Vec<String>,
    fingerprints: Vec<(String, u64)>,
}

impl Op {
    /// Opens one checked operation; pass it to [`Checks::finish`].
    pub fn new(label: impl Into<String>) -> Op {
        Op {
            label: label.into(),
            errors: Vec::new(),
            fingerprints: Vec::new(),
        }
    }

    pub fn require(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(detail());
        }
    }

    pub fn fingerprint(&mut self, name: String, value: u64) {
        self.fingerprints.push((name, value));
    }

    /// The permutation is a bijection on `0..n`.
    pub fn bijection(&mut self, p: &Permutation, n: u32) {
        let mut seen = vec![false; n as usize];
        let ok = p.len() == n as usize
            && p.as_slice().iter().all(|&id| {
                (id as usize) < seen.len() && !std::mem::replace(&mut seen[id as usize], true)
            });
        self.require(ok, || {
            format!(
                "permutation of length {} is not a bijection on 0..{n}",
                p.len()
            )
        });
    }

    /// The reordered matrix keeps the shape and entry count.
    pub fn same_nnz(&mut self, original: &CsrMatrix, reordered: &CsrMatrix) {
        self.require(
            reordered.nnz() == original.nnz() && reordered.n_rows() == original.n_rows(),
            || {
                format!(
                    "reordering changed nnz {} -> {}",
                    original.nnz(),
                    reordered.nnz()
                )
            },
        );
    }

    /// The cache counters balance: every access is a hit or a miss,
    /// every miss one fill, and no more lines leave or die than entered.
    pub fn balanced(&mut self, what: &str, s: &CacheStats, config: CacheConfig) {
        let misses = s.fill_misses + s.write_alloc_misses;
        let ok = s.accesses == s.hits + misses
            && s.fills == misses
            && s.compulsory_misses <= s.fills
            && s.evictions <= s.fills
            && s.fills - s.evictions <= config.num_lines() as u64
            && s.dead_lines <= s.fills
            && s.writebacks <= s.fills
            && s.line_bytes == config.line_bytes;
        self.require(ok, || format!("{what} counters do not balance: {s:?}"));
    }
}

/// Compares a pass's fingerprints with those of the first pass.
pub fn same_fingerprints(
    checks: &mut Checks,
    label: &str,
    expected: &Fingerprints,
    actual: &Fingerprints,
) {
    checks.expect(label, expected == actual, || {
        let differing: Vec<&String> = expected
            .iter()
            .filter(|(k, v)| actual.get(*k) != Some(*v))
            .map(|(k, _)| k)
            .chain(actual.keys().filter(|k| !expected.contains_key(*k)))
            .collect();
        format!("fingerprints differ: {differing:?}")
    });
}
