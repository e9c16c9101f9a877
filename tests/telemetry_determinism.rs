//! Telemetry is a strict sidecar: installing a sink must never change
//! the experiment report, only add a parallel event stream. This golden
//! test pins that contract end to end — the report JSON is byte
//! identical with and without telemetry at 1 and 4 worker threads, and
//! the captured stream validates clean under the `CHK09xx` auditors
//! while covering every pipeline phase for every grid cell. The
//! count-based folded flamegraph export is pinned the same way: it is
//! byte-identical at 1 and 4 worker threads.

use std::sync::Arc;

use commorder::obs;
use commorder::prelude::*;
use commorder::synth::corpus;

/// Three mini-corpus matrices x two techniques x two replacement
/// policies on the test-scale platform: small enough for a test, real
/// enough to exercise the reorder, trace-gen, simulate, and model
/// phases down both streaming simulator paths (LRU and two-pass
/// Belady).
fn mini_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale())
        .techniques(vec![Box::new(Original), Box::new(Rabbit::new())])
        .policies(vec![ReplacementPolicy::Lru, ReplacementPolicy::Belady]);
    for entry in corpus::mini().into_iter().take(3) {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    spec
}

#[test]
fn report_json_is_byte_identical_with_and_without_telemetry() {
    let _serial = obs::tests_serial();
    // One job per matrix x technique; one cell per job x policy.
    let jobs = 3 * 2;
    let cells = jobs * 2;

    let baseline = mini_spec()
        .run(&Engine::new(1))
        .expect("valid grid")
        .render_json();

    for threads in [1usize, 4] {
        let sink = Arc::new(MemorySink::new());
        let guard = obs::install(sink.clone());
        let json = mini_spec()
            .run(&Engine::new(threads))
            .expect("valid grid")
            .render_json();
        drop(guard);
        assert_eq!(
            json, baseline,
            "telemetry changed the report at {threads} worker threads"
        );

        // The sidecar stream must satisfy its own invariants: parseable
        // events, exact span nesting, declared metric names.
        let stream = sink.to_jsonl();
        let mut report = commorder::check::CheckReport::new();
        report.extend(commorder::check::check_telemetry(&stream));
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());

        // Every grid cell reports its reorder and all three pipeline
        // phases (trace-gen is explicit when telemetry is on).
        let spans = |name: &str| stream.matches(&format!("\"name\":\"{name}\"")).count();
        assert_eq!(
            spans("grid.job"),
            jobs,
            "one job span per matrix x technique"
        );
        assert_eq!(spans("grid.reorder"), jobs);
        assert_eq!(spans("grid.cell"), cells);
        assert_eq!(spans("pipeline.trace_gen"), cells);
        assert_eq!(spans("pipeline.simulate"), cells);
        assert_eq!(spans("pipeline.model"), cells);
        assert!(stream.contains("\"name\":\"exec.jobs\""));
        assert!(stream.contains("\"name\":\"cachesim.accesses\""));
    }
}

/// Two mini-corpus matrices x two techniques: enough to populate the
/// span tree through reorder, trace-gen, simulate, and model.
fn flame_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale())
        .techniques(vec![Box::new(Original), Box::new(Rabbit::new())]);
    for entry in corpus::mini().into_iter().take(2) {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    spec
}

#[test]
fn folded_flamegraph_is_byte_identical_across_engine_widths() {
    let _serial = obs::tests_serial();
    let mut folded = Vec::new();
    for threads in [1usize, 4] {
        let registry = Arc::new(obs::Registry::new());
        let guard = obs::install(registry.clone());
        flame_spec().run(&Engine::new(threads)).expect("valid grid");
        drop(guard);
        folded.push(registry.render_folded());
    }
    assert!(!folded[0].is_empty(), "profile produced no folded stacks");
    assert_eq!(
        folded[0], folded[1],
        "folded export must not depend on engine width"
    );
    // Collapsed-stack format: `path;path;leaf <count>` per line, paths
    // sorted so the export is goldenable.
    let lines: Vec<&str> = folded[0].lines().collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "folded stacks must be emitted sorted");
    for line in &lines {
        let (_, count) = line.rsplit_once(' ').expect("`stack count` shape");
        count.parse::<u64>().expect("count column is an integer");
    }
}
