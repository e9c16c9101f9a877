//! RABBIT's phase spans and counters under an installed registry.
//!
//! The obs dispatcher is process-global, so this test lives in its own
//! binary: any other test running community detection concurrently
//! would add its pass counters to the installed registry.

use std::sync::Arc;

use commorder_obs as obs;
use commorder_reorder::{Rabbit, RandomOrder, Reordering};
use commorder_sparse::CsrMatrix;
use commorder_synth::generators::PlantedPartition;

fn scrambled_sbm() -> CsrMatrix {
    let g = PlantedPartition::uniform(1024, 16, 10.0, 0.03)
        .generate(31)
        .expect("planted partition generates");
    let scramble = RandomOrder::new(17)
        .reorder(&g)
        .expect("random order is a permutation");
    g.permute_symmetric(&scramble)
        .expect("scramble matches the matrix")
}

#[test]
fn rabbit_emits_phase_spans_and_counters() {
    let messy = scrambled_sbm();
    let baseline = Rabbit::new().run(&messy).unwrap();
    let registry = Arc::new(obs::Registry::new());
    let guard = obs::install(registry.clone());
    let observed = Rabbit::new().run(&messy).unwrap();
    drop(guard);
    assert_eq!(
        observed, baseline,
        "telemetry must not change the reordering"
    );
    assert_eq!(
        registry.span("reorder.rabbit").map(|s| s.count),
        Some(1),
        "root span"
    );
    let detect = registry
        .span("reorder.rabbit/community.detect")
        .expect("detect nests under rabbit");
    assert_eq!(detect.count, 1);
    let passes = registry.counter("reorder.community.passes");
    assert!(passes >= 1, "at least one aggregation sweep");
    assert_eq!(
        registry
            .span("reorder.rabbit/community.detect/community.pass")
            .map(|s| s.count),
        Some(passes),
        "one pass span per counted pass"
    );
    assert!(registry.counter("reorder.community.merges") > 0);
    assert_eq!(
        registry
            .span("reorder.rabbit/rabbit.order")
            .map(|s| s.count),
        Some(1)
    );
}
