//! `BENCHMARK.json` at the repository root names exactly the metrics and
//! workloads this benchmark reports.

use calciom_perfbench::{END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let text = manifest();
    let names = text.matches("\"name\"").count();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            text.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for workload in ["machine_contended", "machine_coordinated", "serve_mixed"] {
        assert!(text.contains(&format!("\"name\": \"{workload}\"")));
    }
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + 3);
}
