//! The benchmark's deterministic metrics repeat bit for bit under a
//! fixed seed and move under another one. Run with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use datc_e2ebench::{run, workload, Outcome};

fn traced(name: &str, seed: u64) -> Outcome {
    let w = workload(name).expect("workload exists");
    run(w, seed, 1.0, true, None).expect("run passes its correctness gate")
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.get(name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
}

fn assert_seeded(a: &Outcome, b: &Outcome, other: &Outcome, names: &[&str]) {
    for name in names {
        let (x, y, z) = (value(a, name), value(b, name), value(other, name));
        assert_eq!(x.to_bits(), y.to_bits(), "{name} repeats: {x} vs {y}");
        assert_ne!(x, z, "{name} moves with the seed");
    }
}

#[test]
fn tcp_metrics_repeat_under_a_seed() {
    let (a, b, other) = (
        traced("paper_tcp", 7),
        traced("paper_tcp", 7),
        traced("paper_tcp", 8),
    );
    assert_seeded(
        &a,
        &b,
        &other,
        &[
            "force_corr_pct",
            "air_bits_per_chan_s",
            "engine.events_per_session",
        ],
    );
    for o in [&a, &b, &other] {
        assert_eq!(o.failed, 0);
        assert_eq!(value(o, "delivered_pct"), 100.0);
    }
}

#[test]
fn chaos_drops_repeat_under_a_seed() {
    let (a, b, other) = (
        traced("lossy_udp", 7),
        traced("lossy_udp", 7),
        traced("lossy_udp", 8),
    );
    assert_seeded(
        &a,
        &b,
        &other,
        &["chaos.dropped_per_session", "engine.events_per_session"],
    );
    assert!(value(&a, "chaos.dropped_per_session") > 0.0);
}
