//! The benchmark's own tests, on shortened timed phases. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use snap_perfbench::layers::Kind;
use snap_perfbench::report::{end_to_end, per_layer};
use snap_perfbench::{Episode, Mode, Opts, Setup, Workload};

const TINY: f64 = 0.02;

fn episode(w: Workload, seed: u64, mode: Mode) -> Episode {
    w.run(&Opts {
        seed,
        scale: TINY,
        mode,
    })
}

fn assert_clean(w: Workload, e: &Episode) {
    assert!(e.errors.is_empty(), "{}: {:?}", w.name(), e.errors);
    assert!(e.model.attempted > 0, "{}: no ops attempted", w.name());
    assert_eq!(e.model.ok, e.model.attempted, "{}: ops failed", w.name());
    assert!(e.model.pkts > 0 && e.model.lat.samples > 0, "{}", w.name());
}

#[test]
fn every_workload_runs_clean_untraced_traced_and_sampled() {
    for w in Workload::ALL {
        let plain = episode(w, 1, Mode::Untraced);
        assert_clean(w, &plain);
        let traced = episode(w, 1, Mode::Traced);
        assert_clean(w, &traced);
        assert!(traced.spans.get(Kind::Workload).count == 1);
        assert!(w == Workload::DagTcp || traced.spans.passes > 0);
        // The wrappers' resume wakes land in set-up, so the timed phase
        // that passes and allocations are counted in is the untraced one.
        assert_eq!(traced.model, plain.model, "{}: traced drifts", w.name());
        let sampled = episode(w, 1, Mode::Sampled);
        assert_clean(w, &sampled);
        let layers = per_layer(std::slice::from_ref(&plain), &[traced], &sampled);
        let setup = Setup {
            wall_s: 0.1,
            slowness: 1.0,
        };
        let e2e = end_to_end(&[plain], &[setup], 1.0);
        for x in e2e.iter().chain(&layers) {
            assert!(
                x.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                x.name,
                x.value
            );
        }
    }
}

#[test]
fn same_seed_repeats_modeled_metrics_and_counters() {
    for w in Workload::ALL {
        let (a, b) = (episode(w, 5, Mode::Untraced), episode(w, 5, Mode::Untraced));
        assert_eq!(a.model, b.model, "{}: untraced episodes differ", w.name());
        let (a, b) = (episode(w, 5, Mode::Sampled), episode(w, 5, Mode::Sampled));
        assert_eq!(a.model, b.model, "{}: sampled episodes differ", w.name());
        let (a, b) = (episode(w, 5, Mode::Traced), episode(w, 5, Mode::Traced));
        assert_eq!(a.model, b.model, "{}: traced episodes differ", w.name());
        assert_eq!(
            a.spans.passes,
            b.spans.passes,
            "{}: passes differ",
            w.name()
        );
        assert_eq!(
            a.spans.idle_passes,
            b.spans.idle_passes,
            "{}: idle passes differ",
            w.name()
        );
        assert_eq!(a.spans.pending_max, b.spans.pending_max, "{}", w.name());
    }
}

#[test]
fn a_second_seed_passes_every_check() {
    for w in Workload::ALL {
        let e = episode(w, 0xC0FFEE, Mode::Untraced);
        assert_clean(w, &e);
        // `stream` sends the same traffic on every seed.
        if w != Workload::Stream {
            assert_ne!(
                e.model,
                episode(w, 1, Mode::Untraced).model,
                "{}: the seed does not reach the inputs",
                w.name()
            );
        }
    }
}

#[test]
fn wall_rates_and_set_up_are_stated_at_the_reference_speed() {
    let s = snap_perfbench::refload::slowness();
    assert!(s.is_finite() && s > 0.0, "slowness {s}");
    let traced = episode(Workload::Stream, 1, Mode::Traced);
    assert!(traced.slices.iter().all(|x| x.slowness == 0.0));
    let mut e = episode(Workload::Stream, 1, Mode::Untraced);
    assert!(e.setup.slowness > 0.0 && !e.slices.is_empty());
    for x in &mut e.slices {
        assert!(x.slowness > 0.0);
        (x.pkts_per_s, x.ops_per_s, x.slowness) = (100.0, 10.0, 2.0);
    }
    let setup = Setup {
        wall_s: 0.1,
        slowness: 2.0,
    };
    let e2e = end_to_end(&[e], &[setup], 1.0);
    let value = |name: &str| e2e.iter().find(|x| x.name == name).expect(name).value;
    assert_eq!(value("wall_pkts_per_s"), 200.0);
    assert_eq!(value("wall_ops_per_s"), 20.0);
    assert_eq!(value("setup_s"), 0.05);
}

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"')?;
        let close = rest[open + 1..].find('"')?;
        Some(rest[open + 1..open + 1 + close].to_string())
    };
    section
        .split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// The result line of one run of the benchmark binary on a shortened
/// `stream`.
fn result_line(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_snap-perfbench"))
        .args(["--workload", "stream", "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--scale", "0.02"])
        .args(["--spans-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    last
}

/// `"value"` and `"unit"` of metric `name` in a result line.
fn metric<'a>(line: &'a str, name: &str) -> (&'a str, &'a str) {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing"));
    let tail = &line[at + key.len()..];
    let body = &tail[..tail.find('}').expect("closed metric")];
    let (value, unit) = body.split_once(", \"unit\": ").expect("a unit");
    (value, unit.trim_matches('"'))
}

#[test]
fn output_names_every_declared_metric_with_its_unit() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let layers_at = spec.find("\"per_layer\"").expect("per_layer section");
    let e2e_at = spec.find("\"end_to_end\"").expect("end_to_end section");
    let e2e = declared(&spec[e2e_at..layers_at]);
    let layers = declared(&spec[layers_at..]);
    assert_eq!(e2e.len(), 10);
    for (trace, want) in [("0", &e2e), ("1", &layers)] {
        let last = result_line(trace);
        for (name, unit) in want.iter() {
            assert_eq!(metric(&last, name).1, unit, "{name}: unit");
        }
        assert_eq!(
            last.matches("\"value\": ").count(),
            want.len(),
            "extra metrics"
        );
    }
}

/// Allocation counts exist only where the binary installs the counting
/// allocator, so their repeatability is checked through the binary.
/// They may differ by a few allocations per million between processes:
/// the simulator's `HashMap`s hash with per-process random keys, and
/// whether a map grows or rehashes in place depends on where its
/// deleted entries lie. Every other `count` metric must repeat exactly.
#[test]
fn same_seed_repeats_every_count_metric_of_the_traced_run() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let layers = declared(&spec[spec.find("\"per_layer\"").expect("per_layer section")..]);
    let (a, b) = (result_line("1"), result_line("1"));
    let value = |line: &str, name: &str| -> f64 { metric(line, name).0.parse().expect("a number") };
    for name in ["alloc.per_pkt", "alloc.bytes_per_pkt"] {
        let (x, y) = (value(&a, name), value(&b, name));
        assert!(x > 0.0 && (x - y).abs() <= 1e-3 * x, "{name}: {x} vs {y}");
    }
    let exact = layers
        .iter()
        .filter(|(name, unit)| unit == "count" && !name.starts_with("alloc."));
    for (name, _) in exact {
        assert_eq!(metric(&a, name).0, metric(&b, name).0, "{name} differs");
    }
}
