//! The benchmark command.
//!
//! ```text
//! snap-perfbench --workload <stream|rack_pony|dag_tcp> --seed <n> \
//!     --seconds <s> --trace <0|1> [--scale <f>] [--spans-dir <dir>]
//! ```
//!
//! Repeats the workload's episode (same seed, same inputs) until
//! `--seconds` of wall time have passed. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced episodes, runs one sampled episode for the modeled stage
//! quantiles, and prints the per-layer metrics, the tracing overhead
//! and the modeled drift, and writes the first traced episode's spans
//! to `<spans-dir>/spans-<workload>-seed<n>.json`. The
//! last line of standard output is the JSON result. Exits 1 if any
//! correctness check failed, 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use snap_perfbench::alloc::CountingAlloc;
use snap_perfbench::report::{drift, end_to_end, peak_rss_mb, per_layer, quantile, result_line};
use snap_perfbench::{Episode, Mode, Opts, Setup, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up-only repetitions after each untraced episode, on top of the
/// episode's own set-up, for the `setup_s` median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    spans_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut spans_dir = ".bench_out".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected stream, rack_pony or dag_tcp"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected seconds >= 0"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--scale" => {
                scale = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 100.0)
                    .ok_or_else(|| bad("expected 0 < scale <= 100"))?
            }
            "--spans-dir" => spans_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        spans_dir,
    })
}

/// Every episode of a run must repeat the first one's modeled results.
fn check_repeats(eps: &[Episode], what: &str, errors: &mut Vec<String>) {
    for (i, e) in eps.iter().enumerate().skip(1) {
        if e.model != eps[0].model {
            errors.push(format!(
                "determinism: {what} episode {i} differs from episode 0 under the same seed"
            ));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snap-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let opts = |mode| Opts {
        seed: args.seed,
        scale: args.scale,
        mode,
    };
    // The first round; peak RSS is read right after its untraced
    // episode, so it covers the same work on every run however many
    // rounds follow.
    let mut untraced: Vec<Episode> = vec![args.workload.run(&opts(Mode::Untraced))];
    let rss_mb = peak_rss_mb();
    let sampled: Option<Episode> = args.trace.then(|| args.workload.run(&opts(Mode::Sampled)));
    let mut traced: Vec<Episode> = Vec::new();
    let mut setups: Vec<Setup> = Vec::new();
    let mut round = Duration::ZERO;
    loop {
        let e = untraced.last().expect("at least one episode");
        setups.push(e.setup);
        if args.trace {
            traced.push(args.workload.run(&opts(Mode::Traced)));
        } else {
            // Extra set-ups spread over the run, so the median does
            // not hang on one moment's machine speed.
            for _ in 0..SETUP_REPS {
                setups.push(args.workload.run(&opts(Mode::SetupOnly)).setup);
            }
        }
        if round.is_zero() {
            round = began.elapsed();
        }
        // Another round only if it fits in the budget.
        if began.elapsed() + round > budget {
            break;
        }
        untraced.push(args.workload.run(&opts(Mode::Untraced)));
    }

    let mut errors: Vec<String> = Vec::new();
    let all = || untraced.iter().chain(&traced).chain(&sampled);
    for e in all() {
        for x in &e.errors {
            let x = format!("{name}: {x}");
            if !errors.contains(&x) {
                errors.push(x);
            }
        }
    }
    check_repeats(&untraced, "untraced", &mut errors);
    check_repeats(&traced, "traced", &mut errors);
    let u = &untraced[0].model;
    if args.scale >= 1.0 && u.lat.beyond_p99 < 10 {
        errors.push(format!(
            "{name}: only {} latency samples beyond p99 (need >= 10)",
            u.lat.beyond_p99
        ));
    }
    let attempted: u64 = all().map(|e| e.model.attempted).sum();
    let failed: u64 = all().map(|e| e.model.failed).sum();

    println!(
        "workload {name} seed {} scale {}: {} untraced + {} traced + {} sampled episodes in {:.2} s",
        args.seed,
        args.scale,
        untraced.len(),
        traced.len(),
        usize::from(sampled.is_some()),
        began.elapsed().as_secs_f64()
    );
    println!(
        "  modeled: {} ops ok of {} attempted, {} pkts, {} events, window {:.3} ms, \
         latency p50 {:.2} us p99 {:.2} us over {} samples ({} beyond p99)",
        u.ok,
        u.attempted,
        u.pkts,
        u.events,
        u.window_ns as f64 / 1e6,
        u.lat.p50_ns as f64 / 1e3,
        u.lat.p99_ns as f64 / 1e3,
        u.lat.samples,
        u.lat.beyond_p99
    );
    let quartiles = |v: &[f64], digits: usize| {
        let q = |p| format!("{:.*}", digits, quantile(v, p));
        format!("{} {} {}", q(0.25), q(0.5), q(0.75))
    };
    let slices: Vec<_> = untraced.iter().flat_map(|e| e.slices.iter()).collect();
    let raw: Vec<f64> = slices.iter().map(|s| s.pkts_per_s).collect();
    let at_ref: Vec<f64> = slices.iter().map(|s| s.at_reference().0).collect();
    let slowness: Vec<f64> = slices.iter().map(|s| s.slowness).collect();
    println!(
        "  wall pkts/s over {} slices, quartiles: {} as measured, {} at the reference \
         speed; host slowness {}; {} late ops",
        slices.len(),
        quartiles(&raw, 0),
        quartiles(&at_ref, 0),
        quartiles(&slowness, 3),
        u.late
    );
    let raw: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    let at_ref: Vec<f64> = setups.iter().map(Setup::at_reference).collect();
    println!(
        "  set-up s over {} set-ups, quartiles: {} as measured, {} at the reference speed",
        setups.len(),
        quartiles(&raw, 6),
        quartiles(&at_ref, 6)
    );
    let metrics = if let Some(sampled) = &sampled {
        for (what, e) in [
            (
                format!("traced ({} engines wrapped)", traced[0].wrapped_engines),
                &traced[0],
            ),
            ("sampled (full trace sampling)".to_string(), sampled),
        ] {
            let diffs = drift(&untraced[0], e);
            println!(
                "  {what} vs untraced modeled drift: {}",
                if diffs.is_empty() { "none" } else { "" }
            );
            for (field, a, b) in &diffs {
                println!("    {field:<22} {a:>16} -> {b:<16} ({:+})", b - a);
            }
        }
        let path = format!("{}/spans-{name}-seed{}.json", args.spans_dir, args.seed);
        let written = std::fs::create_dir_all(&args.spans_dir)
            .and_then(|()| std::fs::write(&path, traced[0].spans.to_chrome_json()));
        match written {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("snap-perfbench: could not write {path}: {e}"),
        }
        per_layer(&untraced, &traced, sampled)
    } else {
        end_to_end(&untraced, &setups, rss_mb)
    };
    for x in &metrics {
        println!("  {:<30} {:>18.6} {}", x.name, x.value, x.unit);
    }
    for e in &errors {
        eprintln!("snap-perfbench: check failed: {e}");
    }
    println!(
        "{}",
        result_line(errors.is_empty(), attempted, failed, &metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
