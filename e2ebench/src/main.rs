//! End-to-end benchmark of the lkp serving and refresh journeys.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every workload runs the program as a user runs it: set-up, fixed-epoch
//! fits each followed by a delta refresh that lands in a live
//! `FrontendDriver`, then an open-loop and a closed-loop serving phase.
//! The workloads differ in size, so each drives one journey: `serve_hot`
//! and `serve_wide` spend their time serving, `train_refresh` fitting and
//! refreshing. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! records spans around the calls into each layer, replays the inputs
//! through each layer's entry points, and prints the per-layer metrics.
//! The last line of standard output is one JSON object.

mod check;
mod host;
mod replay;
mod serve;
mod trace;
mod train;
mod verify;
mod world;

use host::{calibrate, host_cores, median, peak_rss_mib, quantile, Calibration};
use std::time::Instant;
use trace::{Tracer, NO_REQ, ROOT};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Fit + refresh + serving cycles per run. Spreading every journey over the
/// whole run averages the host's speed drift into each run's figures.
const CYCLES: usize = 5;

/// What the metrics keep of each round.
struct RoundTimes {
    fit_s: f64,
    refresh_s: f64,
    fit_cpu_s: f64,
    refresh_cpu_s: f64,
    cpu_s: f64,
    wall_s: f64,
    swap: lkp::serve::SwapReport,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(12.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload serve_hot|serve_wide|train_refresh \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let Some(shape) = world::shape(&args.workload) else {
        eprintln!("e2ebench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let threads = host_cores();
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let ticks_start = host::cpu_ticks();
    let cal_start = calibrate();
    println!(
        "workload {} seed {} seconds {} trace {} host_cores {}",
        shape.name, args.seed, args.seconds, args.trace as u8, threads
    );
    print_calibration("start", cal_start);

    // Set-up, several times; the last world is kept.
    let run_start = Instant::now();
    let mut setup_s = Vec::new();
    let mut world: Option<world::World> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = world.take() {
            drop(old.shutdown());
        }
        let t = Instant::now();
        world = Some(tracer.scope("setup", ROOT, NO_REQ, |_| {
            world::setup(&shape, args.seed, threads)
        }));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");

    // Cycles of one fit + refresh round, then both serving phases.
    let serve_s = shape.serve_share * args.seconds / CYCLES as f64;
    let mut rounds: Vec<RoundTimes> = Vec::new();
    let mut servings = Vec::new();
    let mut last = None;
    let mut next = 0;
    for _ in 0..CYCLES {
        let round = train::round(&world, &tracer);
        let serving = serve::serve(
            &world,
            [&round.artifact_fit, &round.artifact_ref],
            next,
            serve_s * shape.open_share,
            serve_s * (1.0 - shape.open_share),
            &tracer,
        );
        next = serving.next;
        rounds.push(RoundTimes {
            fit_s: round.fit_s,
            refresh_s: round.refresh_s,
            fit_cpu_s: round.fit_cpu_s,
            refresh_cpu_s: round.refresh_cpu_s,
            cpu_s: round.cpu_s,
            wall_s: round.wall_s,
            swap: round.swap,
        });
        servings.push(serving);
        last = Some(round);
    }
    let last = last.expect("at least one cycle");
    let pipeline_s = run_start.elapsed().as_secs_f64();
    let rss = peak_rss_mib();
    let mut frontend = world.shutdown();
    let stats = frontend.stats();

    // Output checks, off the clock. Every round trains bitwise the same
    // models, so the last round's artifacts stand for every generation.
    let artifacts = [&last.artifact_fit, &last.artifact_ref];
    let serve_tally = verify::serving(&world, &servings, artifacts);
    let train_tally = verify::training(&world, &last);
    let attempted = serve_tally.attempted + train_tally.attempted + 2 * rounds.len() as u64;
    let failed = serve_tally.failed + train_tally.failed;
    let correct = serve_tally.mismatches + train_tally.mismatches == 0;
    let lists: Vec<&serve::Served> = servings
        .iter()
        .flat_map(|s| s.open.served.iter().chain(&s.closed.served))
        .collect();
    let (ndcg, cc, quality_n) = verify::quality_at_10(&world, &lists);

    let per_round = |f: fn(&RoundTimes) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let (fit_s, refresh_s) = (per_round(|r| r.fit_s), per_round(|r| r.refresh_s));
    let (fit_cpu_s, refresh_cpu_s) = (per_round(|r| r.fit_cpu_s), per_round(|r| r.refresh_cpu_s));
    let latency_ms: Vec<f64> = servings
        .iter()
        .flat_map(|s| s.open.latency_ms.iter().copied())
        .collect();
    // Each cycle's p50, then their median: a cycle that met a burst of
    // host contention moves the run's figure less than a pooled p50.
    let cycle_p50_ms: Vec<f64> = servings
        .iter()
        .map(|s| quantile(&s.open.latency_ms, 0.5))
        .collect();
    let late_ms: Vec<f64> = servings
        .iter()
        .flat_map(|s| s.open.late_ms.iter().copied())
        .collect();
    let per_req_us = |cpu_s: f64, served: usize| cpu_s / served.max(1) as f64 * 1e6;
    let open_served: usize = servings.iter().map(|s| s.open.completed).sum();
    let open_cpu_s: f64 = servings.iter().map(|s| s.open.cpu_s).sum();
    let closed_served: usize = servings.iter().map(|s| s.closed.completed).sum();
    let closed_cpu_s: f64 = servings.iter().map(|s| s.closed.cpu_s).sum();
    let capacity: Vec<f64> = servings
        .iter()
        .map(|s| s.closed.completed as f64 / s.closed.wall_s.max(1e-9))
        .collect();
    let swaps_under_traffic: usize = servings.iter().map(|s| s.swaps.len()).sum();
    // The result's metrics: figures that hold steady across runs of
    // unchanged code on a shared host. CPU time excludes the time the
    // hypervisor hands to other guests; wall-clock figures moved with that
    // steal by up to 2x between runs (see README.md, "Steadiness").
    let end_to_end = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric(
            "cpu_us_per_req",
            per_req_us(open_cpu_s, open_served),
            "us",
            open_served,
        ),
        metric(
            "saturated_cpu_us_per_req",
            per_req_us(closed_cpu_s, closed_served),
            "us",
            closed_served,
        ),
        metric("peak_rss_mb", rss, "MiB", 1),
        metric("ndcg_at_10", ndcg, "score", quality_n),
        metric("cc_at_10", cc, "score", quality_n),
        metric("fit_cpu_s", median(&fit_cpu_s), "s", fit_cpu_s.len()),
        metric(
            "refresh_cpu_s",
            median(&refresh_cpu_s),
            "s",
            refresh_cpu_s.len(),
        ),
    ];
    // Printed with their sample counts for reference, not in the result.
    let wall_clock = vec![
        metric(
            "latency_p50_ms",
            median(&cycle_p50_ms),
            "ms",
            latency_ms.len(),
        ),
        metric(
            "latency_p99_ms",
            quantile(&latency_ms, 0.99),
            "ms",
            latency_ms.len(),
        ),
        metric("capacity_rps", median(&capacity), "req/s", closed_served),
        metric("fit_s", median(&fit_s), "s", fit_s.len()),
        metric("refresh_s", median(&refresh_s), "s", refresh_s.len()),
    ];
    println!(
        "requests: {} attempted, {} shed, {} expired, {} failed outcome; \
         {} lists checked against the reference MAP; {} check mismatches",
        serve_tally.attempted,
        stats.shed,
        stats.expired,
        stats.failed + stats.panicked,
        serve_tally.map_checked,
        serve_tally.mismatches + train_tally.mismatches
    );
    println!(
        "open loop: {} requests at {} req/s, generator late p50 {:.3} ms p99 {:.3} ms; \
         closed loop: window {}, {} completed; {} swaps under traffic",
        latency_ms.len(),
        shape.open_rate,
        quantile(&late_ms, 0.5),
        quantile(&late_ms, 0.99),
        shape.window,
        closed_served,
        swaps_under_traffic
    );
    for m in &end_to_end {
        println!(
            "{:<24} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &wall_clock {
        println!(
            "{:<24} {:>14.4} {:<6} n={} (wall clock, reference)",
            m.name, m.value, m.unit, m.samples
        );
    }

    let mut report = end_to_end;
    if tracer.enabled() {
        let timed: Vec<(f64, f64)> = rounds
            .iter()
            .map(|r| (r.cpu_s, r.wall_s))
            .chain(servings.iter().flat_map(|s| {
                [
                    (s.open.cpu_s, s.open.wall_s),
                    (s.closed.cpu_s, s.closed.wall_s),
                ]
            }))
            .collect();
        let cpu_per_wall = timed.iter().map(|t| t.0).sum::<f64>()
            / timed.iter().map(|t| t.1).sum::<f64>().max(1e-9);
        let top_level_share = tracer.top_level_s() / pipeline_s;
        let ranker = frontend.ranker();
        let cache = ranker.cache_stats_detailed().aggregate;
        let dual_fallbacks = ranker.dual_fallbacks();
        let shard_fallbacks = ranker.shard_fallbacks();
        let mut swaps: Vec<_> = rounds.iter().map(|r| r.swap).collect();
        swaps.extend(servings.iter().flat_map(|s| s.swaps.iter().map(|x| x.2)));
        let commit_us: Vec<f64> = swaps
            .iter()
            .map(|s| s.commit_pause.as_secs_f64() * 1e6)
            .collect();
        let warmed = swaps.last().map_or(0, |s| s.warmed);
        let submit_us = tracer.durations_us("serve.driver.submit");
        let batch = (stats.served as f64 / stats.batches.max(1) as f64)
            .round()
            .max(1.0) as usize;

        let replay_idxs: Vec<usize> = servings
            .iter()
            .flat_map(|s| s.open.served.iter().map(|r| r.idx))
            .take(4000)
            .collect();
        let sr = tracer.scope("replay.serve", ROOT, NO_REQ, |id| {
            replay::serve(&world, &last.artifact_ref, &replay_idxs, batch, &tracer, id)
        });
        // The stage sum is compared with an untraced fit taken right before
        // the replay, so host drift over the run does not enter the ratio.
        let t = Instant::now();
        lkp::core::Trainer::new(world.train_config.clone()).fit(
            &mut world.model0.clone(),
            &mut train::objective(&world),
            &world.data,
        );
        let reference_fit_s = t.elapsed().as_secs_f64();
        let tr = tracer.scope("replay.train", ROOT, NO_REQ, |id| {
            replay::train(&world, &last, &tracer, id)
        });
        let fit_stage_share = tr.stage_sum_s / reference_fit_s.max(1e-9);
        let spectral = last.report.spectral_cache;
        let spectral_ref = last.refresh.report.spectral_cache;
        let hits = cache.hits as f64;
        let lookups = (cache.hits + cache.misses).max(1) as f64;
        report = vec![
            metric(
                "serve.frontend.batch_size",
                stats.served as f64 / stats.batches.max(1) as f64,
                "req",
                stats.batches as usize,
            ),
            metric(
                "serve.frontend.queue_wait_p50_us",
                stats.latency.p50().as_secs_f64() * 1e6,
                "us",
                stats.latency.count() as usize,
            ),
            metric(
                "serve.frontend.deadline_cuts",
                stats.cuts_deadline as f64,
                "count",
                1,
            ),
            metric(
                "serve.driver.client_wait_us_p99",
                quantile(&submit_us, 0.99),
                "us",
                submit_us.len(),
            ),
            metric(
                "gen.late_p99_ms",
                quantile(&late_ms, 0.99),
                "ms",
                late_ms.len(),
            ),
            metric(
                "serve.ranker.us_per_req",
                sr.ranker_us_per_req,
                "us",
                sr.requests,
            ),
            metric(
                "serve.cache.hit_ratio",
                hits / lookups,
                "ratio",
                lookups as usize,
            ),
            metric("serve.cache.misses", cache.misses as f64, "count", 1),
            metric("serve.cache.bypasses", cache.bypasses as f64, "count", 1),
            metric(
                "serve.ranker.dual_fallbacks",
                dual_fallbacks as f64,
                "count",
                1,
            ),
            metric(
                "serve.ranker.shard_fallbacks",
                shard_fallbacks as f64,
                "count",
                1,
            ),
            metric("serve.swap.stage_ms", sr.stage_ms, "ms", 3),
            metric(
                "serve.swap.commit_us",
                median(&commit_us),
                "us",
                commit_us.len(),
            ),
            metric("serve.swap.warmed", warmed as f64, "count", 1),
            metric(
                "models.score_us_per_req",
                sr.score_us_per_req,
                "us",
                sr.requests,
            ),
            metric(
                "dpp.assemble_us_per_req",
                sr.assemble_us_per_req,
                "us",
                sr.requests,
            ),
            metric(
                "dpp.map_dense_us_per_req",
                sr.map_dense_us_per_req,
                "us",
                sr.requests,
            ),
            metric(
                "dpp.map_dual_us_per_req",
                sr.map_dual_us_per_req,
                "us",
                sr.requests,
            ),
            metric("runtime.cpu_per_wall", cpu_per_wall, "ratio", timed.len()),
            metric(
                "data.plan_ms_per_epoch",
                tr.plan_ms_per_epoch,
                "ms",
                world.train_config.epochs,
            ),
            metric(
                "core.compute_us_per_instance",
                tr.compute_us_per_instance,
                "us",
                1,
            ),
            metric(
                "core.accumulate_us_per_instance",
                tr.accumulate_us_per_instance,
                "us",
                1,
            ),
            metric(
                "linalg.eigen_us_per_instance",
                tr.eigen_us_per_instance,
                "us",
                1,
            ),
            metric("dpp.esp_us_per_instance", tr.esp_us_per_instance, "us", 1),
            metric(
                "models.step_ms_per_epoch",
                tr.step_ms_per_epoch,
                "ms",
                world.train_config.epochs,
            ),
            metric(
                "eval.validate_ms",
                tr.validate_ms,
                "ms",
                world.train_config.epochs,
            ),
            metric("data.merge_delta_ms", tr.merge_delta_ms, "ms", 1),
            metric("data.plan_refresh_ms", tr.plan_refresh_ms, "ms", 1),
            metric(
                "core.update_frozen",
                last.refresh.frozen_instances as f64,
                "count",
                1,
            ),
            metric(
                "core.update_fresh",
                last.refresh.fresh_instances as f64,
                "count",
                1,
            ),
            metric(
                "dpp.spectral_skips",
                (spectral.skips + spectral_ref.skips) as f64,
                "count",
                1,
            ),
            metric(
                "dpp.spectral_warm_starts",
                (spectral.warm_starts + spectral_ref.warm_starts) as f64,
                "count",
                1,
            ),
            metric(
                "serve.artifact.refresh_from_ms",
                tr.refresh_from_ms,
                "ms",
                1,
            ),
            metric("trace.top_level_share", top_level_share, "ratio", 1),
            metric("trace.fit_stage_share", fit_stage_share, "ratio", 1),
        ];
        for m in &report {
            println!(
                "{:<36} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let path = std::path::PathBuf::from(".e2ebench")
            .join(format!("trace-{}-seed{}.jsonl", shape.name, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    print_calibration("end", calibrate());
    let ticks_end = host::cpu_ticks();
    println!(
        "host steal during the run: {:.1}% of CPU time",
        100.0 * (ticks_end.0 - ticks_start.0) as f64 / (ticks_end.1 - ticks_start.1).max(1) as f64
    );

    let metrics: Vec<String> = report
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn print_calibration(when: &str, c: Calibration) {
    println!(
        "host calibration ({when}): scalar {:.3} ns/iter, stream {:.2} GB/s",
        c.scalar_ns, c.stream_gbps
    );
}

/// A JSON number with every digit Rust prints (non-finite values as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}
