//! The repository benchmark for the SAP service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <qos_mix|bulk_tcp|paper_ica> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` before the clock starts and
//! offered to a `SapServer` through its public API. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload for the
//! server-side counters, then replays sample sessions through each
//! layer's public functions and reports the per-layer metrics. Both print
//! a table of every metric with its unit and sample count, then one JSON
//! result line. See `perfbench/README.md`.

mod check;
mod inputs;
mod replay;
mod report;
mod schedule;
mod stats;
mod workload;

use check::{check_outcome, committed_digest, git_commit, outcome_digest, source_digest, Fnv};
use replay::{replay_session, with_link, Link, Replay, LINK_IDS};
use report::{json_line, table, Metric, Verdict};
use sap_core::runtime::QosClass;
use sap_net::tcp::local_mesh;
use sap_net::{InMemoryHub, Transport};
use sap_server::{LatencyHistogram, SapServer, ServerMetrics};
use stats::{mean, median, ratio, tail_percentile, Latencies};
use std::process::ExitCode;
use workload::{
    canary_inputs, run, server_config, Kind, Plan, RunResult, SessionRecord, LAG_LIMIT_MS, SLICES,
};

/// Committed outcome digests: a canary per workload, checked by every
/// run, and the combined digest of the documented seeds' runs. A change
/// that alters what the program outputs fails them until this file is
/// updated.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    format!("unknown workload '{value}' (qos_mix|bulk_tcp|paper_ica)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The source digest identifies the program measured, also in a
    // checkout that is not a repository or has uncommitted changes.
    let source = format!("{:016x}", source_digest());
    let commit = git_commit().unwrap_or_else(|| "none".into());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# perfbench commit={commit} source={source} host_cores={cores} workload={} seed={} seconds={} trace={} params=[{}]",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.kind.params()
    );

    let plan = Plan::generate(args.kind, args.seed, args.seconds);
    let result = match args.kind {
        Kind::BulkTcp => run(
            &plan,
            || SapServer::local_tcp(server_config(args.kind)).expect("localhost tcp server"),
            args.seconds,
        ),
        Kind::QosMix | Kind::PaperIca => run(
            &plan,
            || SapServer::in_memory(server_config(args.kind)).expect("in-memory server"),
            args.seconds,
        ),
    };
    let mut errors = result.errors.clone();
    errors.extend(check_reference(&plan, &result));
    let combined = combined_digest(&result);
    let run_key = [
        "run",
        args.kind.name(),
        &args.seed.to_string(),
        &args.seconds.to_string(),
    ];
    match committed_digest(DIGESTS, &run_key) {
        Some(d) if d != combined => errors.push(format!(
            "outcome digest {combined:016x} differs from {d:016x}, committed for this workload, seed and length"
        )),
        _ => {}
    }
    let canary = canary_digest(args.kind);
    match (
        &canary,
        committed_digest(DIGESTS, &["canary", args.kind.name()]),
    ) {
        (Ok(c), Some(d)) if *c == d => {}
        (Ok(c), Some(d)) => errors.push(format!(
            "canary digest {c:016x} differs from the committed {d:016x}"
        )),
        (Ok(c), None) => errors.push(format!("no canary digest committed (this run's: {c:016x})")),
        (Err(e), _) => errors.push(e.clone()),
    }
    if result.records.is_empty() {
        errors.push("no session was attempted in the measured window".into());
    }
    let lag = lag_p99_ms(&result);
    if args.kind == Kind::QosMix && lag > LAG_LIMIT_MS {
        errors.push(format!(
            "invalid run: the generator fell behind its schedule (lateness p99 {lag:.1} ms > {LAG_LIMIT_MS} ms)"
        ));
    }

    let metrics = if args.trace {
        per_layer(&plan, &result)
    } else {
        end_to_end(&plan, &result)
    };
    let verdict = Verdict {
        correct: errors.is_empty(),
        attempted: result.records.len(),
        failed: result.failed(),
    };
    for e in &errors {
        println!("# check failed: {e}");
    }
    println!("# outcome digest {combined:016x}");
    if let Ok(c) = canary {
        println!("# canary digest {c:016x}");
    }
    print!("{}", table(&metrics));
    println!("{}", json_line(&verdict, &metrics));
    ExitCode::SUCCESS
}

/// One digest over every input's first outcome, in input order.
fn combined_digest(result: &RunResult) -> u64 {
    let mut h = Fnv::default();
    for (&i, &d) in &result.digests {
        h.word(i as u64);
        h.word(d);
    }
    h.finish()
}

/// Re-runs the reference inputs through a solo `run_session` on the
/// in-memory hub (off the clock) and compares digests: the server must
/// produce byte-identical outcomes.
fn check_reference(plan: &Plan, result: &RunResult) -> Vec<String> {
    let mut errors = Vec::new();
    for &i in &plan.reference {
        let input = &plan.inputs[i];
        let Some(&served) = result.digests.get(&i) else {
            continue;
        };
        match sap_core::run_session(input.locals.clone(), &input.config) {
            Ok(o) if outcome_digest(&o) == served => {}
            Ok(_) => errors.push(format!(
                "input {i} ({}): server outcome differs from the solo reference",
                input.shape.name()
            )),
            Err(e) => errors.push(format!("reference session {i} failed: {e}")),
        }
    }
    errors
}

/// Runs the workload's canary inputs through a solo `run_session` (off
/// the clock) and folds their outcome digests into one.
fn canary_digest(kind: Kind) -> Result<u64, String> {
    let mut h = Fnv::default();
    for input in canary_inputs(kind) {
        let outcome = sap_core::run_session(input.locals.clone(), &input.config)
            .map_err(|e| format!("canary session failed: {e}"))?;
        check_outcome(&input, &outcome).map_err(|e| format!("canary: {e}"))?;
        h.word(outcome_digest(&outcome));
    }
    Ok(h.finish())
}

fn lag_p99_ms(result: &RunResult) -> f64 {
    let mut lag = Latencies::default();
    for r in &result.records {
        lag.record(Some(r.lag_s));
    }
    lag.percentile(0.99) * 1e3
}

/// Latencies of the records selected by `keep`: per slice of the run and
/// over the whole run.
struct Group {
    slices: Vec<Latencies>,
    whole: Latencies,
}

fn group(result: &RunResult, keep: impl Fn(usize) -> bool) -> Group {
    let mut g = Group {
        slices: vec![Latencies::default(); SLICES],
        whole: Latencies::default(),
    };
    for r in result.records.iter().filter(|r| keep(r.input)) {
        g.slices[r.slice].record(r.latency_s);
        g.whole.record(r.latency_s);
    }
    g
}

/// The median over the whole run, not per window: on `paper_ica`, whose
/// sessions fall into one cost mode per dataset, the median of a window of
/// 12 or 24 sessions sits on the edge of a mode and moves with it.
fn p50_metric(name: &'static str, g: &Group) -> Metric {
    Metric::new(
        name,
        g.whole.percentile(0.5) * 1e3,
        "ms",
        format!("n={}, {} missed", g.whole.attempted(), g.whole.misses()),
    )
}

/// A tail percentile: the median of the run's slices when each slice holds
/// ten samples beyond it, else over the whole run; the table flags one
/// with fewer than ten beyond.
fn tail_metric(name: &'static str, g: &Group, q: f64) -> Metric {
    let (value, slices) = tail_percentile(&g.slices, &g.whole, q);
    let beyond = if slices > 1 {
        g.slices.iter().map(|t| t.beyond(q)).min().unwrap_or(0)
    } else {
        g.whole.beyond(q)
    };
    Metric::new(
        name,
        value * 1e3,
        "ms",
        format!(
            "n={} in {slices} slices ({beyond} beyond p{} in each{}), {} missed",
            g.whole.attempted(),
            q * 100.0,
            if beyond < 10 { ", FEWER THAN 10" } else { "" },
            g.whole.misses()
        ),
    )
}

fn end_to_end(plan: &Plan, result: &RunResult) -> Vec<Metric> {
    let class = |c: QosClass| group(result, |i| plan.inputs[i].class() == c);
    let interactive = class(QosClass::Interactive);
    let batch = class(QosClass::Batch);
    let primary = group(result, |i| plan.is_primary(i));
    let primary_rows: usize = result
        .records
        .iter()
        .filter(|r| r.latency_s.is_some() && plan.is_primary(r.input))
        .map(|r| plan.inputs[r.input].rows)
        .sum();
    let primary_done = primary.whole.completed().len();
    // Quality is the primaries' own: the closed loops' probes are filler.
    let reports: Vec<&(f64, f64)> = result
        .reports
        .iter()
        .filter(|(&i, _)| plan.is_primary(i))
        .flat_map(|(_, r)| r)
        .collect();
    let rho: Vec<f64> = reports.iter().map(|r| r.0).collect();
    let satisfaction: Vec<f64> = reports.iter().map(|r| r.1).collect();
    let accuracy: Vec<f64> = result.knn.values().map(|a| a.0).collect();
    let queries: usize = result.knn.values().map(|a| a.1).sum();
    vec![
        Metric::new(
            "setup_s",
            median(&result.setup_s),
            "s",
            format!("n={} (median)", result.setup_s.len()),
        ),
        p50_metric("interactive_p50_ms", &interactive),
        tail_metric("interactive_p99_ms", &interactive, 0.99),
        p50_metric("batch_p50_ms", &batch),
        tail_metric("batch_p90_ms", &batch, 0.9),
        Metric::new(
            "rows_per_s",
            ratio(primary_rows as f64, result.busy_s),
            "1/s",
            format!("{primary_rows} rows in {:.3} s", result.busy_s),
        ),
        Metric::new(
            "sessions_per_s",
            ratio(primary_done as f64, result.busy_s),
            "1/s",
            format!("{primary_done} sessions in {:.3} s", result.busy_s),
        ),
        Metric::new("peak_rss_mib", result.peak_rss_mib, "MiB", "n=1 (VmHWM)"),
        Metric::new(
            "rho_local_mean",
            mean(&rho),
            "sd",
            format!("n={} reports", rho.len()),
        ),
        Metric::new(
            "satisfaction_mean",
            mean(&satisfaction),
            "ratio",
            format!("n={} reports", satisfaction.len()),
        ),
        Metric::new(
            "knn_accuracy",
            mean(&accuracy),
            "ratio",
            format!("n={queries} queries over {} sessions", accuracy.len()),
        ),
    ]
}

fn hist_ms(name: &'static str, h: &LatencyHistogram, q: f64) -> Metric {
    Metric::new(
        name,
        h.percentile(q).as_secs_f64() * 1e3,
        "ms",
        format!("n={} (server histogram)", h.count()),
    )
}

fn per_layer(plan: &Plan, result: &RunResult) -> Vec<Metric> {
    // The measured server is built fresh for the measured window, which
    // its histograms (which cannot be differenced) thus hold alone. Only
    // primary sessions run on it; closed-loop probes run elsewhere.
    let (before, after) = &result.metrics;
    let hist = &after.latency_histogram;
    let primaries: Vec<&SessionRecord> = result
        .records
        .iter()
        .filter(|r| plan.is_primary(r.input))
        .collect();
    let per_session = |a: u64, b: u64| ratio((b - a) as f64, primaries.len() as f64);
    let n = format!("n={} primary sessions", primaries.len());
    // A server counter's growth over the measured window.
    let count = |name: &'static str, field: fn(&ServerMetrics) -> u64| {
        Metric::new(
            name,
            (field(after) - field(before)) as f64,
            "count",
            n.clone(),
        )
    };
    let submit: Vec<f64> = primaries.iter().map(|r| r.submit_s * 1e6).collect();
    let service_s: f64 = [&hist.interactive.service, &hist.batch.service]
        .iter()
        .map(|h| h.mean().as_secs_f64() * h.count() as f64)
        .sum();
    let primary: Vec<f64> = primaries.iter().filter_map(|r| r.latency_s).collect();
    let failed = result.failed();
    let slots = plan.kind.gang_slots();

    let replay = run_replay(plan);
    let per = |s: f64| s / replay.sessions.max(1) as f64;
    let rn = format!("n={} replayed sessions", replay.sessions);
    let step_ms = |name: &'static str, step: &str| {
        Metric::new(name, per(replay.step(step)) * 1e3, "ms", rn.clone())
    };
    let transport_s = replay.step("transport.send_recv");
    let mut metrics = vec![
        hist_ms(
            "runtime.interactive_queue_wait_p99_ms",
            &hist.interactive.queue_wait,
            0.99,
        ),
        hist_ms(
            "runtime.batch_queue_wait_p90_ms",
            &hist.batch.queue_wait,
            0.9,
        ),
        hist_ms(
            "runtime.interactive_service_p50_ms",
            &hist.interactive.service,
            0.5,
        ),
        hist_ms("runtime.batch_service_p50_ms", &hist.batch.service, 0.5),
        count("runtime.task_steals", |m| m.task_steals),
        count("runtime.gangs_promoted", |m| m.gangs_promoted),
        Metric::new(
            "server.submit_us",
            median(&submit),
            "us",
            format!("n={} (median)", submit.len()),
        ),
        count("server.sessions_shed", |m| m.sessions_shed),
        step_ms("privacy.engine_run_ms", "privacy.engine_run"),
        Metric::new(
            "privacy.cheap_stage_ms",
            per(replay.cheap_stage_s) * 1e3,
            "ms",
            rn.clone(),
        ),
        Metric::new(
            "privacy.expensive_stage_ms",
            per(replay.expensive_stage_s) * 1e3,
            "ms",
            rn.clone(),
        ),
        step_ms("privacy.evaluate_ms", "privacy.evaluate"),
        Metric::new(
            "privacy.pruned_share",
            ratio(replay.pruned as f64, replay.candidates as f64),
            "ratio",
            format!("{} of {} candidates", replay.pruned, replay.candidates),
        ),
        Metric::new(
            "privacy.ica_applied_share",
            ratio(replay.ica_applied as f64, replay.survivors as f64),
            "ratio",
            format!("{} of {} survivors", replay.ica_applied, replay.survivors),
        ),
        step_ms("perturb.noise_sample_ms", "perturb.noise_sample"),
        step_ms("perturb.records_ms", "perturb.records"),
        Metric::new(
            "perturb.adaptor_us",
            per(replay.step("perturb.adaptor")) * 1e6,
            "us",
            rn.clone(),
        ),
        step_ms("perturb.adapt_ms", "perturb.adapt"),
        step_ms("link.encode_ms", "link.encode"),
        step_ms("frame.seal_ms", "frame.seal"),
        step_ms("frame.open_ms", "frame.open"),
        step_ms("stream.decode_ms", "stream.decode"),
        Metric::new(
            "frame.sealed_bytes_per_row",
            ratio(replay.sealed_bytes as f64, replay.rows as f64),
            "B/row",
            format!("{} bytes, {} rows", replay.sealed_bytes, replay.rows),
        ),
        step_ms("datasets.partition_ms", "datasets.partition"),
        step_ms("datasets.to_column_ms", "datasets.to_column"),
        step_ms("datasets.concat_ms", "datasets.concat"),
        Metric::new(
            "transport.mibps",
            ratio(replay.sealed_bytes as f64 / (1024.0 * 1024.0), transport_s),
            "MiB/s",
            format!("{} frames", replay.frames),
        ),
        Metric::new(
            "transport.frame_us",
            ratio(transport_s, replay.frames as f64) * 1e6,
            "us",
            format!("{} frames", replay.frames),
        ),
        Metric::new(
            "net.frames_routed",
            per_session(before.frames_routed, after.frames_routed),
            "count/session",
            n.clone(),
        ),
        Metric::new(
            "net.bytes_sealed",
            per_session(before.bytes_sealed, after.bytes_sealed),
            "B/session",
            n.clone(),
        ),
        count("net.shed_frames", |m| m.shed_frames),
        count("net.unknown_session_dropped", |m| m.unknown_session_dropped),
        Metric::new(
            "stream.pipelined_share",
            ratio(
                (after.blocks_pipelined - before.blocks_pipelined) as f64,
                (after.blocks_relayed - before.blocks_relayed) as f64,
            ),
            "ratio",
            format!(
                "{} blocks relayed",
                after.blocks_relayed - before.blocks_relayed
            ),
        ),
        Metric::new(
            "stream.overlap_ratio",
            after.overlap_ratio_avg,
            "ratio",
            "server mean",
        ),
        step_ms("mining.train_ms", "mining.train"),
        Metric::new(
            "mining.query_us",
            ratio(replay.step("mining.query"), replay.queries as f64) * 1e6,
            "us",
            format!("{} queries", replay.queries),
        ),
        Metric::new(
            "harness.generator_lag_p99_ms",
            lag_p99_ms(result),
            "ms",
            n.clone(),
        ),
        Metric::new(
            "harness.utilization",
            ratio(service_s, result.wall_s * slots as f64),
            "ratio",
            format!("{slots} gang slots over {:.3} s", result.wall_s),
        ),
        Metric::new(
            "harness.failed_ratio",
            ratio(failed as f64, result.records.len() as f64),
            "ratio",
            format!("{failed} of {}", result.records.len()),
        ),
        Metric::new(
            "harness.replay_total_ms",
            per(replay.session_total()) * 1e3,
            "ms",
            rn.clone(),
        ),
        Metric::new(
            "harness.untraced_service_ms",
            mean(&primary) * 1e3,
            "ms",
            format!("n={} primary sessions", primary.len()),
        ),
    ];
    let layers = replay.layers();
    for (layer, name) in [
        ("privacy", "privacy.share"),
        ("perturb", "perturb.share"),
        ("link", "link.share"),
        ("frame", "frame.share"),
        ("stream", "stream.share"),
        ("transport", "transport.share"),
        ("datasets", "datasets.share"),
    ] {
        let s = layers.get(layer).copied().unwrap_or(0.0);
        metrics.push(Metric::new(
            name,
            ratio(s, replay.session_total()),
            "ratio",
            rn.clone(),
        ));
    }
    metrics
}

/// Sessions the traced run replays: the first of the open-loop schedule,
/// the first primaries of a closed loop (one per paper dataset).
const REPLAY_OPEN_SESSIONS: usize = 20;
const REPLAY_CLOSED_SESSIONS: usize = 3;

fn run_replay(plan: &Plan) -> Replay {
    let picks: Vec<usize> = match &plan.schedule {
        workload::Schedule::Open { .. } => {
            (0..REPLAY_OPEN_SESSIONS.min(plan.inputs.len())).collect()
        }
        workload::Schedule::Closed { primaries, .. } => {
            primaries[..primaries.len().min(REPLAY_CLOSED_SESSIONS)].to_vec()
        }
    };
    match plan.kind {
        Kind::BulkTcp => {
            let mut mesh = local_mesh(&LINK_IDS).expect("replay tcp link");
            let to = mesh.pop().expect("two lanes");
            let from = mesh.pop().expect("two lanes");
            with_link(from, to, |link| replay_all(plan, &picks, link))
        }
        Kind::QosMix | Kind::PaperIca => {
            let hub = InMemoryHub::new();
            with_link(
                hub.endpoint(LINK_IDS[0]),
                hub.endpoint(LINK_IDS[1]),
                |link| replay_all(plan, &picks, link),
            )
        }
    }
}

fn replay_all<T: Transport>(plan: &Plan, picks: &[usize], link: &Link<T>) -> Replay {
    let mut replay = Replay::default();
    for &i in picks {
        replay_session(&plan.inputs[i], link, &mut replay);
    }
    replay
}
