//! The three workloads and the loops that drive them through the public
//! `SapServer` API, with tracing off.

use crate::check::{check_outcome, outcome_digest, peak_rss_mib};
use crate::inputs::{SessionInput, Shape};
use crate::schedule::{derive, poisson};
use sap_core::mining::{ClassificationClient, MiningService, ModelKind};
use sap_core::runtime::SessionStatus;
use sap_core::session::SapOutcome;
use sap_core::SapError;
use sap_datasets::{Dataset, UciDataset};
use sap_net::{SessionId, Transport};
use sap_server::{SapServer, ServerConfig, ServerError, ServerMetrics};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate of `qos_mix`, sessions per second. Fixed: the
/// offered load never depends on how fast the program is.
pub const QOS_RATE_PER_S: f64 = 42.0;
/// Share of `qos_mix` arrivals that are batch sessions.
pub const QOS_BATCH_SHARE: f64 = 0.2;
/// Interactive probes the closed-loop client submits at once, as one
/// burst, after each primary session. Every round of the shortest run has
/// its own: with the same few probes in every pass, the p99 was the cost
/// of the seed's few slowest probe inputs. The probes are synthetic
/// traffic: the closed loops have no interactive sessions of their own,
/// yet every run must report every end-to-end metric. They run on the
/// warm-up server, so the measured server's counters hold the primaries
/// alone. A burst turns their latency into the turnaround of a queue of
/// small sessions: a lone session of about 2 ms has a p99 made of the
/// host's scheduling hiccups, which moved it 2.6–8.5 ms between runs, and
/// bursts of 16 still left `bulk_tcp`'s p99 spread by 0.53 over five seeds.
pub const PROBES_PER_ROUND: usize = 32;
/// Fewest rounds a closed-loop run measures: 100 primaries leave 10
/// sessions beyond p90, and their 3,200 probes 32 beyond p99.
pub const MIN_ROUNDS: usize = 100;
/// Longest a closed loop keeps going past `--seconds` to reach
/// [`MIN_ROUNDS`].
const MAX_CLOSED: Duration = Duration::from_secs(120);
/// Distinct bulk inputs `bulk_tcp` cycles through: the quality metrics
/// average their reports, and with three inputs (12 reports) the mean
/// satisfaction moved by 10% from seed to seed.
pub const BULK_INPUTS: usize = 10;
/// The paper datasets `paper_ica` cycles through: an odd count with well
/// separated session costs, so the median falls inside one dataset's mode
/// (Wine's, about 200–260 ms, between Diabetes' and Shuttle's).
pub const PAPER_CYCLE: [UciDataset; 3] =
    [UciDataset::Diabetes, UciDataset::Wine, UciDataset::Shuttle];
/// Seeded variants of each paper dataset per pass. A Wine session's cost
/// depends on its data (from 190 to 260 ms between variants), so the
/// median averages over many of them: with four, it moved by up to 12%
/// from seed to seed. Twelve make a pass of 36, three passes the shortest
/// run.
pub const PAPER_VARIANTS: usize = 12;
/// Server constructions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// Closed-loop primaries re-run as a solo reference after the clock.
const REFERENCE_PRIMARIES: usize = 3;
/// `qos_mix` interactive sessions whose outcomes train the KNN accuracy
/// check (small, so scoring them never delays the collector).
const QOS_KNN_SESSIONS: usize = 24;
/// Generator lateness (p99, ms) past which an open-loop run is invalid.
pub const LAG_LIMIT_MS: f64 = 20.0;
/// Slices a run is cut into: equal thirds of the open-loop schedule, or
/// equal runs of closed-loop passes. A tail percentile is the median of
/// the slices' when each holds ten samples beyond it.
pub const SLICES: usize = 3;
/// Poll period of the completion collector (open loop and bursts).
const POLL: Duration = Duration::from_micros(250);

/// Seed streams of [`derive`].
const STREAM_SESSION: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_CANARY: u64 = 3;
/// Seed of the canary inputs, the same in every run.
const CANARY_SEED: u64 = 0xCA7A_2B1D;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop Poisson mix of interactive and batch sessions (hub).
    QosMix,
    /// Closed loop of bulk sessions over localhost TCP lanes.
    BulkTcp,
    /// Closed loop of paper-configuration sessions with ICA (hub).
    PaperIca,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::QosMix, Kind::BulkTcp, Kind::PaperIca];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::QosMix => "qos_mix",
            Kind::BulkTcp => "bulk_tcp",
            Kind::PaperIca => "paper_ica",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Gangs the server's pool runs at once. `qos_mix` gets two, so an
    /// interactive session shares the cores with a running batch session
    /// instead of queueing behind it: with one, a host slowed by a CPU hog
    /// raised its batch p90 1.6–1.9× and interactive p50 2.0–2.5×, against
    /// 1.2–1.35× and 1.5–1.8× with two, and over ten seeds on a drifting
    /// host their spreads were 0.52 and 0.29 against 0.24 and 0.17. A
    /// closed loop has one primary in flight and keeps one, so its probe
    /// bursts queue rather than share the cores with each other.
    pub fn gang_slots(self) -> usize {
        match self {
            Kind::QosMix => 2,
            Kind::BulkTcp | Kind::PaperIca => 1,
        }
    }

    /// Providers per session (the server's lanes).
    pub fn providers(self) -> usize {
        match self {
            Kind::QosMix => Shape::Interactive.providers(),
            Kind::BulkTcp => Shape::Bulk.providers(),
            Kind::PaperIca => Shape::Paper(PAPER_CYCLE[0]).providers(),
        }
    }

    /// The workload's fixed parameters, for the result stamp.
    pub fn params(self) -> String {
        match self {
            Kind::QosMix => format!(
                "open loop, poisson {QOS_RATE_PER_S}/s, {}% batch, hub, {} gang slots",
                QOS_BATCH_SHARE * 100.0,
                self.gang_slots()
            ),
            Kind::BulkTcp => format!(
                "closed loop, 1 client, tcp, {BULK_INPUTS} bulk inputs x 160000 rows x 16 dims, \
                 burst of {PROBES_PER_ROUND} interactive probes per round, >= {MIN_ROUNDS} rounds"
            ),
            Kind::PaperIca => format!(
                "closed loop, 1 client, hub, cycle {} x {PAPER_VARIANTS} variants, \
                 burst of {PROBES_PER_ROUND} interactive probes per round, >= {MIN_ROUNDS} rounds",
                PAPER_CYCLE.map(UciDataset::name).join("/")
            ),
        }
    }
}

/// One input of each shape `kind` runs, generated from a fixed seed: any
/// run, whatever its `--seed`, checks that they still produce the
/// committed canary digest.
pub fn canary_inputs(kind: Kind) -> Vec<SessionInput> {
    let shapes: Vec<Shape> = match kind {
        Kind::QosMix => vec![Shape::Interactive, Shape::Batch],
        Kind::BulkTcp => vec![Shape::Bulk, Shape::Interactive],
        Kind::PaperIca => PAPER_CYCLE
            .map(Shape::Paper)
            .into_iter()
            .chain([Shape::Interactive])
            .collect(),
    };
    shapes
        .iter()
        .enumerate()
        .map(|(j, &s)| SessionInput::generate(s, derive(CANARY_SEED, STREAM_CANARY, j as u64)))
        .collect()
}

/// How sessions are offered to the server.
pub enum Schedule {
    /// Input `i` is submitted at `due[i]` after the start, whatever the
    /// server's progress.
    Open {
        /// Due times, one per input.
        due: Vec<Duration>,
    },
    /// One client runs rounds of one primary session followed by a burst
    /// of [`PROBES_PER_ROUND`] probes submitted at once, in whole passes
    /// over `primaries`: round `r` runs `primaries[r % primaries.len()]`
    /// on the measured server, then burst `r % bursts` of `probes` (in
    /// chunks of [`PROBES_PER_ROUND`]) on the warm-up server. There is a
    /// burst for every round of [`MIN_ROUNDS`] rounded up to whole passes,
    /// so every run submits every input.
    Closed {
        /// Input indices of the primary sessions.
        primaries: Vec<usize>,
        /// Input indices of the interactive probes.
        probes: Vec<usize>,
    },
}

/// A workload's generated inputs and schedule.
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Every measured session's inputs.
    pub inputs: Vec<SessionInput>,
    /// How they are offered.
    pub schedule: Schedule,
    /// Off-clock sessions: the first is the setup probe, all of them warm
    /// the process before the clock starts.
    pub warmups: Vec<SessionInput>,
    /// Inputs whose outcome is compared with a solo `run_session`.
    pub reference: Vec<usize>,
    /// Inputs whose outcome trains the KNN accuracy check.
    pub knn: Vec<usize>,
}

impl Plan {
    /// Generates every input of `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Plan {
        let session = |shape: Shape, i: usize| {
            SessionInput::generate(shape, derive(seed, STREAM_SESSION, i as u64))
        };
        let warm =
            |shape: Shape, i: u64| SessionInput::generate(shape, derive(seed, STREAM_WARMUP, i));
        match kind {
            Kind::QosMix => {
                let arrivals = poisson(
                    seed,
                    QOS_RATE_PER_S,
                    Duration::from_secs(seconds),
                    QOS_BATCH_SHARE,
                );
                let inputs: Vec<SessionInput> = arrivals
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        session(
                            if a.batch {
                                Shape::Batch
                            } else {
                                Shape::Interactive
                            },
                            i,
                        )
                    })
                    .collect();
                let first_batch = inputs.iter().position(|x| x.shape == Shape::Batch);
                let reference = [Some(0), Some(1), first_batch]
                    .into_iter()
                    .flatten()
                    .collect();
                Plan {
                    kind,
                    knn: (0..inputs.len())
                        .filter(|&i| inputs[i].shape == Shape::Interactive)
                        .take(QOS_KNN_SESSIONS)
                        .collect(),
                    reference,
                    inputs,
                    schedule: Schedule::Open {
                        due: arrivals.iter().map(|a| a.at).collect(),
                    },
                    warmups: vec![
                        warm(Shape::Interactive, 0),
                        warm(Shape::Batch, 1),
                        warm(Shape::Interactive, 2),
                        warm(Shape::Interactive, 3),
                    ],
                }
            }
            Kind::BulkTcp | Kind::PaperIca => {
                let primary_shapes: Vec<Shape> = if kind == Kind::BulkTcp {
                    vec![Shape::Bulk; BULK_INPUTS]
                } else {
                    (0..PAPER_VARIANTS)
                        .flat_map(|_| PAPER_CYCLE.map(Shape::Paper))
                        .collect()
                };
                let mut inputs: Vec<SessionInput> = primary_shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| session(s, i))
                    .collect();
                let primaries: Vec<usize> = (0..inputs.len()).collect();
                let rounds = MIN_ROUNDS.div_ceil(primaries.len()) * primaries.len();
                let probes: Vec<usize> =
                    (inputs.len()..inputs.len() + rounds * PROBES_PER_ROUND).collect();
                inputs.extend(probes.iter().map(|&i| session(Shape::Interactive, i)));
                let mut reference = primaries[..primaries.len().min(REFERENCE_PRIMARIES)].to_vec();
                reference.push(probes[0]);
                Plan {
                    kind,
                    knn: primaries.clone(),
                    reference,
                    inputs,
                    schedule: Schedule::Closed { primaries, probes },
                    warmups: vec![warm(Shape::Interactive, 0)],
                }
            }
        }
    }

    /// Whether input `i` is one of the workload's primary sessions (every
    /// session of an open loop).
    pub fn is_primary(&self, i: usize) -> bool {
        match &self.schedule {
            Schedule::Open { .. } => true,
            Schedule::Closed { primaries, .. } => primaries.contains(&i),
        }
    }
}

/// Builds the workload's server configuration: lanes for its providers,
/// a pool of [`Kind::gang_slots`] gangs, admission that never sheds.
pub fn server_config(kind: Kind) -> ServerConfig {
    let providers = kind.providers();
    ServerConfig {
        max_parties: providers,
        max_concurrent: 8192,
        max_queued: 8192,
        worker_threads: kind.gang_slots() * (providers + 1),
        reap_after: Duration::from_secs(3600),
        max_session_age: Duration::from_secs(3600),
        ..ServerConfig::default()
    }
}

/// One measured session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Index into [`Plan::inputs`].
    pub input: usize,
    /// Latency from the scheduled (open) or submitted (closed) instant to
    /// the outcome; `None` when the session failed or was shed.
    pub latency_s: Option<f64>,
    /// Time spent inside `SapServer::submit`.
    pub submit_s: f64,
    /// How late the generator submitted it (open loop; zero otherwise).
    pub lag_s: f64,
    /// The slice of the run it belongs to, one of [`SLICES`].
    pub slice: usize,
}

/// Everything a workload run measured.
pub struct RunResult {
    /// Construction-through-first-session times, one per repeat.
    pub setup_s: Vec<f64>,
    /// Measured sessions, in completion order.
    pub records: Vec<SessionRecord>,
    /// Open loop: schedule start to the last outcome. Closed loop: the
    /// primary sessions' summed latency.
    pub busy_s: f64,
    /// Wall time of the measured window.
    pub wall_s: f64,
    /// Server counters when the clock started and when it stopped.
    pub metrics: (ServerMetrics, ServerMetrics),
    /// Process high-water mark at the end of the measured window.
    pub peak_rss_mib: f64,
    /// Digest of each input's first outcome.
    pub digests: BTreeMap<usize, u64>,
    /// Per-provider `(rho_local, satisfaction)` of each input's first outcome.
    pub reports: BTreeMap<usize, Vec<(f64, f64)>>,
    /// KNN accuracy and query count of each [`Plan::knn`] input's outcome.
    pub knn: BTreeMap<usize, (f64, usize)>,
    /// Correctness violations.
    pub errors: Vec<String>,
}

impl RunResult {
    fn new() -> Self {
        RunResult {
            setup_s: Vec::new(),
            records: Vec::new(),
            busy_s: 0.0,
            wall_s: 0.0,
            metrics: Default::default(),
            peak_rss_mib: 0.0,
            digests: BTreeMap::new(),
            reports: BTreeMap::new(),
            knn: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    /// Checks an outcome of input `i`: its shape and reports, and that a
    /// repeated input reproduced its first outcome exactly.
    fn absorb(&mut self, plan: &Plan, i: usize, outcome: SapOutcome) {
        let input = &plan.inputs[i];
        if let Err(e) = check_outcome(input, &outcome) {
            self.errors.push(e);
            return;
        }
        let digest = outcome_digest(&outcome);
        match self.digests.get(&i) {
            Some(&first) if first != digest => self.errors.push(format!(
                "input {i} ({}) produced a different outcome on a repeat",
                input.shape.name()
            )),
            Some(_) => {}
            None => {
                self.digests.insert(i, digest);
                self.reports.insert(
                    i,
                    outcome
                        .reports
                        .iter()
                        .map(|r| (r.rho_local, r.satisfaction))
                        .collect(),
                );
                if plan.knn.contains(&i) {
                    self.knn
                        .insert(i, (knn_accuracy(input, &outcome), input.test.len()));
                }
            }
        }
    }

    /// Sessions that failed or were shed.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.latency_s.is_none())
            .count()
    }

    fn miss(&mut self, plan: &Plan, i: usize, err: &ServerError) {
        // A shed session is a miss, not a wrong output; anything else is
        // reported too.
        if !matches!(err, ServerError::Session(SapError::AdmissionShed { .. })) {
            self.errors.push(format!(
                "{} session {i} failed: {err}",
                plan.inputs[i].shape.name()
            ));
        }
    }
}

/// KNN(5) trained on a session's unified data, scored on the session's
/// held-out records through a `ClassificationClient` (off the clock).
fn knn_accuracy(input: &SessionInput, outcome: &SapOutcome) -> f64 {
    let service = MiningService::train(&outcome.unified, &ModelKind::Knn(5));
    ClassificationClient::new(outcome.target.clone()).accuracy(&service, &input.test)
}

/// Runs `plan` against servers from `build`: timed constructions, off-clock
/// warm-up on the last of them, the measured window on a fresh server (so
/// that the server's counters and histograms hold the measured sessions
/// alone), then the rest of the [`SETUP_REPEATS`] timed constructions.
/// Timing set-up at both ends of the run samples the host twice.
pub fn run<T: Transport + 'static>(
    plan: &Plan,
    build: impl Fn() -> SapServer<T>,
    seconds: u64,
) -> RunResult {
    let mut result = RunResult::new();
    let mut warm = None;
    for _ in 0..SETUP_REPEATS - SETUP_REPEATS / 2 {
        drop(warm.take());
        warm = Some(set_up(plan, &build, &mut result));
    }
    let warm = warm.expect("at least one setup repeat");
    warm_up(plan, &warm, &mut result);
    let srv = build();
    result.metrics.0 = srv.metrics();
    let start = Instant::now();
    match &plan.schedule {
        Schedule::Open { due } => {
            drop(warm);
            run_open(plan, &srv, due, &mut result)
        }
        Schedule::Closed { primaries, probes } => {
            run_closed(plan, &srv, &warm, primaries, probes, seconds, &mut result);
            drop(warm);
        }
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result.metrics.1 = srv.metrics();
    result.peak_rss_mib = peak_rss_mib();
    drop(srv);
    for _ in 0..SETUP_REPEATS / 2 {
        drop(set_up(plan, &build, &mut result));
    }
    result
}

/// One timed set-up: construction through the first (setup probe)
/// session.
fn set_up<T: Transport + 'static>(
    plan: &Plan,
    build: &impl Fn() -> SapServer<T>,
    result: &mut RunResult,
) -> SapServer<T> {
    let start = Instant::now();
    let srv = build();
    let probe = &plan.warmups[0];
    let outcome = srv
        .submit(probe.locals.clone(), &probe.config)
        .and_then(|id| srv.wait(id, None));
    result.setup_s.push(start.elapsed().as_secs_f64());
    if let Err(e) = outcome {
        result.errors.push(format!("setup session failed: {e}"));
    }
    srv
}

fn warm_up<T: Transport + 'static>(plan: &Plan, srv: &SapServer<T>, result: &mut RunResult) {
    let mut sessions: Vec<&SessionInput> = plan.warmups.iter().collect();
    if let Schedule::Closed { primaries, probes } = &plan.schedule {
        sessions.push(&plan.inputs[primaries[0]]);
        sessions.extend(probes[..PROBES_PER_ROUND].iter().map(|&i| &plan.inputs[i]));
    }
    for input in sessions {
        let outcome = srv
            .submit(input.locals.clone(), &input.config)
            .and_then(|id| srv.wait(id, None));
        match outcome {
            Ok(o) => {
                if let Err(e) = check_outcome(input, &o) {
                    result.errors.push(e);
                }
            }
            Err(e) => result.errors.push(format!("warm-up session failed: {e}")),
        }
    }
}

/// The closed loop: one client, whole passes over the primaries on `srv`,
/// each primary followed by its burst of probes on `probe_srv`. Stops at the first
/// pass boundary past `seconds` once [`MIN_ROUNDS`] rounds ran (or
/// [`MAX_CLOSED`] passed).
fn run_closed<T: Transport + 'static>(
    plan: &Plan,
    srv: &SapServer<T>,
    probe_srv: &SapServer<T>,
    primaries: &[usize],
    probes: &[usize],
    seconds: u64,
    result: &mut RunResult,
) {
    let bursts: Vec<&[usize]> = probes.chunks(PROBES_PER_ROUND).collect();
    let start = Instant::now();
    let (mut passes, mut rounds) = (0, 0);
    while start.elapsed() < Duration::from_secs(seconds)
        || (rounds < MIN_ROUNDS && start.elapsed() < MAX_CLOSED)
    {
        for &p in primaries {
            result.busy_s += run_one(plan, srv, p, passes, result).unwrap_or(0.0);
            run_burst(
                plan,
                probe_srv,
                bursts[rounds % bursts.len()],
                passes,
                result,
            );
            rounds += 1;
        }
        passes += 1;
    }
    // Records carry their pass; group the passes into slices.
    for r in &mut result.records {
        r.slice = r.slice * SLICES / passes;
    }
}

/// Submits input `i` and waits for its outcome. Returns the latency, from
/// the instant it was submitted, when it completed.
fn run_one<T: Transport + 'static>(
    plan: &Plan,
    srv: &SapServer<T>,
    i: usize,
    slice: usize,
    result: &mut RunResult,
) -> Option<f64> {
    // The payload is cloned before the clock starts.
    let locals = plan.inputs[i].locals.clone();
    let since = Instant::now();
    let id = srv.submit(locals, &plan.inputs[i].config);
    let submit_s = since.elapsed().as_secs_f64();
    let latency_s = match id.and_then(|id| srv.wait(id, None)) {
        Ok(o) => {
            let latency_s = since.elapsed().as_secs_f64();
            result.absorb(plan, i, o);
            Some(latency_s)
        }
        Err(e) => {
            result.miss(plan, i, &e);
            None
        }
    };
    result.records.push(SessionRecord {
        input: i,
        latency_s,
        submit_s,
        lag_s: 0.0,
        slice,
    });
    latency_s
}

/// Submits `inputs` at once and waits for all of them; each latency runs
/// from the instant the first was submitted.
fn run_burst<T: Transport + 'static>(
    plan: &Plan,
    srv: &SapServer<T>,
    inputs: &[usize],
    slice: usize,
    result: &mut RunResult,
) {
    // Payloads are cloned before the clock starts.
    let payloads: Vec<Vec<Dataset>> = inputs
        .iter()
        .map(|&i| plan.inputs[i].locals.clone())
        .collect();
    let since = Instant::now();
    let mut outstanding = Vec::with_capacity(inputs.len());
    for (&i, locals) in inputs.iter().zip(payloads) {
        let t = Instant::now();
        let id = srv.submit(locals, &plan.inputs[i].config);
        let submitted = Submitted {
            input: i,
            id,
            since,
            submit_s: t.elapsed().as_secs_f64(),
            lag_s: 0.0,
            slice,
        };
        result.admit(plan, submitted, &mut outstanding);
    }
    while !outstanding.is_empty() {
        result.collect(plan, srv, &mut outstanding);
        std::thread::sleep(POLL);
    }
}

/// A submitted session and the instant its latency counts from.
struct Submitted {
    input: usize,
    id: Result<SessionId, ServerError>,
    since: Instant,
    submit_s: f64,
    lag_s: f64,
    slice: usize,
}

impl RunResult {
    /// Takes a submitted session in flight, or records it as a miss when
    /// the submission itself failed.
    fn admit(&mut self, plan: &Plan, s: Submitted, outstanding: &mut Vec<(Submitted, SessionId)>) {
        match s.id {
            Ok(id) => outstanding.push((s, id)),
            Err(ref e) => {
                self.miss(plan, s.input, e);
                self.records.push(SessionRecord {
                    input: s.input,
                    latency_s: None,
                    submit_s: s.submit_s,
                    lag_s: s.lag_s,
                    slice: s.slice,
                });
            }
        }
    }

    /// Records every outstanding session that has ended, by polling, so a
    /// slow session never delays seeing a fast one. Returns the last
    /// completion instant seen.
    fn collect<T: Transport + 'static>(
        &mut self,
        plan: &Plan,
        srv: &SapServer<T>,
        outstanding: &mut Vec<(Submitted, SessionId)>,
    ) -> Option<Instant> {
        let mut last = None;
        let mut k = 0;
        while k < outstanding.len() {
            let id = outstanding[k].1;
            if matches!(srv.poll(id), Ok(SessionStatus::Running { .. })) {
                k += 1;
                continue;
            }
            let now = Instant::now();
            last = Some(now);
            let (s, id) = outstanding.swap_remove(k);
            let latency_s = match srv.wait(id, Some(Duration::from_secs(10))) {
                Ok(o) => {
                    self.absorb(plan, s.input, o);
                    Some(now.duration_since(s.since).as_secs_f64())
                }
                Err(e) => {
                    self.miss(plan, s.input, &e);
                    None
                }
            };
            self.records.push(SessionRecord {
                input: s.input,
                latency_s,
                submit_s: s.submit_s,
                lag_s: s.lag_s,
                slice: s.slice,
            });
        }
        last
    }
}

/// The open loop: a generator thread submits each input at its due time
/// no matter how far behind the server is, while this thread collects
/// outcomes.
fn run_open<T: Transport + 'static>(
    plan: &Plan,
    srv: &SapServer<T>,
    due: &[Duration],
    result: &mut RunResult,
) {
    // Payloads are cloned before the clock starts.
    let payloads: Vec<Vec<Dataset>> = plan.inputs.iter().map(|x| x.locals.clone()).collect();
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut last_done = start;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, (locals, at)) in payloads.into_iter().zip(due).enumerate() {
                let scheduled = start + *at;
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t = Instant::now();
                let id = srv.submit(locals, &plan.inputs[i].config);
                let submitted = Submitted {
                    input: i,
                    id,
                    since: scheduled,
                    submit_s: t.elapsed().as_secs_f64(),
                    lag_s: t.saturating_duration_since(scheduled).as_secs_f64(),
                    slice: i * SLICES / due.len(),
                };
                if tx.send(submitted).is_err() {
                    return;
                }
            }
        });

        let mut outstanding = Vec::new();
        let mut generator_done = false;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(s) => result.admit(plan, s, &mut outstanding),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        generator_done = true;
                        break;
                    }
                }
            }
            if let Some(t) = result.collect(plan, srv, &mut outstanding) {
                last_done = last_done.max(t);
            }
            if generator_done && outstanding.is_empty() {
                break;
            }
            std::thread::sleep(POLL);
        }
    });
    result.busy_s = last_done.saturating_duration_since(start).as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Latencies;
    use sap_core::runtime::QosClass;

    /// Samples beyond percentile `q` among `n` sessions.
    fn beyond(n: usize, q: f64) -> usize {
        let mut l = Latencies::default();
        for _ in 0..n {
            l.record(Some(1.0));
        }
        l.beyond(q)
    }

    #[test]
    fn qos_mix_holds_ten_beyond_each_tail_at_thirty_seconds() {
        let plan = Plan::generate(Kind::QosMix, 1, 30);
        let count = |c: QosClass| plan.inputs.iter().filter(|x| x.class() == c).count();
        assert_eq!(plan.inputs.len(), 1_260);
        assert!(beyond(count(QosClass::Interactive), 0.99) >= 10);
        assert!(beyond(count(QosClass::Batch), 0.9) >= 10);
        assert!((0..plan.inputs.len()).all(|i| plan.is_primary(i)));
    }

    #[test]
    fn closed_loop_rounds_pair_each_primary_with_its_probes() {
        let plan = Plan::generate(Kind::PaperIca, 1, 30);
        let Schedule::Closed { primaries, probes } = &plan.schedule else {
            panic!("paper_ica is a closed loop");
        };
        assert_eq!(primaries.len(), PAPER_CYCLE.len() * PAPER_VARIANTS);
        // A burst for each round of the shortest run: three passes of 36.
        assert_eq!(probes.len(), 108 * PROBES_PER_ROUND);
        assert!(primaries.iter().all(|&i| plan.is_primary(i)));
        assert!(probes
            .iter()
            .all(|&i| !plan.is_primary(i) && plan.inputs[i].class() == QosClass::Interactive));
        // The fewest rounds a run makes leave ten sessions beyond the
        // primaries' p90 and the probes' p99.
        assert!(beyond(MIN_ROUNDS, 0.9) >= 10);
        assert!(beyond(MIN_ROUNDS * PROBES_PER_ROUND, 0.99) >= 10);
    }

    #[test]
    fn canary_inputs_are_fixed_and_cover_the_workload_shapes() {
        let a = canary_inputs(Kind::QosMix);
        let b = canary_inputs(Kind::QosMix);
        let shapes: Vec<Shape> = a.iter().map(|x| x.shape).collect();
        assert_eq!(shapes, [Shape::Interactive, Shape::Batch]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.locals[0].records(), y.locals[0].records());
            assert_eq!(x.config.seed, y.config.seed);
        }
        assert_eq!(canary_inputs(Kind::PaperIca).len(), PAPER_CYCLE.len() + 1);
    }
}
