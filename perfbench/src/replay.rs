//! The traced run's outside-in layer replay: a session's generated inputs
//! pass through each layer's public functions in protocol order, and the
//! benchmark times every call from its own code. Nothing inside the
//! program is instrumented.

use crate::inputs::SessionInput;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_core::link::encode_block_into;
use sap_core::mining::{ClassificationClient, MiningService, ModelKind};
use sap_core::stream::BlockBuf;
use sap_datasets::partition::{partition, PartitionScheme};
use sap_datasets::Dataset;
use sap_net::crypto::ChannelKey;
use sap_net::frame::{open_frame, seal_frame, Frame, FrameKind};
use sap_net::{PartyId, SessionId, Transport};
use sap_perturb::{GeometricPerturbation, Perturbation, SpaceAdaptor};
use sap_privacy::engine;
use sap_privacy::optimize::evaluate_perturbation;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-call timers of the replay, in seconds, keyed by metric step.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// Seconds spent per step (`"privacy.engine_run"`, `"frame.seal"`, …).
    pub seconds: BTreeMap<&'static str, f64>,
    /// Optimizer candidates scored.
    pub candidates: u64,
    /// Candidates pruned after the cheap stage.
    pub pruned: u64,
    /// Candidates that reached the expensive stage.
    pub survivors: u64,
    /// Survivors on which ICA produced an estimate.
    pub ica_applied: u64,
    /// Optimizer cheap-stage seconds, from `EngineStats`.
    pub cheap_stage_s: f64,
    /// Optimizer expensive-stage seconds, from `EngineStats`.
    pub expensive_stage_s: f64,
    /// Sealed frames.
    pub frames: u64,
    /// Sealed bytes.
    pub sealed_bytes: u64,
    /// Records sent through the replayed data plane.
    pub rows: u64,
    /// Classification queries answered.
    pub queries: u64,
    /// Sessions replayed.
    pub sessions: u64,
}

/// The layer a timed step belongs to.
pub fn layer_of(step: &str) -> &str {
    step.split('.').next().unwrap_or(step)
}

impl Replay {
    fn time<R>(&mut self, step: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *self.seconds.entry(step).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Seconds of one step (zero when it never ran).
    pub fn step(&self, step: &str) -> f64 {
        self.seconds.get(step).copied().unwrap_or(0.0)
    }

    /// Seconds per layer, summed over its steps.
    pub fn layers(&self) -> BTreeMap<&str, f64> {
        let mut out = BTreeMap::new();
        for (step, s) in &self.seconds {
            *out.entry(layer_of(step)).or_default() += s;
        }
        out
    }

    /// Timed seconds of the session itself: every step but the mining
    /// service, which runs after the session delivered.
    pub fn session_total(&self) -> f64 {
        self.seconds
            .iter()
            .filter(|(step, _)| layer_of(step) != "mining")
            .map(|(_, s)| s)
            .sum()
    }
}

/// A two-party link of the workload's own transport: the replay sends
/// sealed frames from one end while a receiver thread, which lives for
/// the whole replay, drains the other.
pub struct Link<T: Transport> {
    from: T,
    to: PartyId,
    arrived: mpsc::Receiver<Bytes>,
}

impl<T: Transport> Link<T> {
    /// Sends every frame and returns what arrived, in order.
    fn push(&self, frames: &[Bytes]) -> Vec<Bytes> {
        for f in frames {
            self.from
                .send(self.to, f.clone())
                .expect("replay frame sends");
        }
        (0..frames.len())
            .map(|_| {
                self.arrived
                    .recv_timeout(Duration::from_secs(30))
                    .expect("replay frame arrives")
            })
            .collect()
    }
}

/// Runs `f` with a link from `from` to `to`, warmed by one frame (the
/// first pays connection set-up). The receiver thread stops and is
/// joined when `f` returns.
pub fn with_link<T: Transport, R>(from: T, to: T, f: impl FnOnce(&Link<T>) -> R) -> R {
    let stop = AtomicBool::new(false);
    let (tx, arrived) = mpsc::channel();
    let link = Link {
        from,
        to: to.local_id(),
        arrived,
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Ok((_, bytes)) = to.recv_timeout(Duration::from_millis(20)) {
                    if tx.send(bytes).is_err() {
                        return;
                    }
                }
            }
        });
        // Stops the receiver also when `f` panics, so the scope can join it.
        let _stop = StopOnDrop(&stop);
        link.push(&[Bytes::from(vec![0u8; 64])]);
        f(&link)
    })
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Replays one session's inputs: per provider, layout conversion,
/// optimizer, noise draw, fused perturbation, block encode and seal, the
/// transport, open and decode, then the coordinator's adaptor and the
/// adaptation, and the provider's satisfaction evaluation; after every
/// provider, the miner's concatenation and the KNN service.
pub fn replay_session<T: Transport>(input: &SessionInput, link: &Link<T>, out: &mut Replay) {
    let config = &input.config;
    let k = input.locals.len();
    let pooled = Dataset::concat(&input.locals);
    out.time("datasets.partition", || {
        partition(&pooled, k, PartitionScheme::Uniform, config.seed ^ 0x77)
    });
    let mut target_rng = StdRng::seed_from_u64(config.seed ^ 0xC00D);
    let target = Perturbation::random(input.dim, &mut target_rng);
    let key = ChannelKey::derive(config.session_secret, 0, 1);
    let session = SessionId(config.seed | 1);
    let mut adapted_parts = Vec::with_capacity(k);
    for (p, local) in input.locals.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let x = out.time("datasets.to_column", || local.to_column_matrix());
        let engine_out = out
            .time("privacy.engine_run", || {
                engine::run(&x, &config.optimizer, &mut rng)
            })
            .expect("replayed optimizer run");
        let stats = engine_out.stats;
        out.candidates += stats.candidates as u64;
        out.pruned += stats.pruned as u64;
        out.survivors += stats.survivors as u64;
        out.ica_applied += stats.ica_applied as u64;
        out.cheap_stage_s += stats.cheap_stage_s;
        out.expensive_stage_s += stats.expensive_stage_s;
        let g = engine_out.result.perturbation;
        let (d, n) = (x.rows(), x.cols());
        let delta = out.time("perturb.noise_sample", || g.noise().sample(d, n, &mut rng));

        // Perturb block by block, as the streaming send path does.
        let block_rows = config.block_rows.max(1);
        let mut values = Vec::with_capacity(n * d);
        let mut scratch = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + block_rows).min(n);
            out.time("perturb.records", || {
                g.perturb_records_into(&x, &delta, start..end, &mut scratch)
            });
            values.extend_from_slice(&scratch);
            start = end;
        }
        let perturbed = Dataset::with_num_classes(
            values.chunks_exact(d).map(<[f64]>::to_vec).collect(),
            local.labels().to_vec(),
            local.num_classes(),
        );

        // Encode and seal each block.
        let mut sealed = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + block_rows).min(n);
            let mut buf = Vec::new();
            out.time("link.encode", || {
                encode_block_into(&perturbed, start, end, &mut buf)
            });
            let frame = Frame {
                kind: FrameKind::StreamBlock,
                msg_id: p as u64,
                seq: sealed.len() as u32,
                last: end == n,
                payload: Bytes::from(buf),
            };
            let s = out.time("frame.seal", || {
                seal_frame(key, sealed.len() as u64, session, &frame)
            });
            out.sealed_bytes += s.len() as u64;
            sealed.push(s);
            start = end;
        }
        out.frames += sealed.len() as u64;
        out.rows += n as u64;

        let received = out.time("transport.send_recv", || link.push(&sealed));

        // Open, decode and adapt each block on the receiving side.
        let adaptor = out
            .time("perturb.adaptor", || {
                SpaceAdaptor::between(g.base(), &target)
            })
            .expect("adaptor between equal dimensions");
        let mut block = BlockBuf::default();
        let mut adapted_values = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        for bytes in &received {
            let (_, frame) = out
                .time("frame.open", || open_frame(key, bytes))
                .expect("replayed frame opens");
            out.time("stream.decode", || {
                block.decode(&frame.payload, d, local.num_classes())
            })
            .expect("replayed block decodes");
            let mut adapted = vec![0.0; block.values.len()];
            out.time("perturb.adapt", || {
                adaptor.adapt_records(&block.values, &mut adapted)
            });
            adapted_values.extend_from_slice(&adapted);
            labels.extend_from_slice(&block.labels);
        }
        adapted_parts.push(Dataset::with_num_classes(
            adapted_values
                .chunks_exact(d)
                .map(<[f64]>::to_vec)
                .collect(),
            labels,
            local.num_classes(),
        ));

        let g_unified = GeometricPerturbation::new(target.clone(), g.noise());
        out.time("privacy.evaluate", || {
            evaluate_perturbation(&x, &g_unified, &config.optimizer, &mut rng)
        });
    }
    let unified = out.time("datasets.concat", || Dataset::concat(&adapted_parts));
    let service = out.time("mining.train", || {
        MiningService::train(&unified, &ModelKind::Knn(5))
    });
    let client = ClassificationClient::new(target);
    out.time("mining.query", || {
        for (record, _) in input.test.iter() {
            std::hint::black_box(client.classify(&service, record));
        }
    });
    out.queries += input.test.len() as u64;
    out.sessions += 1;
}

/// Party ids of a replay link's two ends.
pub const LINK_IDS: [PartyId; 2] = [PartyId(0), PartyId(1)];
