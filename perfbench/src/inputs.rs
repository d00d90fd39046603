//! Seeded session inputs. Every dataset comes from the `sap-datasets`
//! generators, so labels carry class structure, and every input is
//! generated before any clock starts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sap_core::runtime::QosClass;
use sap_core::session::SapConfig;
use sap_datasets::generator::{generate, MixtureSpec};
use sap_datasets::split::stratified_split;
use sap_datasets::{Dataset, UciDataset};
use std::time::Duration;

/// Held-out records per session for the KNN accuracy check (at most).
const HELD_OUT: usize = 200;

/// The shape of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// load_qos' interactive shape: 72 records × 6 dims over 3
    /// providers, `quick_test` optimizer.
    Interactive,
    /// load_qos' batch shape: 2,400 records × 6 dims over 3 providers,
    /// 16 candidates, eval sample 600.
    Batch,
    /// 160,000 records × 16 dims over 4 providers, `quick_test`
    /// optimizer, 256-row blocks.
    Bulk,
    /// A paper UCI stand-in over 5 providers with the default
    /// configuration (32 candidates, ICA on).
    Paper(UciDataset),
}

impl Shape {
    /// Providers per session.
    pub fn providers(self) -> usize {
        match self {
            Shape::Interactive | Shape::Batch => 3,
            Shape::Bulk => 4,
            Shape::Paper(_) => 5,
        }
    }

    /// Short name for stamps and messages.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Interactive => "interactive",
            Shape::Batch => "batch",
            Shape::Bulk => "bulk",
            Shape::Paper(d) => d.name(),
        }
    }
}

/// One session's generated inputs.
#[derive(Debug)]
pub struct SessionInput {
    /// Session shape.
    pub shape: Shape,
    /// The providers' private datasets, in provider order.
    pub locals: Vec<Dataset>,
    /// Records submitted (and expected back in the unified dataset).
    pub rows: usize,
    /// Record dimensionality.
    pub dim: usize,
    /// Held-out raw records of the same distribution, never submitted.
    pub test: Dataset,
    /// Protocol configuration, with the session's seed and QoS class.
    pub config: SapConfig,
}

impl SessionInput {
    /// Generates a session of `shape`, deterministically in `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Self {
        let (train, test) = match shape {
            Shape::Interactive => mixture(6, 72, seed),
            Shape::Batch => mixture(6, 2_400, seed),
            Shape::Bulk => mixture(16, 160_000, seed),
            Shape::Paper(d) => {
                let split = stratified_split(&d.generate(seed), 0.8, seed ^ 0x5911);
                let keep: Vec<usize> = (0..split.test.len().min(HELD_OUT)).collect();
                (split.train, split.test.subset(&keep))
            }
        };
        let locals = split_even(&train, shape.providers(), seed ^ 0x77);
        SessionInput {
            shape,
            rows: train.len(),
            dim: train.dim(),
            locals,
            test,
            config: config_for(shape, seed),
        }
    }

    /// Scheduling class the session is submitted under.
    pub fn class(&self) -> QosClass {
        self.config.qos
    }
}

/// Deals a shuffled dataset into `k` parts whose sizes differ by at most
/// one record. Equal shares keep the slowest provider, which sets the
/// session's latency, the same from seed to seed.
fn split_even(data: &Dataset, k: usize, seed: u64) -> Vec<Dataset> {
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    (0..k)
        .map(|p| {
            let (lo, hi) = (p * order.len() / k, (p + 1) * order.len() / k);
            data.subset(&order[lo..hi])
        })
        .collect()
}

/// `records` training records plus up to [`HELD_OUT`] held-out ones from
/// one two-class Gaussian mixture.
fn mixture(dim: usize, records: usize, seed: u64) -> (Dataset, Dataset) {
    let held_out = HELD_OUT.min(records / 3);
    let spec = MixtureSpec {
        dim,
        num_records: records + held_out,
        class_weights: vec![0.6, 0.4],
        separation: 2.5,
        spread: 0.12,
        binary_features: 0,
    };
    let pooled = generate(&spec, seed);
    let mut order: Vec<usize> = (0..pooled.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5911));
    let (train, test) = order.split_at(records);
    (pooled.subset(train), pooled.subset(test))
}

fn config_for(shape: Shape, seed: u64) -> SapConfig {
    let base = match shape {
        Shape::Paper(_) => SapConfig::default(),
        _ => SapConfig::quick_test(),
    };
    let mut config = SapConfig {
        seed,
        timeout: Duration::from_secs(60),
        session_budget: Duration::from_secs(120),
        qos: QosClass::Batch,
        ..base
    };
    match shape {
        Shape::Interactive => config.qos = QosClass::Interactive,
        Shape::Batch => {
            config.optimizer.candidates = 16;
            config.optimizer.eval_sample = 600;
        }
        Shape::Bulk => config.block_rows = 256,
        Shape::Paper(_) => {}
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_match_their_shape() {
        let a = SessionInput::generate(Shape::Interactive, 11);
        let b = SessionInput::generate(Shape::Interactive, 11);
        assert_eq!(a.rows, 72);
        assert_eq!(a.locals.len(), 3);
        assert_eq!(a.dim, 6);
        assert_eq!(a.test.len(), 24);
        assert_eq!(a.class(), QosClass::Interactive);
        assert!(a.locals.iter().all(|l| l.len() == 24));
        for (x, y) in a.locals.iter().zip(&b.locals) {
            assert_eq!(x.records(), y.records());
            assert_eq!(x.labels(), y.labels());
        }
        let c = SessionInput::generate(Shape::Interactive, 12);
        assert_ne!(a.locals[0].records(), c.locals[0].records());
    }

    #[test]
    fn batch_and_paper_shapes() {
        let batch = SessionInput::generate(Shape::Batch, 3);
        assert_eq!(batch.rows, 2_400);
        assert_eq!(batch.class(), QosClass::Batch);
        assert_eq!(batch.config.optimizer.candidates, 16);
        let paper = SessionInput::generate(Shape::Paper(UciDataset::Wine), 3);
        assert_eq!(paper.locals.len(), 5);
        assert_eq!(paper.rows + paper.test.len(), 178);
        assert!(paper.config.optimizer.use_ica);
    }
}
