//! Workload shapes and set-up: data, diversity kernel, model, candidate
//! pools, the request stream, and the spawned, prewarmed driver.
//!
//! The benchmark sets only sizes, seeds, rates and pool widths. Every
//! other `ServeConfig`, `FrontendConfig` and `TrainConfig` field comes from
//! `Default`, so a changed default registers here, and no knob is named.

use lkp::core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig};
use lkp::data::{Dataset, DatasetDelta, Split, SyntheticConfig};
use lkp::dpp::LowRankKernel;
use lkp::models::MatrixFactorization;
use lkp::nn::AdamConfig;
use lkp::serve::{
    DriverClient, FrontendConfig, FrontendDriver, RankRequest, Ranker, RankingArtifact,
    ServeConfig, ServeFrontend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Seed of the corpus: the synthetic dataset, the diversity kernel, the
/// initial model, the users' popularity order, their candidate pools, the
/// refresh delta and the trainer's sampling seed. Fixed, so that quality
/// and training figures measure the program rather than the draw of a
/// dataset; the run's `--seed` draws the traffic: the request stream, its
/// arrival gaps, and the responses and instances the checks sample.
pub const CORPUS_SEED: u64 = 0x1CDE_2024;

/// The size of one workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub n_users: usize,
    pub n_items: usize,
    pub n_categories: usize,
    pub mean_interactions: f64,
    /// Matrix-factorization embedding width.
    pub model_dim: usize,
    /// Epochs of every fixed-epoch fit (validation every epoch).
    pub epochs: usize,
    /// Candidates per request.
    pub pool: usize,
    /// List length per request.
    pub top_n: usize,
    /// Zipf exponent of user popularity (0 = uniform users).
    pub zipf: f64,
    /// Open-loop arrival rate, requests per second.
    pub open_rate: f64,
    /// Outstanding requests in the closed-loop phase.
    pub window: usize,
    /// Interval between artifact swaps under traffic (`None`: no swapper).
    pub swap_every: Option<Duration>,
    /// Users (by popularity) whose pools the swaps prewarm.
    pub prewarm_users: usize,
    /// Share of `--seconds` spent serving, split evenly over the cycles.
    pub serve_share: f64,
    /// Share of each cycle's serving time given to the open loop.
    pub open_share: f64,
}

/// The three workloads.
pub fn shape(name: &str) -> Option<Shape> {
    let hot = Shape {
        name: "serve_hot",
        n_users: 2000,
        n_items: 800,
        n_categories: 20,
        mean_interactions: 12.0,
        model_dim: 32,
        epochs: 2,
        pool: 100,
        top_n: 10,
        zipf: 1.1,
        open_rate: 1500.0,
        window: 128,
        swap_every: Some(Duration::from_millis(1200)),
        prewarm_users: 200,
        serve_share: 1.0,
        open_share: 0.7,
    };
    match name {
        "serve_hot" => Some(hot),
        "serve_wide" => Some(Shape {
            name: "serve_wide",
            n_users: 500,
            n_items: 3000,
            mean_interactions: 30.0,
            pool: 1000,
            zipf: 0.0,
            open_rate: 20.0,
            window: 8,
            ..hot
        }),
        "train_refresh" => Some(Shape {
            name: "train_refresh",
            n_users: 2200,
            n_items: 1000,
            mean_interactions: 25.0,
            zipf: 0.0,
            open_rate: 500.0,
            window: 64,
            swap_every: None,
            serve_share: 0.5,
            ..hot
        }),
        _ => None,
    }
}

/// Everything set-up builds, up to the first timed operation.
pub struct World {
    pub shape: Shape,
    pub seed: u64,
    pub threads: usize,
    pub data: Dataset,
    /// The raw diversity kernel (objectives and artifacts normalize it).
    pub kernel: LowRankKernel,
    /// The untrained model every fit starts from.
    pub model0: MatrixFactorization,
    /// Each user's candidate pool: their held-out test items and unseen
    /// items drawn at random, shuffled.
    pub pools: Vec<Vec<usize>>,
    /// Users in request order; the closed loop continues where the open
    /// loop stopped, cycling.
    pub stream: Vec<usize>,
    /// Open-loop gap before each stream position, in seconds: exponential
    /// at the shape's rate, so independent users arrive as a Poisson
    /// process and sometimes land while a batch is being ranked.
    pub gaps: Vec<f64>,
    /// `(user, pool)` pairs the swaps prewarm: the most popular users.
    pub plan: Vec<(usize, Vec<usize>)>,
    /// The delta of every refresh: one new item for a tenth of the users.
    pub delta: DatasetDelta,
    pub serve_config: ServeConfig,
    pub train_config: TrainConfig,
    driver: Option<FrontendDriver<MatrixFactorization>>,
    client: Option<DriverClient<MatrixFactorization>>,
}

/// Builds the world of `shape` from `seed`.
pub fn setup(shape: &Shape, seed: u64, threads: usize) -> World {
    let data = lkp::data::synthetic::generate(&SyntheticConfig {
        n_users: shape.n_users,
        n_items: shape.n_items,
        n_categories: shape.n_categories,
        mean_interactions: shape.mean_interactions,
        seed: CORPUS_SEED,
        ..Default::default()
    });
    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            seed: CORPUS_SEED ^ 0xD1FF,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ 0x3F);
    let model0 = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        shape.model_dim,
        AdamConfig::default(),
        &mut rng,
    );
    // Popularity order: a permutation of the users fixed with the corpus;
    // rank r is requested with weight 1/(r+1)^zipf.
    let mut by_rank: Vec<usize> = (0..data.n_users()).collect();
    shuffle(&mut by_rank, &mut rng);
    let pools: Vec<Vec<usize>> = (0..data.n_users())
        .map(|u| candidate_pool(&data, u, shape.pool, &mut rng))
        .collect();

    let mut delta = DatasetDelta::new();
    let mut users: Vec<usize> = (0..data.n_users()).collect();
    shuffle(&mut users, &mut rng);
    users.truncate(data.n_users() / 10);
    users.sort_unstable();
    for &u in &users {
        loop {
            let item = rng.random_range(0..data.n_items());
            if !data.is_observed(u, item) {
                delta.push(u, item);
                break;
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
    let stream = user_stream(&by_rank, shape.zipf, 1 << 16, &mut rng);
    let gaps = (0..stream.len())
        .map(|_| -(1.0 - rng.random::<f64>()).ln() / shape.open_rate)
        .collect();
    let plan: Vec<(usize, Vec<usize>)> = by_rank
        .iter()
        .take(shape.prewarm_users)
        .map(|&u| (u, pools[u].clone()))
        .collect();

    let serve_config = ServeConfig {
        threads,
        ..Default::default()
    };
    let train_config = TrainConfig {
        epochs: shape.epochs,
        k: 5,
        n: 5,
        eval_every: 1,
        patience: 0,
        threads,
        seed: CORPUS_SEED ^ 0x7EA1,
        ..Default::default()
    };

    let artifact = RankingArtifact::new(model0.clone(), kernel.clone());
    let mut frontend = ServeFrontend::new(
        Ranker::new(artifact, serve_config.clone()),
        FrontendConfig::default(),
    );
    frontend.prewarm(&plan);
    let driver = FrontendDriver::spawn(frontend);
    let client = driver.client();
    World {
        shape: shape.clone(),
        seed,
        threads,
        data,
        kernel,
        model0,
        pools,
        stream,
        gaps,
        plan,
        delta,
        serve_config,
        train_config,
        driver: Some(driver),
        client: Some(client),
    }
}

impl World {
    /// The request for position `i` of the stream (cycling).
    pub fn request(&self, i: usize) -> RankRequest {
        let user = self.stream[i % self.stream.len()];
        RankRequest::new(user, self.pools[user].clone(), self.shape.top_n)
    }

    /// The live driver's client.
    pub fn client(&self) -> &DriverClient<MatrixFactorization> {
        self.client.as_ref().expect("driver is running")
    }

    /// Stops the driver (flushing what is pending) and returns its
    /// frontend.
    pub fn shutdown(&mut self) -> ServeFrontend<MatrixFactorization> {
        self.client = None;
        self.driver
            .take()
            .expect("driver is running")
            .shutdown()
            .expect("every driver client was dropped before shutdown")
    }
}

/// `user`'s held-out test items plus unseen items drawn at random, `size`
/// in all, in random order.
fn candidate_pool(data: &Dataset, user: usize, size: usize, rng: &mut StdRng) -> Vec<usize> {
    let size = size.min(data.n_items());
    let mut pool: Vec<usize> = data.user_items(user, Split::Test).to_vec();
    pool.truncate(size);
    let mut taken = vec![false; data.n_items()];
    for &i in &pool {
        taken[i] = true;
    }
    let unseen = (0..data.n_items())
        .filter(|&i| !taken[i] && !data.is_seen_before_test(user, i))
        .count();
    let want = size.min(pool.len() + unseen);
    while pool.len() < want {
        let item = rng.random_range(0..data.n_items());
        if !taken[item] && !data.is_seen_before_test(user, item) {
            taken[item] = true;
            pool.push(item);
        }
    }
    shuffle(&mut pool, rng);
    pool
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// `len` users drawn with probability ∝ 1/(rank+1)^zipf over `by_rank`;
/// with `zipf = 0`, passes over seeded permutations of every user, so a
/// run's lists cover the population evenly.
fn user_stream(by_rank: &[usize], zipf: f64, len: usize, rng: &mut StdRng) -> Vec<usize> {
    if zipf == 0.0 {
        let mut out = Vec::with_capacity(len);
        let mut pass = by_rank.to_vec();
        while out.len() < len {
            shuffle(&mut pass, rng);
            out.extend_from_slice(&pass);
        }
        out.truncate(len);
        return out;
    }
    let mut cdf = Vec::with_capacity(by_rank.len());
    let mut acc = 0.0;
    for r in 0..by_rank.len() {
        acc += 1.0 / ((r + 1) as f64).powf(zipf);
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let x = rng.random::<f64>() * acc;
            let r = cdf.partition_point(|&c| c < x).min(by_rank.len() - 1);
            by_rank[r]
        })
        .collect()
}
