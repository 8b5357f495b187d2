//! Output checks of every workload. A check that misses counts as a failed
//! operation; none compares against a stored copy of earlier output.

use crate::check::{
    brute_force_nps_loss, close, quality, reference_map, rows_of, LOG_DET_RTOL, LOSS_RTOL,
};
use crate::serve::{Served, Serving};
use crate::train::{objective, Round};
use crate::world::World;
use lkp::core::objective::{InstanceGrad, Objective};
use lkp::core::{Trainer, KERNEL_JITTER, SCORE_CLAMP};
use lkp::data::{DatasetDelta, Split};
use lkp::dpp::DppWorkspace;
use lkp::models::{MatrixFactorization, Recommender};
use lkp::serve::{RankOutcome, RankingArtifact};
use std::collections::BTreeMap;

/// Served responses checked against an independent greedy MAP: one in this
/// many, chosen by a seeded hash of the stream position.
const MAP_SAMPLE: u64 = 4;

/// Training instances whose reported loss is checked by brute force.
const LOSS_SAMPLES: usize = 16;

/// Tallies of one check pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: shed, expired, not redeemed, not served.
    pub failed: u64,
    /// Outputs that missed a check (also counted in `failed`).
    pub mismatches: u64,
    /// Responses checked against the independent greedy MAP.
    pub map_checked: u64,
}

impl Tally {
    fn miss(&mut self, what: &str) {
        eprintln!("check missed: {what}");
        self.failed += 1;
        self.mismatches += 1;
    }
}

fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks every response of both serving phases.
///
/// * every response is `Served`;
/// * its items are distinct, drawn from its pool, and `top_n` long;
/// * generations never decrease in ticket order, and each is one whose
///   artifact is known;
/// * on a seeded sample, the list equals a greedy MAP computed here from
///   the stamped generation's scores and kernel factors, with `log_det`
///   within [`LOG_DET_RTOL`].
pub fn serving(
    world: &World,
    servings: &[Serving],
    artifacts: [&RankingArtifact<MatrixFactorization>; 2],
) -> Tally {
    let mut by_generation: BTreeMap<u64, usize> = BTreeMap::new();
    for serving in servings {
        by_generation.insert(serving.first_generation, 1);
        for &(generation, which, _) in &serving.swaps {
            by_generation.insert(generation, which);
        }
    }
    let mut tally = Tally::default();
    let mut records: Vec<&Served> = servings
        .iter()
        .flat_map(|s| s.open.served.iter().chain(&s.closed.served))
        .collect();
    tally.attempted = records.len() as u64;
    let shed = records.iter().filter(|r| r.ticket.is_none()).count() as u64;
    tally.failed += shed;
    records.retain(|r| r.ticket.is_some());
    records.sort_by_key(|r| r.ticket);
    let mut last_generation = 0;
    for r in records {
        let Some(resp) = &r.resp else {
            tally.failed += 1;
            continue;
        };
        if resp.outcome != RankOutcome::Served {
            tally.failed += 1;
            continue;
        }
        let req = world.request(r.idx);
        let pool = &req.candidates;
        let want_len = req.top_n.min(pool.len());
        let mut sorted = resp.items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if resp.items.len() != want_len
            || sorted.len() != want_len
            || resp.items.iter().any(|i| !pool.contains(i))
        {
            tally.miss(&format!("request {} list is malformed", r.idx));
            continue;
        }
        if resp.generation < last_generation {
            tally.miss(&format!("request {} generation regressed", r.idx));
            continue;
        }
        last_generation = resp.generation;
        let Some(&which) = by_generation.get(&resp.generation) else {
            tally.miss(&format!("request {} has unknown generation", r.idx));
            continue;
        };
        if !mix(world.seed, r.idx as u64).is_multiple_of(MAP_SAMPLE) {
            continue;
        }
        tally.map_checked += 1;
        let artifact = artifacts[which];
        let scores = artifact.model().score_items(req.user, pool);
        let q = quality(&scores, SCORE_CLAMP);
        let rows = rows_of(artifact.kernel().factor(), pool);
        let (picked, log_det) = reference_map(&rows, &q, KERNEL_JITTER, req.top_n);
        let items: Vec<usize> = picked.iter().map(|&p| pool[p]).collect();
        if items != resp.items || !close(resp.log_det, log_det, LOG_DET_RTOL) {
            tally.miss(&format!(
                "request {} list {:?} (log_det {}) vs reference {:?} ({})",
                r.idx, resp.items, resp.log_det, items, log_det
            ));
        }
    }
    tally
}

/// Checks of the training journey, on the last round:
///
/// * on a sample of instances, the LkP-NPS loss the objective reports
///   equals the brute-force loss over all C(10, 5) subsets;
/// * mean training loss falls from the first epoch to the last;
/// * the fitted model's test NDCG@10 beats the untrained model's;
/// * an empty delta returns `no_op` with the model bitwise unchanged.
pub fn training(world: &World, round: &Round) -> Tally {
    let mut tally = Tally::default();
    let obj = objective(world);
    let factor = obj.kernel().factor();
    let plan = round.state.plan();
    let mut ws = DppWorkspace::new();
    let mut grad = InstanceGrad::default();
    for s in 0..LOSS_SAMPLES.min(plan.len()) {
        let idx = (mix(world.seed, s as u64) % plan.len() as u64) as usize;
        let inst = plan.instance(idx);
        obj.compute_into(&round.model, inst, &mut ws, &mut grad);
        let scores = round.model.score_items(inst.user, &grad.items);
        let want = brute_force_nps_loss(
            &rows_of(factor, &grad.items),
            &quality(&scores, SCORE_CLAMP),
            KERNEL_JITTER,
            inst.k(),
        );
        tally.attempted += 1;
        if !close(grad.loss, want, LOSS_RTOL) {
            tally.miss(&format!(
                "instance {idx} loss {} vs brute force {want}",
                grad.loss
            ));
        }
    }

    tally.attempted += 1;
    let history = &round.report.history;
    match (history.first(), history.last()) {
        (Some(first), Some(last)) if history.len() > 1 && last.mean_loss < first.mean_loss => {}
        _ => tally.miss("mean training loss did not fall from the first epoch to the last"),
    }

    tally.attempted += 1;
    let ndcg = |m: &MatrixFactorization| {
        let mut pool = lkp::runtime::WorkerPool::new(world.threads);
        let set = lkp::eval::evaluate_with_pool(m, &world.data, &[10], Split::Test, &mut pool);
        set.at(10).map_or(0.0, |x| x.ndcg)
    };
    let (trained, untrained) = (ndcg(&round.model), ndcg(&world.model0));
    if trained <= untrained {
        tally.miss(&format!(
            "trained NDCG@10 {trained} does not beat untrained {untrained}"
        ));
    }

    tally.attempted += 1;
    let mut untouched = round.model.clone();
    let rep = Trainer::new(world.train_config.clone()).update(
        &mut untouched,
        &mut objective(world),
        &round.state,
        &DatasetDelta::new(),
    );
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let same = (0..world.data.n_users()).all(|u| {
        round.model.score_all(u, &mut a);
        untouched.score_all(u, &mut b);
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
    });
    if !rep.no_op || !same {
        tally.miss("empty delta was not a bitwise no-op");
    }
    tally
}

/// NDCG@10 and CC@10 of the served lists against each user's held-out
/// test items, averaged over the distinct users served (each user's last
/// list in ticket order), as offline evaluation averages over users.
pub fn quality_at_10(world: &World, served: &[&Served]) -> (f64, f64, usize) {
    let mut last: BTreeMap<usize, (lkp::serve::Ticket, &[usize])> = BTreeMap::new();
    for r in served {
        let (Some(ticket), Some(resp)) = (r.ticket, r.resp.as_ref()) else {
            continue;
        };
        if resp.outcome != RankOutcome::Served {
            continue;
        }
        let entry = last.entry(resp.user).or_insert((ticket, &resp.items));
        if ticket >= entry.0 {
            *entry = (ticket, &resp.items);
        }
    }
    let (mut ndcg, mut cc) = (0.0, 0.0);
    for (&user, &(_, items)) in &last {
        let test = world.data.user_items(user, Split::Test);
        let m = lkp::eval::metrics::user_metrics(items, test, &world.data, 10);
        ndcg += m.ndcg;
        cc += m.category_coverage;
    }
    let n = last.len();
    let d = n.max(1) as f64;
    (ndcg / d, cc / d, n)
}
