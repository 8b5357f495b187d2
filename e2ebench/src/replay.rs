//! The traced run's per-layer replay: the workload's own inputs driven
//! through each layer's public entry points, one span per call.

use crate::host::median;
use crate::trace::{SpanId, Tracer, NO_REQ};
use crate::train::{objective, Round};
use crate::world::World;
use lkp::core::objective::{InstanceGrad, Objective};
use lkp::core::{KERNEL_JITTER, SCORE_CLAMP};
use lkp::data::{DeltaPlanner, EpochPlanner, InstanceBlock, InstanceSampler, Split};
use lkp::dpp::{
    esp, greedy_map_dual_with, greedy_map_with, DppBatchArena, DppWorkspace, DualMapWorkspace,
    MapWorkspace,
};
use lkp::linalg::{EigenScratch, Matrix, SymmetricEigen};
use lkp::models::{MatrixFactorization, Recommender};
use lkp::runtime::WorkerPool;
use lkp::serve::{RankRequest, RankResponse, Ranker, RankingArtifact, StagedSwap};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-request and per-swap layer costs of the serving replay.
pub struct ServeReplay {
    pub ranker_us_per_req: f64,
    pub score_us_per_req: f64,
    pub assemble_us_per_req: f64,
    pub map_dense_us_per_req: f64,
    pub map_dual_us_per_req: f64,
    pub stage_ms: f64,
    /// Requests replayed.
    pub requests: usize,
}

/// Replays the stream positions `idxs` against `artifact`: first through
/// `Ranker::rank_batch_into` in batches of `batch` (after the same prewarm
/// the swaps do), then layer by layer.
pub fn serve(
    world: &World,
    artifact: &RankingArtifact<MatrixFactorization>,
    idxs: &[usize],
    batch: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> ServeReplay {
    let n = idxs.len().max(1) as f64;
    let requests: Vec<RankRequest> = idxs.iter().map(|&i| world.request(i)).collect();
    let mut ranker = Ranker::new(artifact.clone(), world.serve_config.clone());
    ranker.prewarm(&world.plan);
    let mut out: Vec<RankResponse> = Vec::new();
    for (b, chunk) in requests.chunks(batch.max(1)).enumerate() {
        tracer.scope("serve.ranker.rank_batch_into", parent, b as u64, |_| {
            ranker.rank_batch_into(chunk, &mut out)
        });
    }
    drop(ranker);

    let model = artifact.model();
    let kernel = artifact.kernel();
    let top_n = world.shape.top_n;
    let (mut scores, mut q) = (Vec::new(), Vec::new());
    let (mut k_c, mut l, mut v_c) = (Matrix::default(), Matrix::default(), Matrix::default());
    let (mut dense, mut dual) = (MapWorkspace::new(), DualMapWorkspace::new());
    for (r, req) in requests.iter().enumerate() {
        let id = r as u64;
        let pool = &req.candidates;
        tracer.scope("models.score_items_into", parent, id, |_| {
            model.score_items_into(req.user, pool, &mut scores)
        });
        tracer.scope("dpp.assemble", parent, id, |_| {
            kernel
                .submatrix_into(pool, &mut k_c)
                .expect("pool items are in the catalog");
            q.clear();
            q.extend(
                scores
                    .iter()
                    .map(|s| s.clamp(-SCORE_CLAMP, SCORE_CLAMP).exp()),
            );
            let m = pool.len();
            l.reset(m, m);
            for i in 0..m {
                for j in 0..m {
                    l[(i, j)] = q[i] * k_c[(i, j)] * q[j];
                }
                l[(i, i)] += KERNEL_JITTER;
            }
        });
        tracer.scope("dpp.greedy_map_with", parent, id, |_| {
            greedy_map_with(&l, top_n, &mut dense).expect("well-posed dense MAP")
        });
        kernel
            .gather_rows_into(pool, &mut v_c)
            .expect("pool items are in the catalog");
        for (i, &qi) in q.iter().enumerate() {
            for x in v_c.row_mut(i) {
                *x *= qi;
            }
        }
        // A dual breakdown is the ranker's cue to fall back; the replay
        // only times the attempt.
        tracer.scope("dpp.greedy_map_dual_with", parent, id, |_| {
            let _ = greedy_map_dual_with(&v_c, KERNEL_JITTER, top_n, &mut dual);
        });
    }

    let mut stage = Vec::new();
    for _ in 0..3 {
        let copy = artifact.clone();
        let t = std::time::Instant::now();
        let staged = tracer.scope("serve.swap.stage", parent, NO_REQ, |_| {
            StagedSwap::prepare(&world.serve_config, copy, &world.plan)
        });
        stage.push(t.elapsed().as_secs_f64() * 1e3);
        drop(staged);
    }

    ServeReplay {
        ranker_us_per_req: tracer.total_us("serve.ranker.rank_batch_into") / n,
        score_us_per_req: tracer.total_us("models.score_items_into") / n,
        assemble_us_per_req: tracer.total_us("dpp.assemble") / n,
        map_dense_us_per_req: tracer.total_us("dpp.greedy_map_with") / n,
        map_dual_us_per_req: tracer.total_us("dpp.greedy_map_dual_with") / n,
        stage_ms: median(&stage),
        requests: idxs.len(),
    }
}

/// Per-stage costs of one fit replayed through the layers.
pub struct TrainReplay {
    pub plan_ms_per_epoch: f64,
    pub compute_us_per_instance: f64,
    pub accumulate_us_per_instance: f64,
    pub step_ms_per_epoch: f64,
    pub validate_ms: f64,
    /// Summed stage spans of the replayed fit, in seconds.
    pub stage_sum_s: f64,
    pub eigen_us_per_instance: f64,
    pub esp_us_per_instance: f64,
    pub merge_delta_ms: f64,
    pub plan_refresh_ms: f64,
    pub refresh_from_ms: f64,
}

/// Replays one fit stage by stage — `EpochPlanner::plan_for_epoch`,
/// `Objective::compute_batch_into` dispatched by
/// `WorkerPool::zip_chunks_bounded`, `Objective::accumulate`,
/// `Recommender::step`, `lkp_eval::evaluate_with_pool` — then the eigen and
/// ESP stages on the plan's tailored kernels, then the refresh's data and
/// artifact stages.
pub fn train(world: &World, round: &Round, tracer: &Tracer, parent: SpanId) -> TrainReplay {
    let cfg = &world.train_config;
    let epochs = cfg.epochs.max(1) as f64;
    let obj = objective(world);
    let mut model = world.model0.clone();
    let mut pool = WorkerPool::new(cfg.thread_budget());
    let sampler = InstanceSampler::new(cfg.k, cfg.n, cfg.mode);
    let mut planner = EpochPlanner::new(sampler.clone(), cfg.sampling_policy, cfg.batch_size);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut grads: Vec<InstanceGrad> = Vec::new();
    let mut instances = 0usize;

    tracer.scope("replay.fit", parent, NO_REQ, |fit| {
        for epoch in 1..=cfg.epochs {
            model.begin_epoch();
            let (plan, schedule) = tracer.scope("data.plan_for_epoch", fit, NO_REQ, |_| {
                planner.plan_for_epoch(&world.data, epoch, &mut rng)
            });
            instances += plan.len();
            for (b, batch) in schedule.iter().enumerate() {
                let b = b as u64;
                if grads.len() < batch.len() {
                    grads.resize_with(batch.len(), InstanceGrad::default);
                }
                let slots = &mut grads[..batch.len()];
                let m = &model;
                tracer.scope("core.compute_batch_into", fit, b, |_| {
                    pool.zip_chunks_bounded(
                        batch.dispatch,
                        slots,
                        batch.bounds,
                        |_, idx, out, state| {
                            let (ws, arena) =
                                state.get_or_default_pair::<DppWorkspace, DppBatchArena>();
                            obj.compute_batch_into(
                                m,
                                InstanceBlock::new(plan, idx),
                                ws,
                                arena,
                                out,
                            );
                        },
                    )
                });
                tracer.scope("core.accumulate", fit, b, |_| {
                    for &slot in batch.slot_of {
                        obj.accumulate(&mut model, &grads[slot]);
                    }
                });
                tracer.scope("models.step", fit, b, |_| model.step());
            }
            tracer.scope("eval.evaluate_with_pool", fit, NO_REQ, |_| {
                lkp::eval::evaluate_with_pool(
                    &model,
                    &world.data,
                    &[cfg.eval_cutoff],
                    Split::Validation,
                    &mut pool,
                )
            });
        }
    });
    let per_instance = instances.max(1) as f64 / epochs;

    // Eigen and ESP on the tailored kernels of the last plan's instances.
    let plan = planner.plan();
    let sample = plan.len().min(2000);
    let kernel = obj.kernel();
    let (mut scores, mut k_sub, mut l) = (Vec::new(), Matrix::default(), Matrix::default());
    let (mut eig, mut scratch, mut e) = (
        SymmetricEigen::default(),
        EigenScratch::default(),
        Vec::new(),
    );
    for i in 0..sample {
        let inst = plan.instance(i);
        let items: Vec<usize> = inst
            .positives
            .iter()
            .chain(inst.negatives)
            .copied()
            .collect();
        model.score_items_into(inst.user, &items, &mut scores);
        kernel
            .submatrix_into(&items, &mut k_sub)
            .expect("ground items are in the catalog");
        let m = items.len();
        l.reset(m, m);
        for a in 0..m {
            let qa = scores[a].clamp(-SCORE_CLAMP, SCORE_CLAMP).exp();
            for b in 0..m {
                let qb = scores[b].clamp(-SCORE_CLAMP, SCORE_CLAMP).exp();
                l[(a, b)] = qa * k_sub[(a, b)] * qb;
            }
            l[(a, a)] += KERNEL_JITTER;
        }
        let id = i as u64;
        tracer.scope("linalg.eigen", parent, id, |_| {
            eig.compute_into(&l, &mut scratch)
                .expect("tailored kernels are symmetric")
        });
        tracer.scope("dpp.esp", parent, id, |_| {
            esp::elementary_symmetric_all_into(&eig.values, inst.k(), &mut e)
        });
    }
    let sample = sample.max(1) as f64;

    // The refresh's data and artifact stages, on the round's own inputs.
    let base = &round.state;
    let (merged, summary) = tracer.scope("data.merge_delta", parent, NO_REQ, |_| {
        base.data().merge_delta(&world.delta)
    });
    let mut delta_planner = DeltaPlanner::new(sampler, cfg.batch_size);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    tracer.scope("data.plan_refresh", parent, NO_REQ, |_| {
        delta_planner.plan_refresh(&merged, base.plan(), &summary, &mut rng)
    });
    let refreshed = round.artifact_ref.model();
    tracer.scope("serve.artifact.refresh_from", parent, NO_REQ, |_| {
        round.artifact_fit.refresh_from(refreshed)
    });

    let ms = |name: &str| tracer.total_us(name) / 1e3;
    TrainReplay {
        plan_ms_per_epoch: ms("data.plan_for_epoch") / epochs,
        compute_us_per_instance: tracer.total_us("core.compute_batch_into")
            / (per_instance * epochs),
        accumulate_us_per_instance: tracer.total_us("core.accumulate") / (per_instance * epochs),
        step_ms_per_epoch: ms("models.step") / epochs,
        validate_ms: ms("eval.evaluate_with_pool") / epochs,
        stage_sum_s: tracer.children_s("replay.fit"),
        eigen_us_per_instance: tracer.total_us("linalg.eigen") / sample,
        esp_us_per_instance: tracer.total_us("dpp.esp") / sample,
        merge_delta_ms: ms("data.merge_delta"),
        plan_refresh_ms: ms("data.plan_refresh"),
        // The round's own refresh also recorded this span; take the
        // replayed call alone.
        refresh_from_ms: tracer
            .durations_us("serve.artifact.refresh_from")
            .last()
            .copied()
            .unwrap_or(0.0)
            / 1e3,
    }
}
