//! The training journey: a fixed-epoch fit, then a delta refresh that
//! lands in serving (`Trainer::update` → `RankingArtifact::refresh_from` →
//! a prewarmed swap into the live driver).

use crate::host::process_cpu_s;
use crate::trace::{SpanId, Tracer, NO_REQ, ROOT};
use crate::world::World;
use lkp::core::objective::{LkpKind, LkpObjective};
use lkp::core::{RefreshReport, TrainReport, TrainedState, Trainer};
use lkp::models::MatrixFactorization;
use lkp::serve::{RankingArtifact, SwapReport};
use std::time::Instant;

/// One fit + refresh round and what it produced.
pub struct Round {
    /// Wall time of the fixed-epoch `Trainer::fit_state`.
    pub fit_s: f64,
    /// Wall time from delta in hand to the refreshed artifact committed.
    pub refresh_s: f64,
    /// Process CPU seconds of the fit.
    pub fit_cpu_s: f64,
    /// Process CPU seconds of the refresh.
    pub refresh_cpu_s: f64,
    /// Process CPU seconds over the round.
    pub cpu_s: f64,
    /// Wall seconds over the round.
    pub wall_s: f64,
    pub report: TrainReport,
    pub state: TrainedState,
    pub refresh: RefreshReport,
    pub swap: SwapReport,
    /// The fitted model.
    pub model: MatrixFactorization,
    pub artifact_fit: RankingArtifact<MatrixFactorization>,
    pub artifact_ref: RankingArtifact<MatrixFactorization>,
}

/// The objective every fit and refresh trains: LkP-NPS over the world's
/// pre-learned diversity kernel.
pub fn objective(world: &World) -> LkpObjective {
    LkpObjective::new(LkpKind::NegativeAware, world.kernel.clone())
}

/// Runs one round from the untrained model.
pub fn round(world: &World, tracer: &Tracer) -> Round {
    let trainer = Trainer::new(world.train_config.clone());
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();

    let mut model = world.model0.clone();
    let mut obj = objective(world);
    let cpu = process_cpu_s();
    let t = Instant::now();
    let (report, state) = tracer.scope("fit", ROOT, NO_REQ, |id| {
        tracer.scope("core.fit_state", id, NO_REQ, |_| {
            trainer.fit_state(&mut model, &mut obj, &world.data)
        })
    });
    let fit_s = t.elapsed().as_secs_f64();
    let fit_cpu_s = process_cpu_s() - cpu;
    let artifact_fit = RankingArtifact::from_trained(&model, &obj);

    // The refresh, from delta in hand to the refreshed artifact committed.
    let cpu = process_cpu_s();
    let t = Instant::now();
    let (refresh, refreshed, swap) = tracer.scope("refresh", ROOT, NO_REQ, |id| {
        let mut refreshed = model.clone();
        let refresh = tracer.scope("core.update", id, NO_REQ, |_| {
            trainer.update(&mut refreshed, &mut objective(world), &state, &world.delta)
        });
        let artifact = tracer.scope("serve.artifact.refresh_from", id, NO_REQ, |_| {
            artifact_fit.refresh_from(&refreshed)
        });
        let swap = swap_in(world, tracer, artifact, id);
        (refresh, refreshed, swap)
    });
    let refresh_s = t.elapsed().as_secs_f64();
    let refresh_cpu_s = process_cpu_s() - cpu;
    // `refresh_from` of an unchanged model is bitwise the committed
    // artifact, so the copy the checks read is rebuilt off the clock.
    let artifact_ref = artifact_fit.refresh_from(&refreshed);

    Round {
        fit_s,
        refresh_s,
        fit_cpu_s,
        refresh_cpu_s,
        cpu_s: process_cpu_s() - cpu0,
        wall_s: wall0.elapsed().as_secs_f64(),
        report,
        state,
        refresh,
        swap,
        model,
        artifact_fit,
        artifact_ref,
    }
}

/// Stages `artifact` with the world's prewarm plan and commits it into the
/// live driver.
pub fn swap_in(
    world: &World,
    tracer: &Tracer,
    artifact: RankingArtifact<MatrixFactorization>,
    parent: SpanId,
) -> SwapReport {
    tracer.scope("serve.driver.swap_artifact", parent, NO_REQ, |_| {
        world.client().swap_artifact(artifact, &world.plan)
    })
}
