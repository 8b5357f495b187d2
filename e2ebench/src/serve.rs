//! The serving journey: independent users on an open-loop arrival
//! schedule, then a closed loop with a fixed window of outstanding
//! requests, while a second thread swaps prewarmed artifact generations in.

use crate::host::{process_cpu_s, sleep_until};
use crate::trace::{SpanId, Tracer, BACKGROUND, NO_REQ, ROOT};
use crate::train::swap_in;
use crate::world::World;
use lkp::models::MatrixFactorization;
use lkp::serve::{DriverClient, RankRequest, RankResponse, RankingArtifact, SwapReport, Ticket};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting it failed.
const TAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// One attempted request.
pub struct Served {
    /// Position in the world's request stream.
    pub idx: usize,
    /// `None` when the submission was shed.
    pub ticket: Option<Ticket>,
    /// `None` when shed or not redeemable within the timeout.
    pub resp: Option<RankResponse>,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub served: Vec<Served>,
    /// Scheduled send → response redeemable, per redeemed request (open
    /// loop only).
    pub latency_ms: Vec<f64>,
    /// How late the generator sent, per request (open loop only).
    pub late_ms: Vec<f64>,
    /// Requests redeemed before the phase ended.
    pub completed: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Both phases plus the swaps made under them.
pub struct Serving {
    pub open: Phase,
    pub closed: Phase,
    /// `(generation, artifact index)` of each swap under traffic.
    pub swaps: Vec<(u64, usize, SwapReport)>,
    /// Generation live when serving began.
    pub first_generation: u64,
    /// Stream position after the last request sent.
    pub next: usize,
}

/// Runs both phases from stream position `first`. `artifacts[1]` is live
/// when serving starts; the swapper alternates `artifacts[0]`,
/// `artifacts[1]`, ...
pub fn serve(
    world: &World,
    artifacts: [&RankingArtifact<MatrixFactorization>; 2],
    first: usize,
    open_s: f64,
    closed_s: f64,
    tracer: &Tracer,
) -> Serving {
    let first_generation = world.client().generation();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let swapper = world.shape.swap_every.map(|every| {
            let stop = &stop;
            scope.spawn(move || swapper(world, artifacts, every, stop, tracer))
        });
        let n_open = (world.shape.open_rate * open_s).round().max(1.0) as usize;
        let open = tracer.scope("serve.open_loop", ROOT, NO_REQ, |id| {
            open_loop(world, first, n_open, tracer, id)
        });
        let (closed, next) = tracer.scope("serve.closed_loop", ROOT, NO_REQ, |id| {
            closed_loop(
                world,
                first + n_open,
                Duration::from_secs_f64(closed_s),
                tracer,
                id,
            )
        });
        stop.store(true, Ordering::SeqCst);
        let swaps = swapper
            .map(|h| h.join().expect("swapper thread"))
            .unwrap_or_default();
        Serving {
            open,
            closed,
            swaps,
            first_generation,
            next,
        }
    })
}

/// Submits `req`, timing the call as the client-side wait.
fn submit(
    client: &DriverClient<MatrixFactorization>,
    req: RankRequest,
    idx: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Option<Ticket> {
    tracer
        .scope("serve.driver.submit", parent, idx as u64, |_| {
            client.submit(req)
        })
        .ok()
}

fn take(
    client: &DriverClient<MatrixFactorization>,
    ticket: Ticket,
    idx: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Option<RankResponse> {
    tracer.scope("serve.driver.take_deadline", parent, idx as u64, |_| {
        client.take_deadline(ticket, TAKE_TIMEOUT)
    })
}

/// `n` requests from stream position `first` on the world's Poisson
/// arrival schedule, each timed from its scheduled send time. A generator
/// thread sends on schedule; this thread redeems in ticket order (batches
/// are cut FIFO, so responses complete in order).
fn open_loop(world: &World, first: usize, n: usize, tracer: &Tracer, parent: SpanId) -> Phase {
    let cpu0 = process_cpu_s();
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Option<Ticket>)>();
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let client = world.client().clone();
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(n);
            let mut offset = 0.0;
            for idx in first..first + n {
                offset += world.gaps[idx % world.gaps.len()];
                let req = world.request(idx);
                let due = start + Duration::from_secs_f64(offset);
                sleep_until(due);
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let ticket = submit(&client, req, idx, tracer, parent);
                if tx.send((idx, due, ticket)).is_err() {
                    break;
                }
            }
            late_ms
        });
        let client = world.client();
        for (idx, due, ticket) in rx {
            let resp = ticket.and_then(|t| take(client, t, idx, tracer, parent));
            if resp.is_some() {
                phase.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                phase.completed += 1;
            }
            phase.served.push(Served { idx, ticket, resp });
        }
        phase.late_ms = generator.join().expect("generator thread");
    });
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_s = process_cpu_s() - cpu0;
    phase
}

/// A fixed window of outstanding requests for `duration`, from stream
/// position `first`; returns the phase and the next stream position.
/// Requests still out at the end are redeemed and checked but not counted
/// as completed in the phase.
fn closed_loop(
    world: &World,
    first: usize,
    duration: Duration,
    tracer: &Tracer,
    parent: SpanId,
) -> (Phase, usize) {
    let client = world.client();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let end = start + duration;
    let mut phase = Phase::default();
    let mut out: VecDeque<(usize, Option<Ticket>)> = VecDeque::new();
    let mut next = first;
    let send = |next: &mut usize, out: &mut VecDeque<(usize, Option<Ticket>)>| {
        let req = world.request(*next);
        out.push_back((*next, submit(client, req, *next, tracer, parent)));
        *next += 1;
    };
    for _ in 0..world.shape.window {
        send(&mut next, &mut out);
    }
    while Instant::now() < end {
        let (idx, ticket) = out.pop_front().expect("window is never empty");
        let resp = ticket.and_then(|t| take(client, t, idx, tracer, parent));
        if resp.is_some() && Instant::now() <= end {
            phase.completed += 1;
        }
        phase.served.push(Served { idx, ticket, resp });
        send(&mut next, &mut out);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_s = process_cpu_s() - cpu0;
    for (idx, ticket) in out {
        let resp = ticket.and_then(|t| take(client, t, idx, tracer, parent));
        phase.served.push(Served { idx, ticket, resp });
    }
    (phase, next)
}

/// Swaps `artifacts[0]`, `artifacts[1]`, ... into the live driver every
/// `every` until `stop` is set.
fn swapper(
    world: &World,
    artifacts: [&RankingArtifact<MatrixFactorization>; 2],
    every: Duration,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Vec<(u64, usize, SwapReport)> {
    let mut swaps = Vec::new();
    let mut next = Instant::now() + every;
    loop {
        while Instant::now() < next {
            if stop.load(Ordering::SeqCst) {
                return swaps;
            }
            std::thread::sleep(Duration::from_millis(5).min(next - Instant::now()));
        }
        let which = swaps.len() % 2;
        let artifact = artifacts[which].clone();
        let report = swap_in(world, tracer, artifact, BACKGROUND);
        swaps.push((report.generation, which, report));
        next += every;
    }
}
