//! Set-up (world build + seeded model training) and the seeded input
//! corpus with its reference labels.

use crate::stats::median;
use rl4oasd::{Rl4oasdConfig, ShardedEngine, TrainedModel};
use rnet::{RoadNetwork, SegmentId};
use scenario::{EventTrace, NetworkKind, ScenarioSpec, TickEvents, World};
use std::sync::Arc;
use std::time::Instant;
use traj::{SdPair, SessionEngine, SessionId};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The world and model are fixed; `--seed` picks the trace.
const WORLD_SEED: u64 = 0x0A5D_2023;
/// Trace shape: 200 ticks at 12 trip arrivals per tick gives about 2.4k
/// trips, 54k points and up to ~300 points per tick.
pub const TRACE_TICKS: u32 = 200;
pub const ARRIVALS_PER_TICK: f64 = 12.0;

/// The trained model and the world it serves.
pub struct Setup {
    pub net: Arc<RoadNetwork>,
    pub model: Arc<TrainedModel>,
    world: World,
    /// Median over [`SETUP_REPS`] set-ups, seconds.
    pub setup_s: f64,
    pub world_s: f64,
    pub train_s: f64,
}

fn train_config() -> Rl4oasdConfig {
    Rl4oasdConfig {
        pretrain_trajs: 50,
        joint_trajs: 100,
        seed: WORLD_SEED,
        ..Rl4oasdConfig::default()
    }
}

/// Builds the world and trains the model [`SETUP_REPS`] times, keeping
/// the first; both are deterministic, so every repetition is the same
/// work.
pub fn setup() -> Setup {
    let (mut total, mut world_s, mut train_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let world = World::city(NetworkKind::ChengduGrid, WORLD_SEED);
        let built = t0.elapsed().as_secs_f64();
        let model = world.train(&train_config());
        let all = t0.elapsed().as_secs_f64();
        total.push(all);
        world_s.push(built);
        train_s.push(all - built);
        kept.get_or_insert((world, model));
    }
    let (world, model) = kept.expect("at least one set-up");
    Setup {
        net: Arc::clone(&world.net),
        model: Arc::new(model),
        world,
        setup_s: median(&mut total),
        world_s: median(&mut world_s),
        train_s: median(&mut train_s),
    }
}

/// One trip of the trace: where it goes, when it starts, its points.
pub struct Trip {
    pub sd: SdPair,
    pub start: f64,
    pub segments: Vec<SegmentId>,
}

/// The seeded input of a run, its ground truth and the labels a
/// synchronous 1-shard replay gives it.
pub struct Corpus {
    pub ticks: Vec<TickEvents>,
    pub trips: Vec<Trip>,
    pub truth: Vec<Vec<u8>>,
    pub reference: Vec<Vec<u8>>,
    pub points: u64,
}

/// Generates the city trace for `seed` and its reference labels.
pub fn corpus(setup: &Setup, seed: u64) -> Corpus {
    let spec = ScenarioSpec {
        name: "perfbench".to_string(),
        network: NetworkKind::ChengduGrid,
        ticks: TRACE_TICKS,
        arrivals_per_tick: ARRIVALS_PER_TICK,
        regimes: Vec::new(),
    };
    let trace = EventTrace::generate(&setup.world, &spec, seed);
    // Trips are numbered in the order they open.
    let mut trips: Vec<Trip> = Vec::with_capacity(trace.sessions as usize);
    for tick in &trace.ticks {
        for &(id, sd, start) in &tick.opens {
            assert_eq!(id as usize, trips.len(), "trace opens trips in id order");
            trips.push(Trip {
                sd,
                start,
                segments: Vec::new(),
            });
        }
        for &(id, seg) in &tick.points {
            trips[id as usize].segments.push(seg);
        }
    }
    let reference = replay_trace(setup, &trace.ticks, trips.len());
    Corpus {
        ticks: trace.ticks,
        trips,
        truth: trace.truth,
        reference,
        points: trace.events,
    }
}

/// The reference: the trace replayed tick by tick through a synchronous
/// 1-shard engine, as `scenario::Driver::Sync` does.
fn replay_trace(setup: &Setup, ticks: &[TickEvents], trips: usize) -> Vec<Vec<u8>> {
    let mut engine = ShardedEngine::new(Arc::clone(&setup.model), Arc::clone(&setup.net), 1);
    let mut ids: Vec<Option<SessionId>> = vec![None; trips];
    let mut labels = vec![Vec::new(); trips];
    let (mut events, mut out) = (Vec::new(), Vec::new());
    for tick in ticks {
        for &(id, sd, start) in &tick.opens {
            ids[id as usize] = Some(engine.open(sd, start));
        }
        events.clear();
        events.extend(
            tick.points
                .iter()
                .map(|&(id, seg)| (ids[id as usize].expect("point of an open trip"), seg)),
        );
        if !events.is_empty() {
            engine.observe_batch(&events, &mut out);
        }
        for &id in &tick.closes {
            labels[id as usize] = engine.close(ids[id as usize].take().expect("open trip"));
        }
    }
    labels
}

/// Reference labels of trips cut short after their first `len` points:
/// all opened together, point `j` of each in tick `j`, closed together,
/// through a synchronous 1-shard engine.
pub fn reference_prefixes(setup: &Setup, corpus: &Corpus, cuts: &[(usize, usize)]) -> Vec<Vec<u8>> {
    let mut engine = ShardedEngine::new(Arc::clone(&setup.model), Arc::clone(&setup.net), 1);
    let ids: Vec<SessionId> = cuts
        .iter()
        .map(|&(trip, _)| engine.open(corpus.trips[trip].sd, corpus.trips[trip].start))
        .collect();
    let longest = cuts.iter().map(|c| c.1).max().unwrap_or(0);
    let (mut events, mut out) = (Vec::new(), Vec::new());
    for j in 0..longest {
        events.clear();
        events.extend(
            cuts.iter()
                .zip(&ids)
                .filter(|((_, len), _)| j < *len)
                .map(|(&(trip, _), &id)| (id, corpus.trips[trip].segments[j])),
        );
        engine.observe_batch(&events, &mut out);
    }
    ids.into_iter().map(|id| engine.close(id)).collect()
}
