//! The closed-loop workloads: one thread drives a 1-shard `StreamEngine`
//! through the `SessionEngine` trait, issuing each tick's work only after
//! the previous tick returned.

use crate::host;
use crate::spans::Spans;
use crate::world::{reference_prefixes, Corpus, Setup};
use crate::{Cycle, Measured};
use rl4oasd::{HibernationConfig, StreamEngine};
use std::sync::Arc;
use std::time::Instant;
use traj::{SessionEngine, SessionId};

/// Replays the trace tick by tick (`open`s, one `observe_batch`,
/// `close`s), pass after pass, until `seconds` of replay were measured.
/// Each tick of the trace is one step of the [`Cycle`].
pub fn fleet_replay(setup: &Setup, corpus: &Corpus, seconds: f64, spans: &mut Spans) -> Measured {
    let mut engine = StreamEngine::new(Arc::clone(&setup.model), Arc::clone(&setup.net));
    let mut m = Measured::default();
    let mut ids: Vec<Option<SessionId>> = vec![None; corpus.trips.len()];
    let mut labels = vec![Vec::new(); corpus.trips.len()];
    let (mut events, mut out) = (Vec::new(), Vec::new());
    let mut cycle = Cycle::new(corpus.ticks.len());
    while m.window_s < seconds {
        let pass = Instant::now();
        for (pos, tick) in corpus.ticks.iter().enumerate() {
            let (t0, cpu0) = (Instant::now(), host::thread_cpu_ns());
            let mut label_ns = 0;
            let root = spans.enter("tick");
            for &(id, sd, start) in &tick.opens {
                ids[id as usize] = Some(spans.time("engine.open", || engine.open(sd, start)));
            }
            events.clear();
            events.extend(
                tick.points
                    .iter()
                    .map(|&(id, seg)| (ids[id as usize].expect("point of an open trip"), seg)),
            );
            if !events.is_empty() {
                let t = Instant::now();
                spans.time("engine.observe_batch", || {
                    engine.observe_batch(&events, &mut out)
                });
                label_ns = t.elapsed().as_nanos() as u64;
                m.latency.push((label_ns, events.len() as u64));
                m.observed += events.len() as u64;
            }
            for &id in &tick.closes {
                let h = ids[id as usize].take().expect("close of an open trip");
                labels[id as usize] = spans.time("engine.close", || engine.close(h));
            }
            spans.exit(root);
            let wall = t0.elapsed().as_nanos() as u64;
            let cpu = host::thread_cpu_ns() - cpu0;
            cycle.record(pos, wall, cpu, label_ns, events.len() as u64);
        }
        m.points += corpus.points;
        m.window_s += pass.elapsed().as_secs_f64();
        m.attempted += corpus.points + 2 * corpus.trips.len() as u64;
        m.check_all(&labels, &corpus.reference);
    }
    m.best_cycle(&cycle);
    let stats = engine.stats();
    let (_, policy_calls) = engine.decision_counts();
    m.engine(spans, &stats, policy_calls);
    m
}

/// Concurrently open trips in the idle fleet.
pub const IDLE_TRIPS: usize = 100_000;
/// Ticks between two points of one trip.
pub const IDLE_EVERY: usize = 100;
/// Ticks run before timing starts: every trip has sent a point and the
/// freeze/thaw cycle of the default hibernation policy is under way.
const IDLE_WARM_TICKS: usize = 2 * IDLE_EVERY;
/// Ticks per [`Cycle`]: three idle sweeps of the default hibernation
/// policy (one every 16 ticks), so each step of the cycle always does the
/// same kind of work.
const IDLE_CYCLE_TICKS: usize = 48;
/// One in this many trips still open at the end is checked against a
/// reference replay of its prefix.
const IDLE_PREFIX_SAMPLE: usize = 64;

struct Slot {
    trip: usize,
    pos: usize,
    id: SessionId,
}

/// A fleet of [`IDLE_TRIPS`] open trips, each sending its next point
/// every [`IDLE_EVERY`] ticks through a hibernating 1-shard engine; a
/// finished trip is closed and its slot opens the next trip.
pub fn idle_fleet(setup: &Setup, corpus: &Corpus, seconds: f64, spans: &mut Spans) -> Measured {
    let mut engine = StreamEngine::new(Arc::clone(&setup.model), Arc::clone(&setup.net))
        .with_hibernation(HibernationConfig::default());
    let mut m = Measured::default();
    let trips = &corpus.trips;
    let open = |engine: &mut StreamEngine, spans: &mut Spans, trip: usize| {
        let t = &trips[trip % trips.len()];
        spans.time("engine.open", || engine.open(t.sd, t.start))
    };
    let mut slots: Vec<Slot> = (0..IDLE_TRIPS)
        .map(|s| Slot {
            trip: s % trips.len(),
            pos: 0,
            id: open(&mut engine, spans, s),
        })
        .collect();
    m.attempted += IDLE_TRIPS as u64;
    let (mut events, mut out, mut due) = (Vec::new(), Vec::new(), Vec::new());
    let mut tick = 0usize;
    let mut run_ticks =
        |m: &mut Measured, engine: &mut StreamEngine, spans: &mut Spans, cycle: &mut Cycle, n| {
            let mut points = 0u64;
            for _ in 0..n {
                let (t0, cpu0) = (Instant::now(), host::thread_cpu_ns());
                let mut label_ns = 0;
                let root = spans.enter("tick");
                let phase = tick % IDLE_EVERY;
                due.clear();
                due.extend((phase..IDLE_TRIPS).step_by(IDLE_EVERY));
                events.clear();
                for &s in &due {
                    let slot = &mut slots[s];
                    if let Some(&seg) = trips[slot.trip].segments.get(slot.pos) {
                        events.push((slot.id, seg));
                        slot.pos += 1;
                    }
                }
                if !events.is_empty() {
                    let t = Instant::now();
                    spans.time("engine.observe_batch", || {
                        engine.observe_batch(&events, &mut out)
                    });
                    label_ns = t.elapsed().as_nanos() as u64;
                    m.latency.push((label_ns, events.len() as u64));
                    m.observed += events.len() as u64;
                }
                points += events.len() as u64;
                for &s in &due {
                    let slot = &mut slots[s];
                    if slot.pos == trips[slot.trip].segments.len() {
                        let labels = spans.time("engine.close", || engine.close(slot.id));
                        m.check(&labels, &corpus.reference[slot.trip]);
                        slot.trip = (slot.trip + IDLE_TRIPS) % trips.len();
                        slot.pos = 0;
                        slot.id = open(engine, spans, slot.trip);
                        m.attempted += 2;
                    }
                }
                spans.exit(root);
                let wall = t0.elapsed().as_nanos() as u64;
                let cpu = host::thread_cpu_ns() - cpu0;
                cycle.record(
                    tick % IDLE_CYCLE_TICKS,
                    wall,
                    cpu,
                    label_ns,
                    events.len() as u64,
                );
                tick += 1;
            }
            m.attempted += points;
            points
        };
    let mut warm = Cycle::new(IDLE_CYCLE_TICKS);
    run_ticks(&mut m, &mut engine, spans, &mut warm, IDLE_WARM_TICKS);
    m.latency.clear();
    let before = engine.stats();
    let mut cycle = Cycle::new(IDLE_CYCLE_TICKS);
    while m.window_s < seconds {
        let t0 = Instant::now();
        m.points += run_ticks(&mut m, &mut engine, spans, &mut cycle, IDLE_CYCLE_TICKS);
        m.window_s += t0.elapsed().as_secs_f64();
    }
    m.best_cycle(&cycle);
    let after = engine.stats();
    let (_, policy_calls) = engine.decision_counts();
    let points = m.points as f64;
    m.layer(
        "store.freezes_per_point",
        (after.sessions_hibernated - before.sessions_hibernated) as f64 / points,
    );
    m.layer(
        "store.thaws_per_point",
        (after.sessions_rehydrated - before.sessions_rehydrated) as f64 / points,
    );
    m.layer(
        "store.frozen_bytes_per_session",
        after.frozen_bytes as f64 / after.frozen_sessions.max(1) as f64,
    );
    m.layer(
        "store.resident_bytes_per_session",
        after.resident_bytes as f64 / after.resident_sessions.max(1) as f64,
    );
    // Close the trips still open; a sample of them is checked against
    // the reference labels of the prefix they were cut at.
    let mut cut = Vec::new();
    for (s, slot) in slots.iter().enumerate() {
        let labels = spans.time("engine.close", || engine.close(slot.id));
        m.attempted += 1;
        if s % IDLE_PREFIX_SAMPLE == 0 {
            cut.push(((slot.trip, slot.pos), labels));
        }
    }
    m.engine(spans, &after, policy_calls);
    let cuts: Vec<(usize, usize)> = cut.iter().map(|c| c.0).collect();
    for (want, (_, got)) in reference_prefixes(setup, corpus, &cuts).iter().zip(&cut) {
        m.check(got, want);
    }
    m
}
