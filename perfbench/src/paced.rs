//! The open-loop workloads: one generator thread offers the trace's
//! points at a fixed rate, whatever the program's progress, and times
//! each provisional label from the moment its point was *due*, so a
//! stall also charges the points queued behind it.
//!
//! Two doors share the generator: the in-process `IngestEngine` and the
//! `oasd-serve` wire protocol over loopback.

use crate::host;
use crate::spans::Spans;
use crate::world::Corpus;
use crate::Measured;
use rl4oasd::{IngestEngine, IngestReport};
use serve::{Client, Frame, Server, ServerConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj::{CloseTicket, IngestConfig, IngestHandle, SessionId, Subscription};

/// Offered load, points per second: about a fifth of what `fleet_replay`
/// sustains on one core, so queues stay short and latency is set by the
/// flush policy, not by saturation.
pub const RATE: f64 = 20_000.0;
/// Per-layer metrics of each door's submit span: mean self time (also
/// the span's name) and sample count.
const INGEST_SUBMIT: [&str; 2] = ["ingest.submit_ns", "ingest.submit_ns.n"];
const SERVE_SEND: [&str; 2] = ["serve.send_ns", "serve.send_ns.n"];

/// Points per trial: a quarter second of offered load.
const TRIAL_POINTS: u64 = (RATE / 4.0) as u64;
/// A point sent later than this after it was due counts as late.
const LATE_NS: u64 = 100_000;

/// What a door reports back to the generator.
pub enum Event {
    /// The next provisional label of session `id`.
    Label(u64),
    /// Session `id` closed with these final labels.
    Closed(u64, Vec<u8>),
    /// A request of session `id` was refused; more events may follow.
    Refused(u64),
    /// Session `id` ended in a fault; nothing follows.
    Faulted(u64),
}

/// A way into the serving stack, driven by bench session ids.
pub trait Door {
    fn open(&mut self, id: u64, trip: &crate::world::Trip) -> bool;
    fn submit(&mut self, id: u64, seg: rnet::SegmentId) -> bool;
    fn close(&mut self, id: u64) -> bool;
    /// Reports everything that arrived since the last poll.
    fn poll(&mut self, out: &mut Vec<Event>);
}

/// The in-process door: `IngestHandle` with one `Subscription` per
/// session and a `CloseTicket` per close.
pub struct InProcess {
    handle: IngestHandle<rl4oasd::StreamEngine>,
    sessions: Vec<Option<(SessionId, Subscription)>>,
    /// Labels owed per session, and the sessions owing any.
    owed: Vec<u32>,
    owing: Vec<u64>,
    tickets: Vec<(u64, CloseTicket)>,
}

impl InProcess {
    pub fn new(engine: &IngestEngine) -> InProcess {
        InProcess {
            handle: engine.handle(),
            sessions: Vec::new(),
            owed: Vec::new(),
            owing: Vec::new(),
            tickets: Vec::new(),
        }
    }
}

impl Door for InProcess {
    fn open(&mut self, id: u64, trip: &crate::world::Trip) -> bool {
        let k = id as usize;
        if self.sessions.len() <= k {
            self.sessions.resize_with(k + 1, || None);
            self.owed.resize(k + 1, 0);
        }
        match self.handle.open(trip.sd, trip.start) {
            Ok(s) => {
                self.sessions[k] = Some(s);
                true
            }
            Err(_) => false,
        }
    }

    fn submit(&mut self, id: u64, seg: rnet::SegmentId) -> bool {
        let k = id as usize;
        let Some((session, _)) = &self.sessions[k] else {
            return false;
        };
        if self.handle.submit(*session, seg).is_err() {
            return false;
        }
        if self.owed[k] == 0 {
            self.owing.push(id);
        }
        self.owed[k] += 1;
        true
    }

    fn close(&mut self, id: u64) -> bool {
        let Some((session, _)) = &self.sessions[id as usize] else {
            return false;
        };
        match self.handle.close(*session) {
            Ok(t) => {
                self.tickets.push((id, t));
                true
            }
            Err(_) => false,
        }
    }

    fn poll(&mut self, out: &mut Vec<Event>) {
        for &id in &self.owing {
            drain_labels(&self.sessions, &mut self.owed, id, out);
        }
        let mut i = 0;
        while i < self.tickets.len() {
            let Some(result) = self.tickets[i].1.try_wait() else {
                i += 1;
                continue;
            };
            let (id, _) = self.tickets.swap_remove(i);
            drain_labels(&self.sessions, &mut self.owed, id, out);
            out.push(match result {
                Ok(labels) => Event::Closed(id, labels),
                Err(_) => Event::Faulted(id),
            });
            self.owed[id as usize] = 0;
            self.sessions[id as usize] = None;
        }
        let owed = &self.owed;
        self.owing.retain(|&id| owed[id as usize] > 0);
    }
}

/// Reports the labels session `id` has ready, up to what it is owed.
fn drain_labels(
    sessions: &[Option<(SessionId, Subscription)>],
    owed: &mut [u32],
    id: u64,
    out: &mut Vec<Event>,
) {
    let k = id as usize;
    if let Some((_, sub)) = &sessions[k] {
        while owed[k] > 0 && sub.try_recv().is_some() {
            owed[k] -= 1;
            out.push(Event::Label(id));
        }
    }
}

/// The wire door: one `serve::Client` connection on the generator thread.
pub struct Wire {
    client: Client,
    pub polls: u64,
    pub frames: u64,
}

impl Wire {
    pub fn connect(server: &Server) -> Wire {
        Wire {
            client: Client::connect(server.wire_addr()).expect("connect to loopback server"),
            polls: 0,
            frames: 0,
        }
    }

    /// Says goodbye, reporting any frames that arrive before `Bye`.
    pub fn finish(mut self, out: &mut Vec<Event>) {
        let frames = self.client.goodbye().expect("goodbye");
        for frame in frames {
            wire_event(frame, out);
        }
    }
}

fn wire_event(frame: Frame, out: &mut Vec<Event>) {
    match frame {
        Frame::Label { session, .. } => out.push(Event::Label(session)),
        Frame::Closed { session, labels } => out.push(Event::Closed(session, labels)),
        Frame::Rejected { session, .. } => out.push(Event::Refused(session)),
        Frame::Fault { session, .. } => out.push(Event::Faulted(session)),
        _ => {}
    }
}

impl Door for Wire {
    fn open(&mut self, id: u64, trip: &crate::world::Trip) -> bool {
        self.client
            .send(&Frame::Open {
                session: id,
                tenant: 0,
                source: trip.sd.source.0,
                dest: trip.sd.dest.0,
                start_time: trip.start,
                priority: 0,
            })
            .is_ok()
    }

    fn submit(&mut self, id: u64, seg: rnet::SegmentId) -> bool {
        self.client
            .send(&Frame::Submit {
                session: id,
                segment: seg.0,
            })
            .is_ok()
    }

    fn close(&mut self, id: u64) -> bool {
        self.client.send(&Frame::Close { session: id }).is_ok()
    }

    fn poll(&mut self, out: &mut Vec<Event>) {
        loop {
            self.polls += 1;
            match self.client.try_recv() {
                Ok(Some(frame)) => {
                    self.frames += 1;
                    wire_event(frame, out);
                }
                Ok(None) => return,
                Err(e) => panic!("wire connection failed: {e}"),
            }
        }
    }
}

/// What the generator saw, before the door-specific counters.
pub struct Generated {
    pub m: Measured,
    /// Close call to final labels, ns per close.
    pub close_wait: Vec<(u64, u64)>,
    pub late_max_ns: u64,
    pub late: u64,
}

/// How long the generator waits for the last closes after its window.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// The generator's books: per session (by bench id), the due times of
/// points whose label is still owed, when its close was called, whether
/// a close is still outstanding, and whether its labels may be checked
/// (nothing refused, not cut short).
struct Books<'a> {
    corpus: &'a Corpus,
    t0: Instant,
    g: Generated,
    owed: Vec<VecDeque<u64>>,
    closed_at: Vec<u64>,
    closing: Vec<bool>,
    clean: Vec<bool>,
    outstanding: u64,
    events: Vec<Event>,
}

impl Books<'_> {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn add(&mut self, id: u64) {
        let n = id as usize + 1;
        self.owed.resize_with(n, VecDeque::new);
        self.closed_at.resize(n, 0);
        self.closing.resize(n, false);
        self.clean.resize(n, true);
    }

    fn failed(&mut self, id: u64) {
        self.g.m.failed += 1;
        self.clean[id as usize] = false;
    }

    fn close<D: Door>(&mut self, door: &mut D, id: u64) {
        let k = id as usize;
        self.g.m.attempted += 1;
        self.closed_at[k] = self.now().max(1);
        if door.close(id) {
            self.closing[k] = true;
            self.outstanding += 1;
        } else {
            self.failed(id);
        }
    }

    /// Ends session `id`'s outstanding close, if it has one.
    fn settle(&mut self, id: u64) -> bool {
        let k = id as usize;
        let was = std::mem::replace(&mut self.closing[k], false);
        self.outstanding -= u64::from(was);
        was
    }

    fn poll<D: Door>(&mut self, door: &mut D) {
        let mut events = std::mem::take(&mut self.events);
        door.poll(&mut events);
        let now = self.now();
        for ev in events.drain(..) {
            match ev {
                Event::Label(id) => {
                    if let Some(due) = self.owed[id as usize].pop_front() {
                        self.g.m.latency.push((now - due, 1));
                    }
                }
                Event::Closed(id, labels) => {
                    let k = id as usize;
                    if self.settle(id) {
                        self.g.close_wait.push((now - self.closed_at[k], 1));
                    }
                    self.owed[k].clear();
                    if self.clean[k] {
                        let trip = (id % self.corpus.trips.len() as u64) as usize;
                        self.g.m.check(&labels, &self.corpus.reference[trip]);
                    }
                }
                Event::Refused(id) => self.failed(id),
                Event::Faulted(id) => {
                    self.failed(id);
                    self.settle(id);
                }
            }
        }
        self.events = events;
    }
}

/// Offers the trace's points at [`RATE`] through `door`, pass after pass,
/// for `seconds`; then closes the trips still open and waits for every
/// close. Opens and closes go out as soon as the trace reaches them.
pub fn generate<D: Door>(
    door: &mut D,
    corpus: &Corpus,
    seconds: f64,
    spans: &mut Spans,
    submit_span: &'static str,
) -> Generated {
    let trips = corpus.trips.len() as u64;
    let budget = (seconds * RATE) as u64;
    let gap_ns = 1e9 / RATE;
    let me = host::tid();
    let mut meter = host::Meter::start(|tid, _| tid != me);
    let mut b = Books {
        corpus,
        t0: Instant::now(),
        g: Generated {
            m: Measured::default(),
            close_wait: Vec::new(),
            late_max_ns: 0,
            late: 0,
        },
        owed: Vec::new(),
        closed_at: Vec::new(),
        closing: Vec::new(),
        clean: Vec::new(),
        outstanding: 0,
        events: Vec::new(),
    };
    let mut open: Vec<u64> = Vec::new();
    let (mut sent, mut trial_sent) = (0u64, 0u64);
    'passes: for pass in 0.. {
        let base = pass * trips;
        for tick in &corpus.ticks {
            for &(trip, _, _) in &tick.opens {
                let id = base + u64::from(trip);
                b.add(id);
                b.g.m.attempted += 1;
                if door.open(id, &corpus.trips[trip as usize]) {
                    open.push(id);
                } else {
                    b.failed(id);
                }
            }
            for &(trip, seg) in &tick.points {
                if sent == budget {
                    break 'passes;
                }
                if sent - trial_sent == TRIAL_POINTS {
                    let (secs, cpu) = meter.lap();
                    b.g.m.trial(sent - trial_sent, secs, cpu);
                    trial_sent = sent;
                }
                let due = (sent as f64 * gap_ns) as u64;
                loop {
                    let now = b.now();
                    if now >= due {
                        b.g.late_max_ns = b.g.late_max_ns.max(now - due);
                        b.g.late += u64::from(now - due > LATE_NS);
                        break;
                    }
                    b.poll(door);
                    // Sleep only when the next point is far off: a sleep
                    // overshoots by tens of microseconds.
                    let wait = due.saturating_sub(b.now());
                    if wait > 200_000 {
                        std::thread::sleep(Duration::from_nanos(wait - 100_000));
                    } else {
                        std::thread::yield_now();
                    }
                }
                let id = base + u64::from(trip);
                b.g.m.attempted += 1;
                sent += 1;
                if spans.time(submit_span, || door.submit(id, seg)) {
                    b.owed[id as usize].push_back(due);
                } else {
                    b.failed(id);
                }
            }
            for &trip in &tick.closes {
                b.close(door, base + u64::from(trip));
            }
            open.retain(|&id| b.closed_at[id as usize] == 0);
        }
    }
    // Window over: cut the remaining trips short and wait for every close.
    for id in std::mem::take(&mut open) {
        b.clean[id as usize] = false;
        b.close(door, id);
    }
    let drain = Instant::now();
    while b.outstanding > 0 {
        assert!(
            drain.elapsed() < DRAIN_LIMIT,
            "{} closes still outstanding after {DRAIN_LIMIT:?}",
            b.outstanding
        );
        b.poll(door);
        std::thread::yield_now();
    }
    let (secs, cpu) = meter.lap();
    b.g.m.trial(sent - trial_sent, secs, cpu);
    b.g
}

/// `paced_ingest`: the generator through a 1-shard `IngestEngine` with
/// the default flush policy.
pub fn paced_ingest(
    setup: &crate::world::Setup,
    corpus: &Corpus,
    seconds: f64,
    spans: &mut Spans,
) -> Measured {
    let engine = IngestEngine::new(
        Arc::clone(&setup.model),
        Arc::clone(&setup.net),
        1,
        IngestConfig::default(),
    );
    let mut door = InProcess::new(&engine);
    let allocs0 = crate::alloc::total();
    let g = generate(&mut door, corpus, seconds, spans, INGEST_SUBMIT[0]);
    let allocs = crate::alloc::total() - allocs0;
    drop(door);
    let report = engine.shutdown();
    finish(g, &report, allocs, spans, INGEST_SUBMIT)
}

/// `paced_wire`: the generator through `oasd-serve` on loopback, one
/// connection, one shard, default flush policy.
pub fn paced_wire(
    setup: &crate::world::Setup,
    corpus: &Corpus,
    seconds: f64,
    spans: &mut Spans,
) -> Measured {
    let server = Server::start(
        Arc::clone(&setup.model),
        Arc::clone(&setup.net),
        ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start loopback server");
    let mut door = Wire::connect(&server);
    let allocs0 = crate::alloc::total();
    let mut meter = host::Meter::start(|_, name| name.starts_with("serve-"));
    let g = generate(&mut door, corpus, seconds, spans, SERVE_SEND[0]);
    let (_, server_cpu) = meter.lap();
    let allocs = crate::alloc::total() - allocs0;
    let (polls, frames) = (door.polls, door.frames);
    let mut late = Vec::new();
    door.finish(&mut late);
    let report = server.shutdown();
    let mut m = finish(g, &report, allocs, spans, SERVE_SEND);
    m.failed += late
        .iter()
        .filter(|e| matches!(e, Event::Refused(_) | Event::Faulted(_)))
        .count() as u64;
    m.layer("serve.polls_per_frame", polls as f64 / frames.max(1) as f64);
    m.layer(
        "serve.server_cpu_us_per_point",
        server_cpu as f64 / 1e3 / m.points.max(1) as f64,
    );
    m
}

fn finish(
    g: Generated,
    report: &IngestReport,
    allocs: u64,
    spans: &Spans,
    [submit_ns, submit_n]: [&'static str; 2],
) -> Measured {
    let Generated {
        mut m,
        mut close_wait,
        late_max_ns,
        late,
    } = g;
    let ingest = &report.ingest;
    if ingest.submitted != ingest.flushed_events
        || ingest.shed_events + ingest.quarantined_events > 0
    {
        m.mismatched += 1;
    }
    let points = m.points.max(1) as f64;
    m.layer("gen.late_max_us", late_max_ns as f64 / 1e3);
    m.layer("gen.late_share", late as f64 / points);
    m.layer(
        "ingest.events_per_flush",
        ingest.flushed_events as f64 / ingest.flushes.max(1) as f64,
    );
    m.layer(
        "ingest.flushes_per_kpoint",
        1e3 * ingest.flushes as f64 / points,
    );
    m.layer("ingest.queue_full_retries", ingest.rejected_full as f64);
    m.layer("ingest.close_wait_us.n", close_wait.len() as f64);
    if !close_wait.is_empty() {
        m.layer(
            "ingest.close_wait_us",
            crate::stats::quantile(&mut close_wait, 0.5) as f64 / 1e3,
        );
    }
    if spans.enabled() {
        m.layer("ingest.allocs_per_point", allocs as f64 / points);
        let submit = spans.summary().get(submit_ns).copied().unwrap_or_default();
        m.layer(submit_ns, submit.mean_ns());
        m.layer(submit_n, submit.count as f64);
    }
    m
}
