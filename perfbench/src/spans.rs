//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the allocations its thread made inside it.
//! Spans stay in memory until [`Spans::summary`] folds them at exit. A
//! span's self time is its duration minus the time its child spans
//! cover. A disabled recorder does nothing, so untraced runs pay only a
//! branch per call.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

struct Rec {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

/// Token returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
pub struct Open(Option<(u32, u64)>);

/// Folded totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl Total {
    /// Mean self time per span, in ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// A single-threaded span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    recs: Vec<Rec>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.recs.len() as u32;
        self.recs.push(Rec {
            name,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(id);
        let allocs = alloc::local();
        self.recs[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(Some((id, allocs)))
    }

    pub fn exit(&mut self, open: Open) {
        let Some((id, allocs)) = open.0 else { return };
        let end = self.epoch.elapsed().as_nanos() as u64;
        let rec = &mut self.recs[id as usize];
        rec.end_ns = end;
        rec.allocs = alloc::local() - allocs;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per-name totals: span count, summed self time and allocations.
    pub fn summary(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (r, child) in self.recs.iter().zip(child_ns) {
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.self_ns += (r.end_ns - r.start_ns).saturating_sub(child);
            t.allocs += r.allocs;
        }
        out
    }
}
