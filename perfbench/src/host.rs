//! What the host says about a run: per-thread CPU time and peak RSS from
//! `/proc`, and a fixed vector-unit reference loop that exposes slow
//! host phases (diagnostics only; nothing here gates a run).

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Kernel thread id of the calling thread.
pub fn tid() -> u32 {
    let link = fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("thread id in /proc/thread-self")
}

/// One thread's name and cumulative on-CPU nanoseconds.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub name: String,
    pub ns: u64,
}

/// On-CPU time of every live thread of this process, by thread id, from
/// `/proc/self/task/*/schedstat` (nanosecond resolution).
pub fn threads() -> HashMap<u32, ThreadCpu> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        // A thread can exit between listing and reading; skip it.
        let Ok(stat) = fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let Some(ns) = stat.split_whitespace().next().and_then(|v| v.parse().ok()) else {
            continue;
        };
        let name = fs::read_to_string(path.join("comm")).unwrap_or_default();
        out.insert(
            tid,
            ThreadCpu {
                name: name.trim().to_string(),
                ns,
            },
        );
    }
    out
}

/// Wall and CPU time since the last lap, counting only the threads
/// `keep` selects (by thread id and name).
pub struct Meter<F: Fn(u32, &str) -> bool> {
    keep: F,
    t: Instant,
    cpu: HashMap<u32, ThreadCpu>,
}

impl<F: Fn(u32, &str) -> bool> Meter<F> {
    pub fn start(keep: F) -> Meter<F> {
        Meter {
            keep,
            t: Instant::now(),
            cpu: threads(),
        }
    }

    /// `(seconds, CPU ns)` since the previous lap (or the start); threads
    /// born since then count in full.
    pub fn lap(&mut self) -> (f64, u64) {
        let now = threads();
        let secs = self.t.elapsed().as_secs_f64();
        self.t = Instant::now();
        let cpu = now
            .iter()
            .filter(|(&tid, t)| (self.keep)(tid, &t.name))
            .map(|(tid, t)| t.ns.saturating_sub(self.cpu.get(tid).map_or(0, |b| b.ns)))
            .sum();
        self.cpu = now;
        (secs, cpu)
    }
}

/// CPU time the calling thread has used, in ns. Unlike `/proc`, which
/// shows a running thread's time only as of its last scheduler tick,
/// `CLOCK_THREAD_CPUTIME_ID` is exact at the moment of the call, so it can
/// time a single engine tick.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is Linux's
    // CLOCK_THREAD_CPUTIME_ID; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

const REF_DIM: usize = 64;
const REF_ROWS: usize = 256;
const REF_CALLS: usize = 2_000;

/// Nanoseconds per call of a fixed 256×64 f32 matvec (the model's gate
/// shape), median of five timings. Compiled to SSE2 like the model's own
/// kernels, so it slows exactly when the host's vector units are
/// contended — a reading of the host, not of this program.
pub fn ref_ns() -> f64 {
    let w: Vec<f32> = (0..REF_ROWS * REF_DIM)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.01)
        .collect();
    let x: Vec<f32> = (0..REF_DIM).map(|i| (i % 5) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; REF_ROWS];
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..REF_CALLS {
            let x = black_box(&x[..]);
            for (yr, row) in y.iter_mut().zip(w.chunks_exact(REF_DIM)) {
                let mut acc = [0.0f32; 4];
                for (wc, xc) in row.chunks_exact(4).zip(x.chunks_exact(4)) {
                    for k in 0..4 {
                        acc[k] += wc[k] * xc[k];
                    }
                }
                *yr = acc[0] + acc[1] + acc[2] + acc[3];
            }
            black_box(&mut y);
        }
        times.push(t.elapsed().as_nanos() as f64 / REF_CALLS as f64);
    }
    crate::stats::median(&mut times)
}
