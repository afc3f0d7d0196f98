//! Tracing from outside the program: spans recorded by the benchmark
//! around each public call it makes, and CPU times read from procfs.
//!
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus the part its child spans cover; the
//! root span of an iteration therefore holds the residual that no layer
//! accounts for.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Iteration for root spans; batch (or push group) index otherwise.
    pub batch: u64,
}

/// In-memory span recorder; every call is a no-op while it is off.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            on: false,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, batch: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            batch,
        });
        self.stack.push((self.spans.len() - 1) as u32);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("exit matches an enter") as usize;
        self.spans[i].end_ns = self.now_ns();
    }

    /// Record an already-timed interval as a closed span under the
    /// innermost open one (for calls timed anyway for the end-to-end
    /// metrics, so tracing adds no second clock read).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, batch: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            batch,
        });
    }

    /// Per span name: (total duration, self time, count), in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 * 1e-9;
            e.1 += dur.saturating_sub(child[i]) as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.batch
            )?;
        }
        f.flush()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU time of the calling thread. Unlike its `schedstat` file, which
/// lags by up to a scheduler tick while the thread runs, the clock is
/// brought up to date when read.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn read_schedstat(path: &Path) -> Option<Duration> {
    let s = std::fs::read_to_string(path).ok()?;
    let ns: u64 = s.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Polls the on-CPU time of every thread whose name starts with `prefix`
/// (the runtime names its workers `jisc-shard-<i>`). A worker's CPU time
/// and lifetime end at its last sample before it exits, so each is short
/// by at most one poll period.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<HashMap<u64, (Duration, Instant)>>,
}

pub const SAMPLE_PERIOD: Duration = Duration::from_millis(10);

impl ThreadSampler {
    pub fn start(prefix: &'static str) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let mut cpu: HashMap<u64, (Duration, Instant)> = HashMap::new();
                let mut names: HashMap<u64, bool> = HashMap::new();
                loop {
                    let last = flag.load(Ordering::Acquire);
                    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
                        for entry in dir.flatten() {
                            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok())
                            else {
                                continue;
                            };
                            let ours = *names.entry(tid).or_insert_with(|| {
                                std::fs::read_to_string(entry.path().join("comm"))
                                    .is_ok_and(|c| c.starts_with(prefix))
                            });
                            if ours {
                                if let Some(t) = read_schedstat(&entry.path().join("schedstat")) {
                                    cpu.insert(tid, (t, Instant::now()));
                                }
                            }
                        }
                    }
                    if last {
                        return cpu;
                    }
                    std::thread::sleep(SAMPLE_PERIOD);
                }
            })
            .expect("spawn sampler thread");
        ThreadSampler { stop, handle }
    }

    /// Stop polling; for every matching thread seen, its final on-CPU
    /// time and when it was last seen alive.
    pub fn finish(self) -> Vec<(Duration, Instant)> {
        self.stop.store(true, Ordering::Release);
        let cpu = self.handle.join().expect("sampler thread panicked");
        cpu.into_values().collect()
    }
}
