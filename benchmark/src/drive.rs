//! The load generator: two closed-loop client threads, each sending its
//! next operation only after the previous one completed, over its own
//! long-lived connection.  Latencies are kept per operation.  The
//! measured phase is cut into ten equal consecutive chunks and every
//! timing is taken from the five in which most operations completed: a
//! noisy neighbour on the host slows a chunk down, nothing speeds one up,
//! and the slow-downs seen on the sandbox last one to three seconds.

use crate::stats;
use crate::trace::Tracer;
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const CLIENT_THREADS: usize = 2;
pub const CHUNKS: usize = 10;

/// What one operation came to.
pub struct Outcome {
    /// Status, body and (for controls) refusal were all as expected.
    pub ok: bool,
    /// Request plus response bytes on the wire.
    pub bytes: u32,
}

/// One client thread's view of a workload.
pub trait Client: Send {
    /// Runs this client's next operation, recording client spans when a
    /// tracer is given.  `None` once the fixed sequence has run out.
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Option<Outcome>;
}

#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time since the phase began.
    pub end_ns: u64,
    pub latency_ns: u64,
    pub ok: bool,
    pub bytes: u32,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    /// From the common start to the last completion.
    pub elapsed: Duration,
    /// Client spans, when the phase was traced.
    pub tracer: Option<Tracer>,
}

/// When a phase ends: at the time limit or after `ops` operations per
/// client, whichever comes first.
#[derive(Clone, Copy)]
pub struct Limit {
    pub time: Duration,
    pub ops_per_client: usize,
}

impl Limit {
    pub fn time(time: Duration) -> Limit {
        Limit {
            time,
            ops_per_client: usize::MAX,
        }
    }
}

/// Runs every client in its own thread until `limit`.
pub fn drive(clients: &mut [Box<dyn Client>], limit: Limit, traced: bool) -> Phase {
    let barrier = Barrier::new(clients.len());
    let epoch = Instant::now();
    let per_thread: Vec<(Vec<Sample>, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = traced.then(Tracer::new);
                    let mut samples = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + limit.time;
                    for n in 0..limit.ops_per_client {
                        let begin = Instant::now();
                        if begin >= deadline {
                            break;
                        }
                        if let Some(t) = tracer.as_mut() {
                            // Interleave op ids so both threads' spans sort
                            // into one sequence.
                            t.begin_op((n * CLIENT_THREADS + thread) as u64);
                        }
                        let Some(outcome) = client.op(tracer.as_mut()) else {
                            break;
                        };
                        let end = Instant::now();
                        samples.push(Sample {
                            end_ns: (end - epoch).as_nanos() as u64,
                            latency_ns: (end - begin).as_nanos() as u64,
                            ok: outcome.ok,
                            bytes: outcome.bytes,
                        });
                    }
                    (samples, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut tracer: Option<Tracer> = None;
    for (s, t) in per_thread {
        samples.extend(s);
        match (&mut tracer, t) {
            (Some(all), Some(t)) => all.absorb(t),
            (None, t) => tracer = t,
            (Some(_), None) => {}
        }
    }
    samples.sort_by_key(|s| s.end_ns);
    // The barrier released the threads a little after `epoch`; count time
    // from the first operation's start.
    let begin_ns = samples
        .iter()
        .map(|s| s.end_ns - s.latency_ns)
        .min()
        .unwrap_or(0);
    for s in &mut samples {
        s.end_ns -= begin_ns;
    }
    let elapsed = Duration::from_nanos(samples.last().map_or(0, |s| s.end_ns));
    Phase {
        samples,
        elapsed,
        tracer,
    }
}

/// The end-to-end view of one measured phase.
pub struct PhaseSummary {
    pub attempted: usize,
    pub failed: usize,
    pub throughput_rps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub wire_bytes_per_op: f64,
    /// Operations completed in each chunk, in time order.
    pub chunk_ops: Vec<usize>,
    /// Latency samples the two percentiles rest on.
    pub quiet_samples: usize,
    pub elapsed_s: f64,
}

impl Phase {
    /// Splits the phase into [`CHUNKS`] equal consecutive time slices and
    /// keeps the half in which most operations completed.  Throughput is
    /// the median rate of the kept slices; the percentiles are taken over
    /// their pooled latencies.  Failures and bytes count every operation.
    pub fn summarize(&self) -> PhaseSummary {
        let total_ns = self.elapsed.as_nanos().max(1);
        let mut chunks: Vec<Vec<f64>> = vec![Vec::new(); CHUNKS];
        for s in &self.samples {
            let c = (u128::from(s.end_ns) * CHUNKS as u128 / (total_ns + 1)) as usize;
            chunks[c.min(CHUNKS - 1)].push(s.latency_ns as f64 / 1e3);
        }
        let chunk_ops: Vec<usize> = chunks.iter().map(Vec::len).collect();
        let chunk_s = total_ns as f64 / 1e9 / CHUNKS as f64;
        chunks.sort_by_key(|c| std::cmp::Reverse(c.len()));
        chunks.truncate(CHUNKS / 2);
        let rates: Vec<f64> = chunks.iter().map(|c| c.len() as f64 / chunk_s).collect();
        let mut quiet: Vec<f64> = chunks.into_iter().flatten().collect();
        stats::sort(&mut quiet);
        let percentile = |q: f64| {
            if quiet.is_empty() {
                0.0
            } else {
                stats::quantile_sorted(&quiet, q)
            }
        };
        let attempted = self.samples.len();
        let bytes: u64 = self.samples.iter().map(|s| u64::from(s.bytes)).sum();
        PhaseSummary {
            attempted,
            failed: self.samples.iter().filter(|s| !s.ok).count(),
            throughput_rps: stats::median(&rates),
            latency_p50_us: percentile(0.50),
            latency_p99_us: percentile(0.99),
            wire_bytes_per_op: bytes as f64 / attempted.max(1) as f64,
            chunk_ops,
            quiet_samples: quiet.len(),
            elapsed_s: total_ns as f64 / 1e9,
        }
    }
}
