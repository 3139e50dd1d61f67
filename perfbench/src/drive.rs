//! The load-generator loop shared by every workload.
//!
//! One generator thread owns one [`Target`] (an in-process server handle,
//! a pipeline handle or a socket connection) and runs a phase of its
//! [`Schedule`]: open loop (send each request at its planned time, timing
//! it from that time) or closed loop (keep a fixed window outstanding).
//! Between sends it blocks on the oldest outstanding request for at most
//! [`POLL`], then sweeps the rest without blocking, so a reply that
//! overtakes an older one is seen within one poll interval. Every reply is
//! compared bit for bit with its precomputed reference as it arrives.

use std::time::{Duration, Instant};

use npcgra_nn::Word;

use crate::plan::{closed_pick, Planned, Schedule};
use crate::trace::{Spans, ROOT};

/// Longest the generator blocks on one request before sweeping the rest:
/// how late a reply that overtook an older one may be seen. Every poll is a
/// wake-up that competes with the system for the host's two cores: on a
/// contended host a 100 µs poll doubled the open-loop p50 that a 500 µs
/// poll measured.
pub const POLL: Duration = Duration::from_micros(500);

/// A phase that has not drained this long after its last send has lost
/// replies; the run fails rather than hangs.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// A completed request as the target reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reply {
    pub bit_exact: bool,
    /// Admission-to-reply time as the server measured it.
    pub server_latency: Duration,
    pub batch: usize,
    pub request_id: u64,
    /// Simulated cycles the reply reports (0 where the target reports none).
    pub cycles: u64,
}

/// Something the generator can send requests to and poll replies from.
pub trait Target {
    type Handle;
    /// Span names for this target's submit and wait calls.
    const SUBMIT: &'static str;
    const WAIT: &'static str;

    /// Send one request; returns the handle to poll and the request id if
    /// the target assigns one at submit (else 0).
    fn send(&mut self, p: &Planned) -> Result<(Self::Handle, u64), String>;

    /// Wait up to `wait` for the request's reply. `None` while it is still
    /// outstanding; `expect` is the bit-exact reference output.
    fn poll(&mut self, h: &Self::Handle, wait: Duration, expect: &[Word]) -> Option<Result<Reply, String>>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// A reply whose output differs from the reference.
    Mismatch,
    /// Refused at submit (shed, queue full, …).
    Refused,
    /// Failed after admission (or never answered).
    Failed,
}

/// One attempted request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub plan: Planned,
    /// Planned send time (open loop) or actual send time (closed loop).
    pub due: Instant,
    pub sent: Instant,
    /// When the submit call returned.
    pub submitted: Instant,
    pub done: Instant,
    pub outcome: Outcome,
    pub reply: Option<Reply>,
    /// A resubmit whose original had not been answered when it was sent.
    pub resubmit_early: bool,
}

impl Sample {
    /// Client-observed latency, from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent this request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    pub fn submit_time(&self) -> Duration {
        self.submitted.saturating_duration_since(self.sent)
    }
}

/// How a phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Send `schedule.open` at `start + at`.
    Open { start: Instant },
    /// Keep `window` outstanding from `schedule.closed` until `until`.
    Closed { window: usize, until: Instant },
}

/// Everything one generator thread saw in one phase.
#[derive(Debug)]
pub struct PhaseRun {
    pub samples: Vec<Sample>,
    pub started: Instant,
    pub spans: Spans,
}

/// Run one phase of `schedule` against `target`. `reference(p)` is the
/// expected output of planned request `p`.
pub fn run_phase<'r, T: Target>(
    target: &mut T,
    schedule: &Schedule,
    mode: Mode,
    reference: &dyn Fn(&Planned) -> &'r [Word],
    mut spans: Spans,
) -> PhaseRun {
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    // (handle, sample index, request span id)
    let mut outstanding: Vec<(T::Handle, usize, u32)> = Vec::new();
    // Keys whose reply has arrived (resubmit bookkeeping).
    let mut answered: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut next = 0usize;
    let mut last_send = started;
    loop {
        // 1. Send everything due.
        loop {
            let now = Instant::now();
            let (plan, due) = match mode {
                Mode::Open { start } => match schedule.open.get(next) {
                    Some(p) if now >= start + p.at => (*p, start + p.at),
                    _ => break,
                },
                Mode::Closed { window, until } => {
                    if outstanding.len() >= window || now >= until {
                        break;
                    }
                    (closed_pick(schedule, next), now)
                }
            };
            next += 1;
            let sent = Instant::now();
            last_send = sent;
            let result = target.send(&plan);
            let submitted = Instant::now();
            let mut sample = Sample {
                plan,
                due,
                sent,
                submitted,
                done: submitted,
                outcome: Outcome::Ok,
                reply: None,
                resubmit_early: plan.resubmit && !answered.contains(&plan.key),
            };
            match result {
                Ok((handle, request_id)) => {
                    let root = spans.record("request", due, due, ROOT, request_id);
                    spans.record(T::SUBMIT, sent, submitted, root, request_id);
                    outstanding.push((handle, samples.len(), root));
                }
                Err(_) => sample.outcome = Outcome::Refused,
            }
            samples.push(sample);
        }
        let now = Instant::now();
        let sending_done = match mode {
            Mode::Open { .. } => next >= schedule.open.len(),
            Mode::Closed { until, .. } => now >= until,
        };
        if sending_done && outstanding.is_empty() {
            break;
        }
        if sending_done && now.duration_since(last_send) > DRAIN_LIMIT {
            for (_, i, _) in outstanding.drain(..) {
                samples[i].outcome = Outcome::Failed;
                samples[i].done = now;
            }
            break;
        }
        // 2. Wait: until the next planned send, at most one poll interval.
        let wake = match mode {
            Mode::Open { start } => schedule.open.get(next).map(|p| start + p.at),
            Mode::Closed { .. } => None,
        };
        if outstanding.is_empty() {
            std::thread::sleep(wake.map_or(POLL, |w| w.saturating_duration_since(now)));
            continue;
        }
        let wait = wake.map_or(POLL, |w| w.saturating_duration_since(now).min(POLL));
        // 3. Block on the oldest, then sweep the rest without blocking.
        let mut k = 0;
        let mut first = true;
        while k < outstanding.len() {
            let (h, i, root) = &outstanding[k];
            let (i, root) = (*i, *root);
            let expect = reference(&samples[i].plan);
            let polled = target.poll(h, if first { wait } else { Duration::ZERO }, expect);
            first = false;
            let Some(result) = polled else {
                k += 1;
                continue;
            };
            let done = Instant::now();
            let s = &mut samples[i];
            s.done = done;
            match result {
                Ok(reply) => {
                    s.outcome = if reply.bit_exact { Outcome::Ok } else { Outcome::Mismatch };
                    s.reply = Some(reply);
                    answered.insert(s.plan.key);
                    spans.record(T::WAIT, s.submitted, done, root, reply.request_id);
                }
                Err(_) => s.outcome = Outcome::Failed,
            }
            if root != ROOT {
                spans.close(root, done, s.reply.map_or(0, |r| r.request_id));
            }
            outstanding.remove(k);
        }
    }
    PhaseRun { samples, started, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{schedules, SERVE_FAST};

    /// A target that answers each request after a fixed delay, correctly
    /// except for model 0 input 0.
    struct Delayed {
        delay: Duration,
        sent: Vec<Instant>,
    }

    impl Target for Delayed {
        type Handle = (usize, Planned);
        const SUBMIT: &'static str = "t.submit";
        const WAIT: &'static str = "t.wait";

        fn send(&mut self, p: &Planned) -> Result<(Self::Handle, u64), String> {
            self.sent.push(Instant::now());
            Ok(((self.sent.len() - 1, *p), self.sent.len() as u64))
        }

        fn poll(&mut self, h: &Self::Handle, wait: Duration, _expect: &[Word]) -> Option<Result<Reply, String>> {
            let ready = self.sent[h.0] + self.delay;
            let now = Instant::now();
            if now < ready {
                std::thread::sleep(wait.min(ready - now));
                if Instant::now() < ready {
                    return None;
                }
            }
            Some(Ok(Reply {
                bit_exact: !(h.1.model == 0 && h.1.input == 0),
                server_latency: self.delay,
                batch: 1,
                request_id: h.0 as u64 + 1,
                cycles: 10,
            }))
        }
    }

    #[test]
    fn closed_loop_keeps_the_window_and_checks_every_reply() {
        let sched = &schedules(&SERVE_FAST, 1, 0, 77, 0.2)[0];
        let mut t = Delayed {
            delay: Duration::from_millis(2),
            sent: Vec::new(),
        };
        let until = Instant::now() + Duration::from_millis(60);
        let reference = |_: &Planned| -> &[Word] { &[] };
        let run = run_phase(
            &mut t,
            sched,
            Mode::Closed { window: 4, until },
            &reference,
            Spans::new(Instant::now(), true),
        );
        // ~4 in flight for 60 ms at 2 ms each → on the order of 100 sends.
        assert!(run.samples.len() > 40, "{}", run.samples.len());
        for s in &run.samples {
            assert!(s.latency() >= Duration::from_millis(2));
            let wrong = s.plan.model == 0 && s.plan.input == 0;
            assert_eq!(s.outcome, if wrong { Outcome::Mismatch } else { Outcome::Ok });
        }
        assert_eq!(run.spans.durations_us("t.submit").len(), run.samples.len());
        assert_eq!(run.spans.durations_us("request").len(), run.samples.len());
    }

    #[test]
    fn open_loop_times_from_the_planned_send() {
        let sched = &schedules(&SERVE_FAST, 2, 0, 77, 0.2)[0];
        let mut t = Delayed {
            delay: Duration::from_millis(1),
            sent: Vec::new(),
        };
        let start = Instant::now();
        let reference = |_: &Planned| -> &[Word] { &[] };
        let run = run_phase(&mut t, sched, Mode::Open { start }, &reference, Spans::new(start, false));
        assert_eq!(run.samples.len(), sched.open.len());
        for (s, p) in run.samples.iter().zip(&sched.open) {
            assert_eq!(s.due, start + p.at);
            assert!(s.sent >= s.due);
            assert!(s.latency() >= s.lateness());
        }
    }
}
