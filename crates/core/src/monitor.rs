//! Live progress monitoring — the `pegasus-status` equivalent.
//!
//! [`StatusMonitor`] keeps running counts and renders the familiar
//! one-line status (`%done  queued/running/done/failed`);
//! [`TimelineMonitor`] records a full event timeline suitable for
//! Gantt rendering and concurrency analysis (how many jobs were in
//! flight at any simulated/real moment). Both are
//! [`EventSink`]s: pass them to [`crate::engine::Engine::run`] live, or
//! feed them a recorded stream offline.

use crate::events::{EventSink, WorkflowEvent};

/// Running counters and a status line.
#[derive(Debug, Default, Clone)]
pub struct StatusMonitor {
    /// Total jobs expected (set at construction).
    pub total: usize,
    /// Attempts currently in flight.
    pub in_flight: usize,
    /// Jobs completed successfully.
    pub done: usize,
    /// Attempts that failed (retries count individually).
    pub failed_attempts: usize,
    /// Total submissions seen.
    pub submissions: usize,
    /// Retries scheduled by the engine (with or without backoff).
    pub retries: usize,
    /// Cumulative backoff delay inserted before retries, in seconds.
    pub backoff_wait: f64,
    /// Captured status lines, one per state change (for tests/UIs).
    pub history: Vec<String>,
}

impl StatusMonitor {
    /// Creates a monitor expecting `total` jobs.
    pub fn new(total: usize) -> Self {
        StatusMonitor {
            total,
            ..Default::default()
        }
    }

    /// Percent of jobs completed.
    pub fn percent_done(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.done as f64 / self.total as f64
        }
    }

    /// The `pegasus-status`-style one-liner.
    pub fn status_line(&self) -> String {
        format!(
            "{:>5.1}% done | {} running | {}/{} jobs | {} failed attempts",
            self.percent_done(),
            self.in_flight,
            self.done,
            self.total,
            self.failed_attempts
        )
    }
}

impl EventSink for StatusMonitor {
    fn event(&mut self, ev: &WorkflowEvent) {
        match ev {
            WorkflowEvent::Submitted { .. } => {
                self.in_flight += 1;
                self.submissions += 1;
            }
            WorkflowEvent::Completed { .. } => {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.done += 1;
            }
            WorkflowEvent::Failed { .. } | WorkflowEvent::TimedOut { .. } => {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.failed_attempts += 1;
            }
            WorkflowEvent::RetryScheduled { backoff, .. } => {
                self.retries += 1;
                self.backoff_wait += backoff;
                return;
            }
            _ => return,
        }
        self.history.push(self.status_line());
    }
}

/// One row of the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Job display name.
    pub name: String,
    /// Transformation name.
    pub transformation: String,
    /// Attempt number.
    pub attempt: u32,
    /// Execution start (slot acquired).
    pub start: f64,
    /// Termination time.
    pub end: f64,
    /// Whether the attempt succeeded.
    pub succeeded: bool,
}

/// Records every attempt's execution interval.
#[derive(Debug, Default, Clone)]
pub struct TimelineMonitor {
    /// Completed attempt intervals, in completion order.
    pub entries: Vec<TimelineEntry>,
    /// `(name, transformation)` per job, from the stream's manifest.
    jobs: Vec<(String, String)>,
}

impl TimelineMonitor {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum number of simultaneously executing attempts — the
    /// realised concurrency of the run.
    pub fn peak_concurrency(&self) -> usize {
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.entries.len() * 2);
        for e in &self.entries {
            events.push((e.start, 1));
            events.push((e.end, -1));
        }
        // Ends sort before starts at equal times so touching intervals
        // don't double-count.
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
        });
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, delta) in events {
            cur += delta;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }

    /// Renders the timeline as CSV (`name,transformation,attempt,start,end,succeeded`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,transformation,attempt,start_s,end_s,succeeded\n");
        for e in &self.entries {
            out.push_str(&crate::csv::csv_row(&[
                e.name.clone(),
                e.transformation.clone(),
                e.attempt.to_string(),
                format!("{:.3}", e.start),
                format!("{:.3}", e.end),
                e.succeeded.to_string(),
            ]));
        }
        out
    }
}

impl EventSink for TimelineMonitor {
    fn event(&mut self, ev: &WorkflowEvent) {
        let (job, attempt, times, succeeded) = match ev {
            WorkflowEvent::JobDeclared {
                job,
                name,
                transformation,
                ..
            } => {
                if job.idx() == self.jobs.len() {
                    self.jobs.push((name.clone(), transformation.clone()));
                }
                return;
            }
            WorkflowEvent::Completed {
                job,
                attempt,
                times,
            } => (job, attempt, times, true),
            WorkflowEvent::Failed {
                job,
                attempt,
                times,
                ..
            }
            | WorkflowEvent::TimedOut {
                job,
                attempt,
                times,
                ..
            } => (job, attempt, times, false),
            _ => return,
        };
        // Jobs the stream never declared have no name to log under.
        if let Some((name, transformation)) = self.jobs.get(job.idx()) {
            self.entries.push(TimelineEntry {
                name: name.clone(),
                transformation: transformation.clone(),
                attempt: *attempt,
                start: times.started,
                end: times.finished,
                succeeded,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::log;

    /// Timestamps of an attempt that ran over [0, 5].
    const T: &str = "submitted=0 started=0 install-done=0 finished=5";

    /// Feeds `sink` the events of the hand-written event-log lines.
    fn feed(sink: &mut (impl EventSink + ?Sized), lines: &str) {
        for ev in log::parse(lines).unwrap() {
            sink.event(&ev);
        }
    }

    /// A timeline fed one successful attempt per `(start, end)`
    /// interval, job `i` named after its index.
    fn timeline(intervals: &[(f64, f64)]) -> TimelineMonitor {
        let mut t = TimelineMonitor::new();
        for (i, (start, end)) in intervals.iter().enumerate() {
            feed(
                &mut t,
                &format!(
                    "job id={i} kind=compute transformation=t name={i}\n\
                     completed job={i} attempt=0 submitted={start} started={start} \
                     install-done={start} finished={end}\n"
                ),
            );
        }
        t
    }

    #[test]
    fn status_counts_and_percentages() {
        let mut m = StatusMonitor::new(4);
        assert_eq!(m.percent_done(), 0.0);
        feed(
            &mut m,
            "submitted time=0 job=0 attempt=0\nsubmitted time=0 job=1 attempt=0",
        );
        assert_eq!(m.in_flight, 2);
        feed(&mut m, &format!("completed job=0 attempt=0 {T}"));
        assert_eq!(m.done, 1);
        assert_eq!(m.in_flight, 1);
        assert_eq!(m.percent_done(), 25.0);
        feed(
            &mut m,
            &format!("failed job=1 attempt=0 reason=error {T} detail=x"),
        );
        assert_eq!(m.failed_attempts, 1);
        assert!(m.status_line().contains("25.0% done"));
        assert_eq!(m.history.len(), 4);
    }

    #[test]
    fn status_monitor_tallies_retries_and_backoff() {
        let mut m = StatusMonitor::new(2);
        for (attempt, backoff) in [(1, 5), (2, 10)] {
            feed(
                &mut m,
                &format!(
                    "retry-scheduled time=0 job=0 next-attempt={attempt} backoff={backoff} \
                     reason=preempted detail=preempted"
                ),
            );
        }
        assert_eq!(m.retries, 2);
        assert_eq!(m.backoff_wait, 15.0);
        // Retry events don't pollute the status history.
        assert!(m.history.is_empty());
    }

    #[test]
    fn empty_status_is_100_percent() {
        assert_eq!(StatusMonitor::new(0).percent_done(), 100.0);
    }

    #[test]
    fn timeline_records_intervals_and_concurrency() {
        let mut t = timeline(&[(0.0, 10.0), (2.0, 8.0), (10.0, 15.0)]);
        assert_eq!(t.entries.len(), 3);
        assert_eq!(t.peak_concurrency(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("0,t,0,0.000,10.000,true"));
        // An undeclared job has no name to log under and is skipped.
        feed(&mut t, &format!("completed job=7 attempt=0 {T}"));
        assert_eq!(t.entries.len(), 3);
    }

    #[test]
    fn touching_intervals_do_not_double_count() {
        assert_eq!(timeline(&[(0.0, 10.0), (10.0, 20.0)]).peak_concurrency(), 1);
    }

    #[test]
    fn empty_timeline_has_zero_peak() {
        assert_eq!(TimelineMonitor::new().peak_concurrency(), 0);
    }

    #[test]
    fn zero_job_workflow_finishes_at_100_percent() {
        use crate::engine::scripted::ScriptedBackend;
        use crate::engine::{Engine, EngineConfig};
        use crate::planner::ExecutableWorkflow;

        let wf = ExecutableWorkflow {
            name: "empty".into(),
            site: "test".into(),
            jobs: vec![],
            edges: vec![],
        };
        let mut m = StatusMonitor::new(wf.jobs.len());
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf,
            &EngineConfig::default(),
            &mut m,
        );
        assert!(run.succeeded());
        assert_eq!(m.percent_done(), 100.0);
        assert_eq!(m.submissions, 0);
        assert_eq!(m.in_flight, 0);
        // No state changes → no history entries, but the status line
        // still renders sensibly.
        assert!(m.history.is_empty());
        assert!(
            m.status_line().contains("100.0% done"),
            "{}",
            m.status_line()
        );
        assert!(m.status_line().contains("0/0 jobs"), "{}", m.status_line());
    }

    #[test]
    fn peak_concurrency_breaks_simultaneous_ties() {
        // Three intervals share t = 5 as both an end and two starts:
        // the ending attempt must not be counted alongside them.
        let t = timeline(&[(0.0, 5.0), (5.0, 10.0), (5.0, 10.0)]);
        assert_eq!(t.peak_concurrency(), 2);

        // Identical intervals all count simultaneously...
        assert_eq!(timeline(&[(0.0, 5.0); 3]).peak_concurrency(), 3);

        // ...including zero-width ones, where the start still sorts
        // after the end at the same instant (net zero, peak from the
        // longer-lived neighbour only).
        assert_eq!(timeline(&[(5.0, 5.0), (0.0, 10.0)]).peak_concurrency(), 1);
    }

    #[test]
    fn sink_slice_preserves_order() {
        use std::cell::RefCell;
        struct Tagged<'t>(&'static str, &'t RefCell<Vec<String>>);
        impl EventSink for Tagged<'_> {
            fn event(&mut self, ev: &WorkflowEvent) {
                let at = ev.time().unwrap_or(-1.0);
                self.1.borrow_mut().push(format!("{}@{at}", self.0));
            }
        }
        let tape = RefCell::new(Vec::new());
        let sinks: &mut [&mut dyn EventSink] =
            &mut [&mut Tagged("first", &tape), &mut Tagged("second", &tape)];
        feed(
            sinks,
            &format!("submitted time=0 job=0 attempt=0\ncompleted job=0 attempt=0 {T}"),
        );
        assert_eq!(
            *tape.borrow(),
            ["first@0", "second@0", "first@5", "second@5"]
        );
    }

    #[test]
    fn sink_slice_fans_out() {
        let mut status = StatusMonitor::new(1);
        let mut timeline = TimelineMonitor::new();
        feed(
            &mut [&mut status as &mut dyn EventSink, &mut timeline],
            &format!(
                "job id=0 kind=compute transformation=t name=a\n\
                 submitted time=0 job=0 attempt=0\n\
                 retry-scheduled time=0 job=0 next-attempt=1 backoff=2.5 reason=error detail=x\n\
                 completed job=0 attempt=0 {T}"
            ),
        );
        assert_eq!(status.done, 1);
        assert_eq!(status.retries, 1);
        assert_eq!(status.backoff_wait, 2.5);
        assert_eq!(timeline.entries.len(), 1);
    }
}
