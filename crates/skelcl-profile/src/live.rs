//! Live metrics reporting: a background thread that periodically emits a
//! JSON-lines snapshot of the profiler's metrics registry.
//!
//! Long-running multi-GPU jobs are opaque until they finish; the
//! [`StatsReporter`] makes them observable *while running* by writing one
//! self-contained JSON object per interval — the same shape as
//! [`crate::report::metrics_json`], wrapped with a sequence number — to a
//! file or stderr. [`StatsReporter::spawn`] starts one; a `skelcl` context
//! does so when `SKELCL_STATS_INTERVAL_MS=<ms>` (and optionally
//! `SKELCL_STATS_FILE`) is set. The reporter is inert (spawns nothing) when
//! the profiler is disabled or the interval is zero.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::report::metrics_json;
use crate::Profiler;

/// Shared stop signal: the reporter thread sleeps on the condvar and wakes
/// either on timeout (emit a snapshot) or on notify (stop requested).
struct StopSignal {
    stopped: Mutex<bool>,
    condvar: Condvar,
}

/// Handle to a running stats-reporter thread. Stops (and joins) the thread
/// when dropped or when [`StatsReporter::stop`] is called; a final
/// snapshot line is emitted on stop so short runs still produce output.
pub struct StatsReporter {
    state: Option<(Arc<StopSignal>, JoinHandle<()>)>,
}

impl std::fmt::Debug for StatsReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsReporter")
            .field("running", &self.state.is_some())
            .finish()
    }
}

impl StatsReporter {
    /// A reporter that never spawned a thread (profiler disabled or
    /// interval zero).
    pub fn inert() -> Self {
        StatsReporter { state: None }
    }

    /// Whether a reporter thread is running.
    pub fn is_running(&self) -> bool {
        self.state.is_some()
    }

    /// Spawns a reporter emitting every `interval` to `path` (appended) or
    /// stderr when `path` is `None`. Inert if the profiler is disabled or
    /// `interval` is zero.
    pub fn spawn(profiler: &Profiler, interval: Duration, path: Option<PathBuf>) -> Self {
        if !profiler.is_enabled() || interval.is_zero() {
            return StatsReporter::inert();
        }
        let signal = Arc::new(StopSignal {
            stopped: Mutex::new(false),
            condvar: Condvar::new(),
        });
        let thread_signal = Arc::clone(&signal);
        let profiler = profiler.clone();
        let handle = std::thread::Builder::new()
            .name("skelcl-stats".into())
            .spawn(move || run(&profiler, interval, path, &thread_signal))
            .expect("failed to spawn stats reporter thread");
        StatsReporter {
            state: Some((signal, handle)),
        }
    }

    /// Stops the reporter thread (emitting one final snapshot line) and
    /// waits for it to exit. Idempotent.
    pub fn stop(&mut self) {
        let Some((signal, handle)) = self.state.take() else {
            return;
        };
        *signal.stopped.lock().unwrap() = true;
        signal.condvar.notify_all();
        let _ = handle.join();
    }
}

impl Drop for StatsReporter {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run(profiler: &Profiler, interval: Duration, path: Option<PathBuf>, signal: &StopSignal) {
    let mut seq: u64 = 0;
    loop {
        let stopping = {
            let mut stopped = signal.stopped.lock().unwrap();
            if !*stopped {
                stopped = signal
                    .condvar
                    .wait_timeout(stopped, interval)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            *stopped
        };
        emit(profiler, seq, stopping, path.as_deref());
        seq += 1;
        if stopping {
            return;
        }
    }
}

fn emit(profiler: &Profiler, seq: u64, fin: bool, path: Option<&std::path::Path>) {
    let Some(snapshot) = profiler.metrics_snapshot() else {
        return;
    };
    let line = Json::obj([
        ("skelcl_stats", Json::from("live/1")),
        ("seq", seq.into()),
        ("final", Json::Bool(fin)),
        ("metrics", metrics_json(&snapshot)),
    ])
    .to_json();
    match path {
        Some(p) => {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
            {
                let _ = writeln!(f, "{line}");
            }
        }
        None => eprintln!("{line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn disabled_profiler_spawns_nothing() {
        let p = Profiler::disabled();
        let r = StatsReporter::spawn(&p, Duration::from_millis(1), None);
        assert!(!r.is_running());
        let r = StatsReporter::spawn(&Profiler::enabled(), Duration::ZERO, None);
        assert!(!r.is_running());
    }

    #[test]
    fn emits_json_lines_and_final_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "skelcl-live-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.jsonl");
        let _ = std::fs::remove_file(&path);

        let p = Profiler::enabled();
        p.add(metrics::SKELETON_CALLS, 3);
        let mut r = StatsReporter::spawn(&p, Duration::from_millis(5), Some(path.clone()));
        assert!(r.is_running());
        std::thread::sleep(Duration::from_millis(40));
        p.add(metrics::SKELETON_CALLS, 1);
        r.stop();
        assert!(!r.is_running());
        r.stop(); // idempotent

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // At least one periodic line plus the final one.
        assert!(lines.len() >= 2, "got {} lines", lines.len());
        for line in &lines {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(parsed.get("skelcl_stats").unwrap().as_str(), Some("live/1"));
            assert!(parsed.get("metrics").unwrap().get("counters").is_some());
        }
        // The last line is flagged final and saw the post-sleep increment.
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("final").and_then(Json::as_bool), Some(true));
        assert_eq!(
            last.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get(metrics::SKELETON_CALLS)
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
