//! Hang-safe execution: units run in a worker process the coordinator can
//! kill.
//!
//! The coordinator writes one unit index per line to the worker's stdin; the
//! worker answers with one line per unit.  A unit that does not answer within
//! its deadline is stopped by killing the worker, which is then waited for,
//! so it burns no core while later units are timed.  The next request starts
//! a fresh worker, which resumes at whatever index it is asked for: every
//! unit is a pure function of `(workload, seed, index)`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker may take to set up before it counts as hung.
const SETUP_TIMEOUT: Duration = Duration::from_secs(150);

/// How a unit request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The worker's answer line.
    Line(String),
    /// The unit passed its deadline; the worker was killed.
    Overrun,
    /// The worker died during the unit after `elapsed_ms`.
    Crashed {
        /// Host time from the request to the worker's exit.
        elapsed_ms: f64,
    },
}

struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(mut command: Command) -> Result<Self, String> {
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start worker: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("worker has no stdout")?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    /// Ends the worker: closes its stdin so it exits on its own, kills it if
    /// it has not within `grace`, and waits for it and its reader thread.
    fn end(mut self, grace: Duration) {
        drop(self.stdin.take());
        let started = Instant::now();
        while started.elapsed() < grace {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Killing an exited child is harmless; either way `wait` reaps it.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Runs units in a replaceable worker process.
pub struct Supervisor<F: FnMut() -> Command> {
    spawn: F,
    worker: Option<Worker>,
    started: usize,
}

impl<F: FnMut() -> Command> Supervisor<F> {
    /// `spawn()` builds the worker command.
    pub fn new(spawn: F) -> Self {
        Self {
            spawn,
            worker: None,
            started: 0,
        }
    }

    /// Workers started so far.
    pub fn workers_started(&self) -> usize {
        self.started
    }

    /// Starts a worker and returns its first line (its set-up report).
    pub fn start(&mut self) -> Result<String, String> {
        let command = (self.spawn)();
        let worker = Worker::spawn(command)?;
        self.started += 1;
        match worker.lines.recv_timeout(SETUP_TIMEOUT) {
            Ok(line) => {
                self.worker = Some(worker);
                Ok(line)
            }
            Err(e) => {
                worker.end(Duration::ZERO);
                Err(format!("worker did not finish set-up: {e}"))
            }
        }
    }

    /// Runs unit `index`, waiting at most `deadline` for its answer.
    pub fn request(&mut self, index: usize, deadline: Duration) -> Result<Reply, String> {
        if self.worker.is_none() {
            self.start()?;
        }
        let worker = self.worker.as_mut().expect("a worker was just started");
        let stdin = worker
            .stdin
            .as_mut()
            .expect("stdin stays open while the worker serves");
        let sent = Instant::now();
        if writeln!(stdin, "{index}")
            .and_then(|()| stdin.flush())
            .is_err()
        {
            return Ok(self.crashed(sent));
        }
        match worker.lines.recv_timeout(deadline) {
            Ok(line) => Ok(Reply::Line(line)),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(worker) = self.worker.take() {
                    worker.end(Duration::ZERO);
                }
                Ok(Reply::Overrun)
            }
            Err(RecvTimeoutError::Disconnected) => Ok(self.crashed(sent)),
        }
    }

    fn crashed(&mut self, sent: Instant) -> Reply {
        let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
        if let Some(worker) = self.worker.take() {
            worker.end(Duration::ZERO);
        }
        Reply::Crashed { elapsed_ms }
    }

    /// Stops the current worker, if any, and waits for it.
    pub fn stop(&mut self) {
        if let Some(worker) = self.worker.take() {
            worker.end(Duration::from_secs(5));
        }
    }
}

impl<F: FnMut() -> Command> Drop for Supervisor<F> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in worker: answers `unit <i>` at once, except that unit 1
    /// hangs (the shell replaces itself with `sleep`, so killing the worker
    /// kills the sleeper) and unit 3 exits mid-unit.
    fn fake_worker() -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(
            "echo setup; while read i; do \
               if [ \"$i\" = 1 ]; then exec sleep 30; fi; \
               if [ \"$i\" = 3 ]; then exit 3; fi; \
               echo \"unit $i\"; done",
        );
        c
    }

    #[test]
    fn a_hung_unit_is_killed_and_the_run_resumes_at_the_next_index() {
        let mut s = Supervisor::new(fake_worker);
        assert_eq!(s.start().unwrap(), "setup");
        let deadline = Duration::from_millis(300);
        assert_eq!(
            s.request(0, deadline).unwrap(),
            Reply::Line("unit 0".into())
        );

        let started = Instant::now();
        assert_eq!(s.request(1, deadline).unwrap(), Reply::Overrun);
        // Cut at the deadline, not after the 30 s the unit wanted.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(s.worker.is_none(), "the hung worker was reaped");

        // A fresh worker picks up at the next index.
        assert_eq!(
            s.request(2, deadline).unwrap(),
            Reply::Line("unit 2".into())
        );
        assert_eq!(s.workers_started(), 2);
        assert!(matches!(
            s.request(3, deadline).unwrap(),
            Reply::Crashed { .. }
        ));
        assert_eq!(
            s.request(4, deadline).unwrap(),
            Reply::Line("unit 4".into())
        );
        assert_eq!(s.workers_started(), 3);
        s.stop();
    }

    #[test]
    fn killing_a_worker_leaves_no_process_behind() {
        let mut s = Supervisor::new(fake_worker);
        s.start().unwrap();
        let pid = s.worker.as_ref().unwrap().child.id();
        assert_eq!(
            s.request(1, Duration::from_millis(200)).unwrap(),
            Reply::Overrun
        );
        // The process is gone (reaped), not merely signalled.
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists());
    }
}
