//! Helpers shared by the integration tests that exercise concurrency.

use std::panic::resume_unwind;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `f` on a thread of its own and fails if it has not returned within
/// a minute, so a deadlock fails the test instead of hanging the suite.
pub fn finishes(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, wait) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        done.send(()).ok();
    });
    match wait.recv_timeout(Duration::from_secs(60)) {
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within a minute"),
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(p) = handle.join() {
                resume_unwind(p);
            }
        }
    }
}
