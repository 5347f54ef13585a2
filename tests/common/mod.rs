//! Helpers shared by the integration-test binaries.

use pmevo::SessionCheckpoint;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A scratch directory private to one test of one test process, removed
/// again when dropped. Test binaries run concurrently (and their tests
/// in parallel), so no two tests ever share a file.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory for the test `name`.
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pmevo_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    /// The path of `file` inside the directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    /// Writes `file` through a temporary sibling renamed into place, so a
    /// concurrent reader never sees a partial file, and returns its path.
    #[allow(dead_code)]
    pub fn write(&self, file: &str, contents: &str) -> PathBuf {
        let path = self.path(file);
        let tmp = self.path(&format!("{file}.tmp"));
        std::fs::write(&tmp, contents).expect("write scratch file");
        std::fs::rename(&tmp, &path).expect("move scratch file into place");
        path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Loads the checkpoint at `path` with its wall-clock fields zeroed —
/// the budget's measurement time and every round's — which leaves a
/// value that is a pure function of the run's configuration.
#[allow(dead_code)]
pub fn load_without_timings(path: &Path) -> SessionCheckpoint {
    let mut cp = SessionCheckpoint::load(path).expect("checkpoint written");
    cp.used.measurement_time = Duration::ZERO;
    cp.rounds = cp.rounds.drain(..).map(|r| r.without_timing()).collect();
    cp
}
