//! The wall-clock stopwatch.
//!
//! This module is the single sanctioned home of wall-clock reads in the
//! workspace: `clippy.toml` disallows `std::time::Instant` everywhere,
//! and only this module expects it, so simulation code can never
//! accidentally couple results to real time. The `repro` binary and the
//! shard pool take their timing through [`Stopwatch`].

/// A simple wall-clock stopwatch for end-of-run reporting.
#[expect(clippy::disallowed_types, reason = "the workspace's one wall clock")]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[expect(clippy::disallowed_types, reason = "the workspace's one wall clock")]
    pub fn start() -> Stopwatch {
        Stopwatch { start: std::time::Instant::now() }
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(b >= a);
    }
}
