//! The wall-clock stopwatch.
//!
//! This module is the single sanctioned home of wall-clock reads in the
//! workspace: lint rule L3 bans `std::time::Instant::now` everywhere
//! except here, so simulation code can never accidentally couple results
//! to real time. The `repro` binary and the shard pool take their timing
//! through [`Stopwatch`].

use std::time::Instant;

/// A simple wall-clock stopwatch for end-of-run reporting.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since start.
    pub fn elapsed_nanos(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
