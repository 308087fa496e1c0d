//! RAII span timer.

use std::time::Instant;

use crate::histogram::Histogram;

/// A scope timer: created by [`Histogram::time`], records the elapsed
/// wall-clock microseconds into its histogram when dropped.
///
/// Spans are observers — they read the clock and bump two atomics, and
/// never influence the code they wrap.
#[derive(Debug)]
pub struct Span<'h> {
    histogram: &'h Histogram,
    started: Instant,
}

impl<'h> Span<'h> {
    pub(crate) fn new(histogram: &'h Histogram) -> Self {
        Self {
            histogram,
            started: Instant::now(),
        }
    }

    /// Microseconds elapsed since the span started.
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.histogram.observe(self.elapsed_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_observes_elapsed_time() {
        let h = Histogram::new();
        {
            let span = h.time();
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(span.elapsed_micros() >= 2_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum() >= 2_000);
    }
}
