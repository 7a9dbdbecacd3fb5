//! Inter-domain synchronization cost model.
//!
//! The MCD design pays a penalty whenever data crosses a clock-domain
//! boundary.  The paper adopts the arbitration/synchronization circuits of
//! Sjogren and Myers, "which detect whether the source and destination
//! clock edges are far enough apart such that a source-generated signal can
//! be successfully clocked at the destination", with a synchronization
//! window of 30% of the 1 GHz period (300 ps).
//!
//! [`SyncWindow::capture_time`] implements that rule: a value produced at
//! time `t_src` is captured by the destination domain at its first rising
//! edge that is at least the window after `t_src`; if the next edge falls
//! inside the window the transfer slips by one further destination cycle.

use serde::{Deserialize, Serialize};

use crate::TimePs;

/// The synchronization-window rule for one domain-crossing direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncWindow {
    window_ps: TimePs,
}

impl SyncWindow {
    /// Creates a synchronization model with the given window (300 ps in the
    /// paper's configuration; 0 disables the penalty, which is how the
    /// fully synchronous baseline is modelled).
    pub fn new(window_ps: TimePs) -> Self {
        SyncWindow { window_ps }
    }

    /// The window size in picoseconds.
    pub fn window_ps(&self) -> TimePs {
        self.window_ps
    }

    /// Computes the time at which a value produced at `src_time_ps` becomes
    /// usable in the destination domain.
    ///
    /// `dst_next_edge_ps` is the destination clock's next scheduled rising
    /// edge and `dst_period_ps` its current period.  Future edges beyond the
    /// next one are extrapolated at the current period (jitter on future
    /// edges is unknowable at this point; the approximation error is at most
    /// a few hundred picoseconds and unbiased).
    ///
    /// Returns the absolute capture time, which is always at least
    /// `src_time_ps`.
    #[inline]
    pub fn capture_time(
        &self,
        src_time_ps: TimePs,
        dst_next_edge_ps: TimePs,
        dst_period_ps: TimePs,
    ) -> TimePs {
        assert!(dst_period_ps > 0, "destination period must be positive");
        // Find the first destination edge at or after the source time.
        let mut edge = dst_next_edge_ps;
        if edge < src_time_ps {
            let behind = src_time_ps - edge;
            let steps = behind.div_ceil(dst_period_ps);
            edge += steps * dst_period_ps;
        }
        // If the edge falls within the synchronization window of the source
        // event, the synchronizer cannot safely capture it: wait one more
        // destination cycle.
        if edge - src_time_ps < self.window_ps {
            edge += dst_period_ps;
        }
        edge
    }

    /// The synchronization latency (capture time minus source time).
    pub fn latency_ps(
        &self,
        src_time_ps: TimePs,
        dst_next_edge_ps: TimePs,
        dst_period_ps: TimePs,
    ) -> TimePs {
        self.capture_time(src_time_ps, dst_next_edge_ps, dst_period_ps) - src_time_ps
    }

    /// Expected synchronization latency for uniformly distributed source
    /// event times: half a destination period plus the *full* window, the
    /// analytical formula used to sanity-check the simulator.
    ///
    /// Derivation: let `u` be the gap to the next destination edge,
    /// uniform on `[0, p)`.  The synchronizer captures at latency `u` when
    /// `u >= w` and slips a whole destination period (latency `u + p`)
    /// when `u < w`, which happens with probability `w/p`.  Hence
    /// `E[latency] = E[u] + (w/p)*p = p/2 + w` — not `p/2 + w/2`: the
    /// window does not merely shift the capture point by itself, it forces
    /// a full-period slip whenever the edge lands inside it.
    ///
    /// Valid for `window <= period` (with a larger window more than one
    /// slip could be required, which [`SyncWindow::capture_time`] never
    /// produces either).
    pub fn expected_latency_ps(&self, dst_period_ps: TimePs) -> f64 {
        debug_assert!(
            self.window_ps <= dst_period_ps,
            "expected-latency formula assumes window <= period"
        );
        dst_period_ps as f64 / 2.0 + self.window_ps as f64
    }
}

impl Default for SyncWindow {
    /// The paper's 300 ps window.
    fn default() -> Self {
        SyncWindow::new(300)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_waits_for_next_edge_outside_window() {
        let sync = SyncWindow::new(300);
        // Source event at t=0, destination edge at t=500 with 1000 ps period:
        // 500 >= 300, so capture at 500.
        assert_eq!(sync.capture_time(0, 500, 1000), 500);
        // Destination edge at t=200 violates the window: slip to 1200.
        assert_eq!(sync.capture_time(0, 200, 1000), 1200);
        // Exactly at the window boundary is safe.
        assert_eq!(sync.capture_time(0, 300, 1000), 300);
    }

    #[test]
    fn capture_extrapolates_past_edges() {
        let sync = SyncWindow::new(300);
        // Destination's recorded next edge is in the past; edges repeat
        // every 1000 ps: 200, 1200, 2200, ... Source event at 1500 -> next
        // edge 2200, and 2200-1500=700 >= 300, so capture at 2200.
        assert_eq!(sync.capture_time(1500, 200, 1000), 2200);
        // Source event at 2000 -> next edge 2200, 200 < 300 -> 3200.
        assert_eq!(sync.capture_time(2000, 200, 1000), 3200);
    }

    #[test]
    fn zero_window_still_waits_for_edge() {
        let sync = SyncWindow::new(0);
        assert_eq!(sync.capture_time(0, 700, 1000), 700);
        assert_eq!(sync.capture_time(750, 700, 1000), 1700);
        // An edge coincident with the source event captures immediately.
        assert_eq!(sync.capture_time(700, 700, 1000), 700);
    }

    #[test]
    fn latency_is_capture_minus_source() {
        let sync = SyncWindow::default();
        assert_eq!(sync.window_ps(), 300);
        assert_eq!(sync.latency_ps(100, 500, 1000), 400);
        assert_eq!(sync.latency_ps(400, 500, 1000), 1100);
    }

    #[test]
    fn capture_time_never_before_source() {
        let sync = SyncWindow::new(300);
        for src in (0..5000).step_by(37) {
            for edge in (0..3000).step_by(113) {
                for period in [1000u64, 1333, 2000, 4000] {
                    let t = sync.capture_time(src, edge, period);
                    assert!(t >= src);
                    // When the recorded next edge is not in the future of the
                    // source event, capture is never more than one period plus
                    // the window late.
                    if edge <= src {
                        assert!(t - src <= period + sync.window_ps());
                    }
                }
            }
        }
    }

    #[test]
    fn expected_latency_formula() {
        let sync = SyncWindow::new(300);
        assert!((sync.expected_latency_ps(1000) - 800.0).abs() < 1e-9);
        let nosync = SyncWindow::new(0);
        assert!((nosync.expected_latency_ps(1000) - 500.0).abs() < 1e-9);
    }

    /// The regression test that would have caught the historical `w/2`
    /// error: sweep source times uniformly through [`SyncWindow::capture_time`]
    /// and compare the empirical mean latency against the analytic formula.
    ///
    /// Sweeping every integer source time across whole destination periods
    /// samples the gap-to-next-edge uniformly and exactly, so the empirical
    /// mean is `(p-1)/2 + w` — the continuous `p/2 + w` minus half a
    /// picosecond of discretization.
    #[test]
    fn empirical_mean_latency_matches_expected_formula() {
        for (period, window) in [(1000u64, 300u64), (1000, 0), (2000, 300), (1333, 400)] {
            let sync = SyncWindow::new(window);
            let dst_next_edge = 0;
            let periods = 200u64;
            let mut total = 0u64;
            let n = periods * period;
            for src in 0..n {
                total += sync.latency_ps(src, dst_next_edge, period);
            }
            let mean = total as f64 / n as f64;
            let expected = sync.expected_latency_ps(period);
            let discretization = 0.5;
            assert!(
                (mean - (expected - discretization)).abs() < 1e-6,
                "period {period} window {window}: empirical mean {mean}, formula {expected}"
            );
            // The old `p/2 + w/2` value is far outside any tolerance for
            // non-zero windows.
            if window > 0 {
                let old_wrong = period as f64 / 2.0 + window as f64 / 2.0;
                assert!(
                    (mean - old_wrong).abs() > window as f64 / 2.0 - 1.0,
                    "the sweep must reject the historical w/2 formula"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        SyncWindow::default().capture_time(0, 0, 0);
    }
}
