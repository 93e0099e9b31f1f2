//! 802.11 DCF: the timing constants, binary-exponential backoff, and the
//! per-station contention state machine that an event-queue-scheduled
//! testbed drives.
//!
//! SourceSync keeps the 802.11 medium-access discipline unchanged — only
//! the *lead* sender contends; co-senders join its transmission (paper
//! §3). A [`DcfContender`] turns "the air went idle at `t`" into the
//! absolute [`Time`] of this station's next transmission attempt (DIFS +
//! residual backoff), freezes the unspent backoff when the air goes busy
//! before the attempt fires (802.11's countdown-freeze, at the granularity
//! of one deferral), and carries the binary-exponential window plus retry
//! accounting across ACK timeouts.
//!
//! The contender is medium-agnostic: it owns no clock and no queue. A
//! driver (e.g. `ssync_testbed`) pops its own events, asks the contender
//! for attempt times, and reports outcomes back — which keeps this state
//! machine unit-testable with plain arithmetic.

use rand::Rng;
use ssync_sim::{Duration, Time};

/// Transmission attempts per frame, the initial one included: 802.11's
/// default short retry limit. Every ARQ loop in the workspace uses it.
pub const RETRY_LIMIT: u32 = 7;

/// DCF timing constants (802.11a/g OFDM PHY values).
#[derive(Debug, Clone, Copy)]
pub struct DcfTiming {
    /// Short interframe space.
    pub sifs: Duration,
    /// Slot time.
    pub slot: Duration,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
}

impl Default for DcfTiming {
    fn default() -> Self {
        DcfTiming {
            sifs: Duration::from_secs_f64(10e-6),
            slot: Duration::from_secs_f64(9e-6),
            cw_min: 15,
            cw_max: 1023,
        }
    }
}

impl DcfTiming {
    /// DIFS = SIFS + 2 slots.
    pub fn difs(&self) -> Duration {
        Duration(self.sifs.0 + 2 * self.slot.0)
    }
}

/// Per-station backoff state (binary exponential).
#[derive(Debug, Clone)]
pub struct Backoff {
    timing: DcfTiming,
    cw: u32,
}

impl Backoff {
    /// Fresh state at CWmin.
    pub fn new(timing: DcfTiming) -> Self {
        Backoff {
            cw: timing.cw_min,
            timing,
        }
    }

    /// Draws a backoff duration for the next attempt.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        let slots = rng.gen_range(0..=self.cw);
        Duration(self.timing.slot.0 * slots as u64)
    }

    /// Doubles the window after a failed attempt (capped at CWmax).
    pub fn on_failure(&mut self) {
        self.cw = ((self.cw + 1) * 2 - 1).min(self.timing.cw_max);
    }

    /// Resets to CWmin after a success.
    pub fn on_success(&mut self) {
        self.cw = self.timing.cw_min;
    }

    /// Current contention window in slots.
    pub fn cw(&self) -> u32 {
        self.cw
    }
}

/// Timing of one DATA→ACK turn on the event timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckSchedule {
    /// When the acknowledging station starts its ACK (data end + SIFS).
    pub ack_start: Time,
    /// When the ACK transmission ends.
    pub ack_end: Time,
    /// When the data sender gives up waiting (one slot of guard after the
    /// latest possible ACK end — the 802.11 ACKTimeout shape).
    pub timeout: Time,
}

/// Computes the ACK schedule for a data transmission ending at `data_end`.
pub fn ack_schedule(timing: &DcfTiming, data_end: Time, ack_duration: Duration) -> AckSchedule {
    let ack_start = data_end + timing.sifs;
    let ack_end = ack_start + ack_duration;
    AckSchedule {
        ack_start,
        ack_end,
        timeout: ack_end + timing.slot,
    }
}

/// Per-station DCF contention state: binary-exponential backoff with
/// countdown freezing and retry accounting.
#[derive(Debug, Clone)]
pub struct DcfContender {
    timing: DcfTiming,
    backoff: Backoff,
    /// Residual backoff frozen by the last deferral, if any.
    frozen: Option<Duration>,
    /// Backoff drawn for the currently scheduled attempt.
    pending: Option<Duration>,
    /// Consecutive failed attempts for the head-of-queue frame.
    retries: u32,
}

impl DcfContender {
    /// A fresh contender at CWmin.
    pub fn new(timing: DcfTiming) -> Self {
        DcfContender {
            backoff: Backoff::new(timing),
            timing,
            frozen: None,
            pending: None,
            retries: 0,
        }
    }

    /// The DCF timing constants this station runs.
    pub fn timing(&self) -> &DcfTiming {
        &self.timing
    }

    /// Consecutive failures recorded for the current frame.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Current contention window, in slots.
    pub fn cw(&self) -> u32 {
        self.backoff.cw()
    }

    /// Schedules the next transmission attempt assuming the air is (or
    /// becomes) idle at `idle_from`: DIFS plus the frozen residual backoff
    /// if a deferral left one, else a fresh draw from the current window.
    pub fn attempt_at<R: Rng + ?Sized>(&mut self, rng: &mut R, idle_from: Time) -> Time {
        let backoff = match self.frozen.take() {
            Some(residual) => residual,
            None => self.backoff.draw(rng),
        };
        self.pending = Some(backoff);
        idle_from + self.timing.difs() + backoff
    }

    /// The scheduled attempt found the air busy: freeze the backoff that
    /// had not yet counted down when the air went busy at `busy_from`
    /// (the attempt was scheduled to fire at `scheduled`). The next
    /// [`attempt_at`](DcfContender::attempt_at) resumes from the residue
    /// instead of drawing afresh — the fairness property of 802.11's
    /// countdown freeze.
    pub fn defer(&mut self, scheduled: Time, busy_from: Time) {
        let drawn = self.pending.take().unwrap_or(Duration::ZERO);
        // The portion of the drawn backoff that lay after the air went
        // busy is unspent; everything before it (and the DIFS) is lost.
        let unspent = scheduled.saturating_since(busy_from).min(drawn);
        self.frozen = Some(unspent);
    }

    /// The attempt transmitted and the exchange succeeded: reset the
    /// window and the retry count.
    pub fn on_success(&mut self) {
        self.pending = None;
        self.frozen = None;
        self.backoff.on_success();
        self.retries = 0;
    }

    /// The attempt transmitted but the exchange failed (no ACK, collision):
    /// double the window and count the retry. Returns `true` while the
    /// station should retry, `false` once [`RETRY_LIMIT`] attempts (the
    /// initial one included) are exhausted — at which point the state is
    /// reset for the next frame, as 802.11 discards the MPDU.
    pub fn on_failure(&mut self) -> bool {
        self.pending = None;
        self.frozen = None;
        self.retries += 1;
        if self.retries >= RETRY_LIMIT {
            self.backoff.on_success();
            self.retries = 0;
            false
        } else {
            self.backoff.on_failure();
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn contender() -> DcfContender {
        DcfContender::new(DcfTiming::default())
    }

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        let t = DcfTiming::default();
        assert_eq!(t.difs().as_secs_f64(), 10e-6 + 2.0 * 9e-6);
    }

    #[test]
    fn backoff_draws_within_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Backoff::new(DcfTiming::default());
        for _ in 0..100 {
            let d = b.draw(&mut rng);
            assert!(d.0 <= DcfTiming::default().slot.0 * 15);
        }
    }

    #[test]
    fn window_doubles_and_caps() {
        let mut b = Backoff::new(DcfTiming::default());
        assert_eq!(b.cw(), 15);
        b.on_failure();
        assert_eq!(b.cw(), 31);
        b.on_failure();
        assert_eq!(b.cw(), 63);
        for _ in 0..10 {
            b.on_failure();
        }
        assert_eq!(b.cw(), 1023);
        b.on_success();
        assert_eq!(b.cw(), 15);
    }

    #[test]
    fn attempt_is_difs_plus_bounded_backoff() {
        let mut c = contender();
        let mut rng = StdRng::seed_from_u64(1);
        let t = DcfTiming::default();
        for _ in 0..50 {
            let at = c.attempt_at(&mut rng, Time(1_000_000_000));
            let offset = at.saturating_since(Time(1_000_000_000));
            assert!(offset >= t.difs());
            assert!(offset.0 <= t.difs().0 + u64::from(t.cw_min) * t.slot.0);
            c.on_success();
        }
    }

    #[test]
    fn defer_freezes_unspent_backoff() {
        let mut c = contender();
        let mut rng = StdRng::seed_from_u64(2);
        let idle = Time(0);
        // Draw until a nonzero backoff comes up, so there is residue.
        let scheduled = loop {
            let at = c.attempt_at(&mut rng, idle);
            if at.saturating_since(idle) > c.timing().difs() {
                break at;
            }
            c.pending = None;
        };
        let drawn = scheduled.saturating_since(idle) - c.timing().difs();
        // The air goes busy one slot before the attempt.
        let busy_from = Time(scheduled.0 - c.timing().slot.0);
        c.defer(scheduled, busy_from);
        // The next attempt resumes with exactly the frozen residue
        // (here: one slot, since the busy onset cut one slot off).
        let resumed = c.attempt_at(&mut rng, Time(10_000_000_000));
        let resumed_backoff = resumed.saturating_since(Time(10_000_000_000)) - c.timing().difs();
        assert!(resumed_backoff <= drawn);
        assert_eq!(resumed_backoff, c.timing().slot.min(drawn));
    }

    #[test]
    fn failure_doubles_window_until_limit_then_resets() {
        let mut c = contender();
        assert_eq!(c.cw(), 15);
        assert!(c.on_failure());
        assert_eq!(c.cw(), 31);
        assert_eq!(c.retries(), 1);
        for _ in 0..5 {
            assert!(c.on_failure());
        }
        assert_eq!(c.retries(), 6);
        // The 7th failure exhausts the budget and resets for the next frame.
        assert!(!c.on_failure());
        assert_eq!(c.retries(), 0);
        assert_eq!(c.cw(), 15);
    }

    #[test]
    fn success_resets_window_and_retries() {
        let mut c = contender();
        c.on_failure();
        c.on_failure();
        assert!(c.cw() > 15);
        c.on_success();
        assert_eq!(c.cw(), 15);
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn ack_schedule_arithmetic() {
        let t = DcfTiming::default();
        let s = ack_schedule(&t, Time(1_000_000_000_000), Duration(44_000_000_000));
        assert_eq!(s.ack_start, Time(1_000_000_000_000) + t.sifs);
        assert_eq!(s.ack_end, s.ack_start + Duration(44_000_000_000));
        assert_eq!(s.timeout, s.ack_end + t.slot);
    }
}
