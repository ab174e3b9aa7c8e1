//! Pacing between operations, as a sans-IO machine. `ClientCore`
//! decides one operation; [`Retry`] decides whether another starts, and
//! when, for the sim client and, through [`crate::retry_blocking`],
//! every blocking caller (each keeps its own rule for which failures
//! are transient). The caller owns the clock and the randomness: `now`
//! is nanoseconds on its clock, `draw(n)` is uniform in `[0, n)` — the
//! sim's seeded RNG, or [`no_jitter`]. Backoff and give-up arithmetic
//! exist only here (`xtask lint`, `retry-plane`).

use std::time::Duration;

/// Retry knobs. The backoff after failed attempt `n` (1-based) is
/// uniform in `[cap/2, cap]`, `cap = min(base_backoff << (n-1),
/// max_backoff)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per logical operation.
    pub max_attempts: u32,
    /// A failure this long after the first attempt started is final.
    pub budget: Option<Duration>,
    /// Backoff cap after the first failure.
    pub base_backoff: Duration,
    /// Upper bound on the backoff cap.
    pub max_backoff: Duration,
}

/// How long a control read waits for its reply (the sim's figure, and
/// the real client's since it has one).
pub const REPLY_DEADLINE: Duration = Duration::from_secs(2);

impl RetryPolicy {
    /// The proxy client's: six attempts, jittered backoff from 40 ms up
    /// to 1 s.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 6,
        budget: None,
        base_backoff: Duration::from_millis(40),
        max_backoff: Duration::from_secs(1),
    };

    /// `attempts` attempts, `step` apart.
    pub const fn steps(attempts: u32, step: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_backoff: step,
            max_backoff: step,
            ..RetryPolicy::DEFAULT
        }
    }

    /// Attempts `step` apart until one fails `budget` after the first
    /// started.
    pub const fn within(budget: Duration, step: Duration) -> RetryPolicy {
        RetryPolicy {
            budget: Some(budget),
            ..RetryPolicy::steps(u32::MAX, step)
        }
    }
}

/// One logical operation's attempts.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    policy: RetryPolicy,
    started: u64,
    /// The attempt under way, from 1.
    attempt: u32,
}

impl Retry {
    /// The first attempt starts at `now`.
    pub fn new(policy: RetryPolicy, now: u64) -> Retry {
        Retry {
            policy,
            started: now,
            attempt: 1,
        }
    }

    /// The attempt under way failed at `now`: when the next starts, or
    /// `None` to give up. `draw` is called once per retry and never on
    /// giving up, so a seeded caller's stream depends only on how many
    /// retries it made.
    pub fn failed(&mut self, now: u64, draw: impl FnOnce(u64) -> u64) -> Option<u64> {
        let p = &self.policy;
        let spent = Duration::from_nanos(now.saturating_sub(self.started));
        if self.attempt >= p.max_attempts || p.budget.is_some_and(|b| spent >= b) {
            return None;
        }
        let shift = self.attempt.saturating_sub(1).min(20);
        let cap = (nanos(p.base_backoff).max(1).saturating_mul(1 << shift))
            .min(nanos(p.max_backoff).max(1));
        self.attempt += 1;
        Some(now.saturating_add(cap / 2 + draw(cap - cap / 2 + 1)))
    }

    /// How long the attempt under way may wait for a reply at `now`:
    /// [`REPLY_DEADLINE`], cut to what is left of the budget but never
    /// below one step (the attempt after a failure just short of the
    /// budget still gets to hear a late answer) or 1 ms (a valid socket
    /// timeout).
    pub fn reply_deadline(&self, now: u64) -> Duration {
        let p = &self.policy;
        let spent = Duration::from_nanos(now.saturating_sub(self.started));
        let left = p.budget.map_or(Duration::MAX, |b| b.saturating_sub(spent));
        let floor = p.base_backoff.max(Duration::from_millis(1));
        REPLY_DEADLINE.min(left.max(floor))
    }
}

/// The `draw` of a caller that does not jitter: every backoff is its
/// full cap, so a fixed step stays fixed.
pub(crate) fn no_jitter(n: u64) -> u64 {
    n.saturating_sub(1)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const STEP: Duration = Duration::from_millis(10);

    /// Every retry of `policy` from t = 0 when each attempt fails the
    /// moment it starts: `(start of the next attempt, draw's argument)`.
    fn schedule(policy: RetryPolicy, draw: fn(u64) -> u64) -> Vec<(u64, u64)> {
        let mut retry = Retry::new(policy, 0);
        let mut out = Vec::new();
        let mut now = 0;
        loop {
            let mut asked = None;
            let Some(at) = retry.failed(now, |n| {
                assert!(asked.replace(n).is_none(), "draw called twice");
                draw(n)
            }) else {
                assert_eq!(asked, None, "draw called on giving up");
                return out;
            };
            out.push((at, asked.expect("draw not called on a retry")));
            now = at;
        }
    }

    #[test]
    fn default_policy_doubles_from_40ms_and_gives_up_after_attempt_6() {
        let caps = [40, 80, 160, 320, 640].map(|c| c * MS);
        // The top of each range is the cap ...
        let top = schedule(RetryPolicy::DEFAULT, no_jitter);
        assert_eq!(top.len(), 5, "five retries: attempts 2..=6");
        let mut prev = 0;
        for ((at, n), cap) in top.iter().zip(caps) {
            assert_eq!(at - prev, cap);
            // ... and draw's range is exactly [cap/2, cap].
            assert_eq!(*n, cap - cap / 2 + 1);
            prev = *at;
        }
        // ... and the bottom is half of it.
        let bottom = schedule(RetryPolicy::DEFAULT, |_| 0);
        let mut prev = 0;
        for ((at, _), cap) in bottom.iter().zip(caps) {
            assert_eq!(at - prev, cap / 2);
            prev = *at;
        }
    }

    #[test]
    fn the_cap_stops_at_max_backoff() {
        let policy = RetryPolicy {
            max_attempts: 9,
            ..RetryPolicy::DEFAULT
        };
        let gaps: Vec<u64> = schedule(policy, no_jitter)
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .collect();
        assert_eq!(gaps[4..], [1000 * MS; 3]);
    }

    #[test]
    fn one_attempt_never_retries_and_never_draws() {
        let once = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::DEFAULT
        };
        assert!(schedule(once, no_jitter).is_empty());
        let mut retry = Retry::new(once, 5);
        assert_eq!(retry.failed(5, |_| unreachable!()), None);
    }

    #[test]
    fn the_reply_deadline_is_2s_unless_the_budget_is_shorter() {
        let r = Retry::new(RetryPolicy::DEFAULT, 7);
        assert_eq!(r.reply_deadline(1_000_000 * MS), Duration::from_secs(2));
        let r = Retry::new(RetryPolicy::within(Duration::from_secs(5), STEP), 0);
        assert_eq!(r.reply_deadline(0), Duration::from_secs(2));
        let r = Retry::new(RetryPolicy::within(Duration::from_millis(300), STEP), 0);
        assert_eq!(r.reply_deadline(0), Duration::from_millis(300));
        assert_eq!(r.reply_deadline(250 * MS), Duration::from_millis(50));
        // Past the budget, a read still waits one step.
        assert_eq!(r.reply_deadline(295 * MS), STEP);
        assert_eq!(r.reply_deadline(400 * MS), STEP);
        let r = Retry::new(RetryPolicy::within(Duration::ZERO, Duration::ZERO), 0);
        assert_eq!(r.reply_deadline(0), Duration::from_millis(1));
    }

    /// The blocking callers' old loops, as policies: attach tried 200
    /// times 5 ms apart; the allocator query retried every 10 ms for
    /// 2 s; the gatekeeper waited out `Busy` every 10 ms for 120 s.
    #[test]
    fn fixed_step_policies_keep_the_old_budgets() {
        let attach = schedule(RetryPolicy::steps(200, Duration::from_millis(5)), no_jitter);
        assert_eq!(attach.len(), 199);
        assert!(attach
            .iter()
            .enumerate()
            .all(|(i, (at, _))| *at == (i as u64 + 1) * 5 * MS));

        for secs in [2, 120] {
            let budget = Duration::from_secs(secs);
            let retries = schedule(RetryPolicy::within(budget, STEP), no_jitter);
            // A failure before the budget is retried one step later; the
            // first at or past it is final.
            assert_eq!(retries.len() as u64, secs * 100);
            assert_eq!(retries.last().map(|r| r.0), Some(secs * 1000 * MS));
            let mut r = Retry::new(RetryPolicy::within(budget, STEP), 0);
            let just_before = secs * 1000 * MS - 1;
            assert_eq!(
                r.failed(just_before, no_jitter),
                Some(just_before + 10 * MS)
            );
            // That last attempt starts past the budget, yet its read
            // waits a whole step, as the old unbounded read let a
            // just-recovered daemon answer.
            assert_eq!(r.reply_deadline(just_before + 10 * MS), STEP);
            assert_eq!(r.failed(just_before + 1, no_jitter), None);
        }
    }
}
