//! Model of the `wacs_sync::channel` bounded MPMC channel's
//! monitor discipline (mutex + two condvars, parked-thread counts,
//! `notify_one` after unlocking).
//!
//! Queue operations are monitor-atomic in the real implementation, so
//! the model treats each push or pop as one atomic action and focuses
//! on what the monitor *cannot* make atomic: who gets woken, when,
//! and whether every state that must make progress can. The real
//! channel decides under the lock whether to wake anyone: a send
//! wakes a receiver only if one is counted as parked on `not_empty`,
//! a pop a sender only if one is counted on `not_full`. It drops the
//! lock and then notifies. So a `Send`/`Recv` only records the
//! decision, and the notify is the thread's next step, a [`ChAction::Wake`]
//! that other threads may run ahead of. The `notify_one` choice is the
//! nondeterminism: a `Wake` is split per thread parked on that condvar
//! at the time of the notify, and is a no-op when none is.
//!
//! A thread counts as parked from its park until it holds the lock
//! again, so one that a `Wake` released (`Park::Woken`) still counts:
//! a second send in that window decides to wake, and its notify may
//! find nobody left in the condvar.
//!
//! The **no lost wakeup** property is exactly the explorer's wedge
//! check: a state where some thread still has work, every runnable
//! action is exhausted, and the run is not accepting, is a deadlock —
//! some blocked thread missed the notification that should have
//! re-enabled it. The `recv_notifies: false` variant models a pop
//! that never wakes a sender (the "only notify when the queue *was*
//! full" optimisation gone wrong), `send_notifies: false` a send that
//! never wakes a receiver; both wedge.

use crate::explore::{explore_bfs, Model, Report};

/// Where a thread is relative to its condvar.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Park {
    Running,
    /// Waiting in the condvar; only a `Wake` moves it on.
    Parked,
    /// Notified but not yet holding the lock: runs again, and is still
    /// counted as parked until it does.
    Woken,
}

/// One thread's progress: items left to move, where it is relative to
/// its condvar, and whether it owes the other side a notify.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Thread {
    remaining: u8,
    park: Park,
    owes_wake: bool,
}

impl Thread {
    fn new(remaining: u8) -> Thread {
        Thread {
            remaining,
            park: Park::Running,
            owes_wake: false,
        }
    }

    /// Counted in the channel's parked total for its condvar.
    fn counted(&self) -> bool {
        self.park != Park::Running
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ChState {
    queue: u8,
    producers: Vec<Thread>,
    consumers: Vec<Thread>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Producer,
    Consumer,
}

#[derive(Clone, Debug)]
pub enum ChAction {
    /// Producer `t` pushes; it owes a `not_empty` notify if a consumer
    /// is counted as parked.
    Send { t: usize },
    /// Producer `t` finds the queue full and parks on `not_full`.
    SendBlock { t: usize },
    /// Consumer `t` pops; it owes a `not_full` notify if a producer is
    /// counted as parked.
    Recv { t: usize },
    /// Consumer `t` finds the queue empty and parks on `not_empty`.
    RecvBlock { t: usize },
    /// Thread `t` on `side`, unlocked, calls `notify_one`; `wake` is
    /// the parked thread on the other side it releases, if any is.
    Wake {
        side: Side,
        t: usize,
        wake: Option<usize>,
    },
}

pub struct ChannelModel {
    pub cap: u8,
    pub producers: usize,
    pub consumers: usize,
    pub per_producer: u8,
    /// Does a pop wake a parked sender? The real channel does.
    pub recv_notifies: bool,
    /// Does a push wake a parked receiver? The real channel does.
    pub send_notifies: bool,
}

impl ChannelModel {
    pub fn smoke() -> Self {
        ChannelModel {
            cap: 1,
            producers: 2,
            consumers: 2,
            per_producer: 2,
            recv_notifies: true,
            send_notifies: true,
        }
    }

    pub fn deep() -> Self {
        ChannelModel {
            cap: 2,
            producers: 3,
            consumers: 2,
            per_producer: 2,
            recv_notifies: true,
            send_notifies: true,
        }
    }

    fn total_items(&self) -> u16 {
        self.producers as u16 * u16::from(self.per_producer)
    }
}

/// A thread that has moved its quota or is parked has no step of its
/// own to take, except a notify it still owes.
fn idle(th: &Thread) -> bool {
    th.remaining == 0 || th.park == Park::Parked
}

/// The `Wake` actions of each thread on `side` that owes one: one per
/// thread parked in `others` at the time, or a no-op.
fn wakes(side: Side, own: &[Thread], others: &[Thread], out: &mut Vec<ChAction>) {
    let mut targets: Vec<Option<usize>> = (0..others.len())
        .filter(|&w| others[w].park == Park::Parked)
        .map(Some)
        .collect();
    if targets.is_empty() {
        targets.push(None);
    }
    for t in (0..own.len()).filter(|&t| own[t].owes_wake) {
        out.extend(targets.iter().map(|&wake| ChAction::Wake { side, t, wake }));
    }
}

impl Model for ChannelModel {
    type State = ChState;
    type Action = ChAction;

    fn name(&self) -> &'static str {
        "channel"
    }

    fn initial(&self) -> ChState {
        let total = self.total_items();
        let per_consumer = total / self.consumers as u16;
        let mut consumers: Vec<Thread> = (0..self.consumers)
            .map(|_| Thread::new(per_consumer as u8))
            .collect();
        // Distribute any remainder so consumers drain everything.
        let mut rem = total - per_consumer * self.consumers as u16;
        for c in &mut consumers {
            if rem == 0 {
                break;
            }
            c.remaining += 1;
            rem -= 1;
        }
        ChState {
            queue: 0,
            producers: (0..self.producers)
                .map(|_| Thread::new(self.per_producer))
                .collect(),
            consumers,
        }
    }

    fn actions(&self, s: &ChState, out: &mut Vec<ChAction>) {
        // A thread that owes a notify makes it before anything else.
        wakes(Side::Producer, &s.producers, &s.consumers, out);
        wakes(Side::Consumer, &s.consumers, &s.producers, out);
        for (t, p) in s.producers.iter().enumerate() {
            if p.owes_wake || idle(p) {
                continue;
            }
            out.push(if s.queue < self.cap {
                ChAction::Send { t }
            } else {
                ChAction::SendBlock { t }
            });
        }
        for (t, c) in s.consumers.iter().enumerate() {
            if c.owes_wake || idle(c) {
                continue;
            }
            out.push(if s.queue > 0 {
                ChAction::Recv { t }
            } else {
                ChAction::RecvBlock { t }
            });
        }
    }

    fn apply(&self, s: &ChState, a: &ChAction) -> ChState {
        let mut n = s.clone();
        match *a {
            ChAction::Send { t } => {
                n.queue += 1;
                let p = &mut n.producers[t];
                p.remaining -= 1;
                p.park = Park::Running;
                p.owes_wake = self.send_notifies && s.consumers.iter().any(Thread::counted);
            }
            ChAction::SendBlock { t } => n.producers[t].park = Park::Parked,
            ChAction::Recv { t } => {
                n.queue -= 1;
                let c = &mut n.consumers[t];
                c.remaining -= 1;
                c.park = Park::Running;
                c.owes_wake = self.recv_notifies && s.producers.iter().any(Thread::counted);
            }
            ChAction::RecvBlock { t } => n.consumers[t].park = Park::Parked,
            ChAction::Wake { side, t, wake } => {
                let (own, others) = match side {
                    Side::Producer => (&mut n.producers, &mut n.consumers),
                    Side::Consumer => (&mut n.consumers, &mut n.producers),
                };
                own[t].owes_wake = false;
                if let Some(w) = wake {
                    others[w].park = Park::Woken;
                }
            }
        }
        n
    }

    fn invariant(&self, s: &ChState) -> Result<(), String> {
        if s.queue > self.cap {
            return Err(format!("queue {} over capacity {}", s.queue, self.cap));
        }
        for (i, p) in s.producers.iter().enumerate() {
            if p.park == Park::Parked && p.remaining == 0 {
                return Err(format!("producer {i} parked with nothing left to send"));
            }
        }
        for (i, c) in s.consumers.iter().enumerate() {
            if c.park == Park::Parked && c.remaining == 0 {
                return Err(format!("consumer {i} parked with nothing left to receive"));
            }
        }
        Ok(())
    }

    /// A run may stop only when every thread has finished its quota.
    /// Anything else with no enabled action is a wedge — a lost
    /// wakeup.
    fn accepting(&self, s: &ChState) -> bool {
        s.producers.iter().all(|p| p.remaining == 0) && s.consumers.iter().all(|c| c.remaining == 0)
    }
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        ChannelModel::deep()
    } else {
        ChannelModel::smoke()
    };
    explore_bfs(&m, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bfs;

    #[test]
    fn real_notify_discipline_has_no_lost_wakeups() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        assert!(r.states > 50, "state space suspiciously small: {r}");
    }

    #[test]
    fn deep_config_also_clean() {
        let r = verify(true);
        assert!(r.ok(), "{r}");
    }

    /// The window the counts leave open: a consumer a `Wake` released
    /// still counts as parked, so the next send owes a notify that
    /// finds nobody in the condvar.
    #[test]
    fn a_woken_thread_still_counts_and_its_second_notify_is_a_no_op() {
        let m = ChannelModel::smoke();
        let mut s = m.initial();
        let mut acts = Vec::new();
        for a in [
            ChAction::RecvBlock { t: 0 },
            ChAction::Send { t: 0 },
            ChAction::Wake {
                side: Side::Producer,
                t: 0,
                wake: Some(0),
            },
            // Consumer 1 takes the item before consumer 0 runs again.
            ChAction::Recv { t: 1 },
            ChAction::Send { t: 1 },
        ] {
            acts.clear();
            m.actions(&s, &mut acts);
            let step = format!("{a:?}");
            assert!(acts.iter().any(|b| format!("{b:?}") == step), "{step}");
            s = m.apply(&s, &a);
        }
        assert_eq!(s.consumers[0].park, Park::Woken);
        assert!(s.producers[1].owes_wake);
        acts.clear();
        m.actions(&s, &mut acts);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                ChAction::Wake {
                    side: Side::Producer,
                    t: 1,
                    wake: None
                }
            )),
            "{acts:?}"
        );
    }

    #[test]
    fn checker_finds_the_lost_wakeup_when_recv_stops_notifying() {
        let m = ChannelModel {
            recv_notifies: false,
            ..ChannelModel::smoke()
        };
        let r = explore_bfs(&m, 2_000_000);
        let cx = r
            .violation
            .expect("dropping the not_full notification must wedge");
        assert!(cx.reason.contains("wedge"), "{}", cx.reason);
        // The trace must end with some producer parked forever.
        assert!(
            cx.trace.iter().any(|a| a.contains("SendBlock")),
            "{:?}",
            cx.trace
        );
    }

    #[test]
    fn checker_finds_the_lost_wakeup_when_send_stops_notifying() {
        let m = ChannelModel {
            send_notifies: false,
            ..ChannelModel::smoke()
        };
        let r = explore_bfs(&m, 2_000_000);
        let cx = r
            .violation
            .expect("dropping the not_empty notification must wedge");
        assert!(cx.reason.contains("wedge"), "{}", cx.reason);
        assert!(
            cx.trace.iter().any(|a| a.contains("RecvBlock")),
            "{:?}",
            cx.trace
        );
    }
}
