//! A coarse timer wheel for connection idle deadlines.
//!
//! The reactor arms one entry per open connection — tens of thousands
//! of them.  A binary heap would pay `O(log n)` per arm; a wheel with
//! ~100ms slots pays `O(1)` per arm and amortized `O(1)` per expiry, and
//! 100ms of reap slop is irrelevant against multi-second idle timeouts.
//!
//! The wheel knows tokens, not connections.  A connection's deadline
//! lives with the connection and moves on every completed request
//! without touching the wheel; when the entry fires, the reactor either
//! reaps the connection or re-arms the entry at its current deadline.
//! So a keep-alive connection costs one entry however many requests it
//! makes, and a closed connection's entry simply lapses when it fires.

use std::time::{Duration, Instant};

/// One armed deadline: fires `token` at or after `deadline`.
struct Entry {
    token: u64,
    deadline: Instant,
}

/// A hashed timer wheel with fixed-width slots.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    granularity: Duration,
    /// Slot index the cursor is at.
    cursor: usize,
    /// Wheel time corresponding to the cursor slot's start.
    cursor_time: Instant,
    len: usize,
}

impl TimerWheel {
    pub(crate) fn new(slot_count: usize, granularity: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..slot_count.max(2)).map(|_| Vec::new()).collect(),
            granularity,
            cursor: 0,
            cursor_time: now,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Arms `token` to fire at `deadline`.  Deadlines further out than
    /// one wheel revolution land in the last slot and are re-inserted
    /// when the cursor reaches them (the entry keeps its true deadline).
    pub(crate) fn insert(&mut self, token: u64, deadline: Instant) {
        let idx = self.slot_of(deadline);
        self.slots[idx].push(Entry { token, deadline });
        self.len += 1;
    }

    /// Disarms `token`'s entry for `deadline` when it sits in the slot
    /// that deadline maps to now; one moved on since just lapses.
    pub(crate) fn remove(&mut self, token: u64, deadline: Instant) {
        let idx = self.slot_of(deadline);
        if let Some(i) = self.slots[idx].iter().position(|e| e.token == token) {
            self.slots[idx].swap_remove(i);
            self.len -= 1;
        }
    }

    fn slot_of(&self, deadline: Instant) -> usize {
        let slots_ahead = if deadline <= self.cursor_time {
            0
        } else {
            let nanos = (deadline - self.cursor_time).as_nanos();
            let gran = self.granularity.as_nanos().max(1);
            ((nanos / gran) as usize).min(self.slots.len() - 1)
        };
        (self.cursor + slots_ahead) % self.slots.len()
    }

    /// How long until the nearest armed slot could fire, or `None` when
    /// the wheel is empty.  This is a bound, not an exact deadline: the
    /// reactor sleeps at most this long before calling [`expired`].
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        for ahead in 0..self.slots.len() {
            let idx = (self.cursor + ahead) % self.slots.len();
            if !self.slots[idx].is_empty() {
                let slot_end = self.cursor_time + self.granularity * (ahead as u32 + 1);
                return Some(slot_end.saturating_duration_since(now));
            }
        }
        None
    }

    /// Advances the cursor to `now`, collecting every token whose
    /// deadline has passed.  Entries in swept slots that are not yet due
    /// (far-future deadlines, coarse slotting) are re-inserted.
    pub(crate) fn expired(&mut self, now: Instant) -> Vec<u64> {
        let mut fired = Vec::new();
        let mut requeue = Vec::new();
        while self.cursor_time + self.granularity <= now {
            for entry in self.slots[self.cursor].drain(..) {
                self.len -= 1;
                if entry.deadline <= now {
                    fired.push(entry.token);
                } else {
                    requeue.push(entry);
                }
            }
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.cursor_time += self.granularity;
        }
        // Also sweep the current (partial) slot for entries already due —
        // coarse slotting may park a deadline in the slot `now` sits in.
        let mut i = 0;
        while i < self.slots[self.cursor].len() {
            if self.slots[self.cursor][i].deadline <= now {
                let entry = self.slots[self.cursor].swap_remove(i);
                self.len -= 1;
                fired.push(entry.token);
            } else {
                i += 1;
            }
        }
        for entry in requeue {
            // Re-insert relative to the advanced cursor; lands closer to
            // its true deadline each revolution.
            self.insert(entry.token, entry.deadline);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_due_entries_and_keeps_future_ones() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(16, ms(100), t0);
        wheel.insert(1, t0 + ms(150));
        wheel.insert(2, t0 + ms(950));
        assert_eq!(wheel.len(), 2);

        assert!(wheel.expired(t0 + ms(100)).is_empty());
        let fired = wheel.expired(t0 + ms(200));
        assert_eq!(fired, vec![1]);
        assert_eq!(wheel.len(), 1);

        let fired = wheel.expired(t0 + ms(1_000));
        assert_eq!(fired, vec![2]);
        assert_eq!(wheel.len(), 0);
        assert!(wheel.next_timeout(t0 + ms(1_000)).is_none());
    }

    #[test]
    fn far_future_deadline_survives_wheel_revolutions() {
        let t0 = Instant::now();
        // 4 slots x 100ms = 400ms revolution; the deadline is 1s out.
        let mut wheel = TimerWheel::new(4, ms(100), t0);
        wheel.insert(7, t0 + ms(1_000));

        for step in 1..10 {
            assert!(
                wheel.expired(t0 + ms(step * 100)).is_empty(),
                "not due at {}ms",
                step * 100
            );
        }
        let fired = wheel.expired(t0 + ms(1_100));
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn next_timeout_bounds_the_sleep() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(16, ms(100), t0);
        assert!(wheel.next_timeout(t0).is_none());
        wheel.insert(1, t0 + ms(250));
        let timeout = wheel.next_timeout(t0).expect("armed");
        // The entry sits in slot 2 (200..300ms); the bound must cover it.
        assert!(timeout >= ms(250) && timeout <= ms(400), "{timeout:?}");
    }

    #[test]
    fn removed_entries_never_fire() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(16, ms(100), t0);
        wheel.insert(1, t0 + ms(350));
        wheel.insert(2, t0 + ms(350));
        assert!(wheel.expired(t0 + ms(100)).is_empty());
        wheel.remove(1, t0 + ms(350));
        wheel.remove(3, t0 + ms(350));
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.expired(t0 + ms(400)), vec![2]);
    }

    #[test]
    fn same_slot_deadline_fires_without_cursor_advance() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(16, ms(100), t0);
        wheel.insert(9, t0 + ms(10));
        let fired = wheel.expired(t0 + ms(50));
        assert_eq!(fired, vec![9]);
    }
}
