//! A hierarchical timer wheel: O(active) deadline expiry.
//!
//! # Why a wheel
//!
//! Window and ALTT expiry used to be *contact-driven*: an entry was only
//! discovered to be dead when some later arrival walked the bucket it sat
//! in. That makes expiry cost proportional to **stored** state — every walk
//! visits every entry, live or dead, and entries in buckets that never see
//! another arrival are never reclaimed at all. Over a long horizon almost
//! all state is dead state, and the engine pays for it on every trigger.
//!
//! The wheel inverts the direction: every deadline-bearing entry is indexed
//! by *when it dies*, and advancing the clock pops exactly the entries
//! whose deadline passed — O(pops + slots crossed), independent of how much
//! live or dead state exists elsewhere. Combined with the generational slab
//! ([`crate::slab`]), cancellation is free: a popped token whose slab
//! generation no longer matches is simply skipped, so removals never search
//! the wheel.
//!
//! # Shape
//!
//! [`LEVELS`] levels of [`SLOTS`] slots each; level `l` buckets deadlines
//! by `time >> (6·l)`, so level 0 is tick-exact and each higher level is
//! 64× coarser. An entry is placed at the finest level whose horizon
//! covers its delay; when the clock crosses its coarse bucket the entry
//! cascades down to a finer level until it pops at its exact tick.
//! Deadlines beyond the wheel horizon (64⁴ ticks) sit in an overflow list
//! scanned only while non-empty — unreachable for real window/ALTT spans.
//!
//! # Determinism
//!
//! [`TimerWheel::advance`] returns due tokens sorted by `(deadline,
//! token)`. Pop order is therefore a pure function of wheel content and
//! target time — identical across the sequential and sharded drivers and
//! any shard count.

const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; the wheel horizon is `SLOTS^LEVELS` ticks.
pub const LEVELS: usize = 4;

/// A hierarchical timer wheel over opaque, orderable tokens.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    now: u64,
    /// `LEVELS × SLOTS` slots, flattened.
    slots: Vec<Vec<(u64, T)>>,
    /// Deadlines beyond the wheel horizon (scanned lazily on advance).
    overflow: Vec<(u64, T)>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            now: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy + Ord> TimerWheel<T> {
    /// Creates an empty wheel at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The wheel's current time (the target of the last [`advance`]).
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of scheduled entries (including stale ones not yet popped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` to pop at the first advance whose target is
    /// `>= deadline`. Deadlines at or before the current time pop on the
    /// very next advance.
    pub fn insert(&mut self, deadline: u64, token: T) {
        self.len += 1;
        // Past-due deadlines are parked one tick out; `advance` compares
        // against the *stored* deadline, so they still pop immediately.
        let delta = deadline.saturating_sub(self.now).max(1);
        let effective = self.now + delta;
        let Some(level) = (0..LEVELS).find(|l| (delta >> (SLOT_BITS * (*l as u32 + 1))) == 0)
        else {
            self.overflow.push((deadline, token));
            return;
        };
        let bucket = effective >> (SLOT_BITS * level as u32);
        let slot = level * SLOTS + (bucket as usize & (SLOTS - 1));
        self.slots[slot].push((deadline, token));
    }

    /// Advances the wheel to `target`, appending every token whose deadline
    /// is `<= target` to `due` in `(deadline, token)` order. Targets at or
    /// before the current time are no-ops.
    pub fn advance(&mut self, target: u64, due: &mut Vec<T>) {
        if target <= self.now {
            return;
        }
        let mut crossed: Vec<(u64, T)> = Vec::new();
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let start = self.now >> shift;
            let end = target >> shift;
            if start == end {
                // Coarser levels share the bucket too — nothing crossed.
                break;
            }
            if end - start >= SLOTS as u64 {
                // Full revolution: every slot at this level is crossed.
                for slot in 0..SLOTS {
                    crossed.append(&mut self.slots[level * SLOTS + slot]);
                }
            } else {
                for bucket in (start + 1)..=end {
                    let slot = level * SLOTS + (bucket as usize & (SLOTS - 1));
                    crossed.append(&mut self.slots[slot]);
                }
            }
        }
        self.len -= crossed.len();
        self.now = target;
        let mut popped: Vec<(u64, T)> = Vec::new();
        for (deadline, token) in crossed {
            if deadline <= target {
                popped.push((deadline, token));
            } else {
                // Not due yet: cascade down to a finer level.
                self.insert(deadline, token);
            }
        }
        if !self.overflow.is_empty() {
            let far = std::mem::take(&mut self.overflow);
            self.len -= far.len();
            for (deadline, token) in far {
                if deadline <= target {
                    popped.push((deadline, token));
                } else {
                    // Re-files into the wheel proper once within horizon.
                    self.insert(deadline, token);
                }
            }
        }
        popped.sort_unstable();
        due.extend(popped.into_iter().map(|(_, token)| token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel<u32>, target: u64) -> Vec<u32> {
        let mut due = Vec::new();
        wheel.advance(target, &mut due);
        due
    }

    #[test]
    fn pops_at_exact_deadline() {
        let mut wheel = TimerWheel::new();
        wheel.insert(5, 1);
        assert_eq!(drain(&mut wheel, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut wheel, 5), vec![1]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_pop_on_next_advance() {
        let mut wheel = TimerWheel::new();
        wheel.advance(100, &mut Vec::new());
        wheel.insert(7, 1); // long dead
        wheel.insert(100, 2); // dead exactly now
        assert_eq!(drain(&mut wheel, 101), vec![1, 2]);
    }

    #[test]
    fn pop_order_is_deadline_then_token() {
        let mut wheel = TimerWheel::new();
        wheel.insert(10, 9);
        wheel.insert(3, 5);
        wheel.insert(10, 2);
        wheel.insert(3, 8);
        assert_eq!(drain(&mut wheel, 20), vec![5, 8, 2, 9]);
    }

    #[test]
    fn order_is_independent_of_advance_granularity() {
        // One big jump vs. tick-by-tick must pop the same sequence.
        let deadlines: Vec<(u64, u32)> = (0..200).map(|i| ((i * 37) % 150 + 1, i as u32)).collect();
        let mut big = TimerWheel::new();
        let mut small = TimerWheel::new();
        for &(d, t) in &deadlines {
            big.insert(d, t);
            small.insert(d, t);
        }
        let coarse = drain(&mut big, 160);
        let mut fine = Vec::new();
        for target in 1..=160 {
            small.advance(target, &mut fine);
        }
        assert_eq!(coarse, fine);
        assert!(big.is_empty() && small.is_empty());
    }

    #[test]
    fn long_delays_cascade_through_levels() {
        let mut wheel = TimerWheel::new();
        // One entry per level scale, plus one beyond the horizon.
        let deadlines = [63u64, 64, 4095, 4096, 262_143, 262_144, 20_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.insert(d, i as u32);
        }
        assert_eq!(wheel.len(), deadlines.len());
        for (i, &d) in deadlines.iter().enumerate() {
            assert_eq!(
                drain(&mut wheel, d.saturating_sub(1)),
                Vec::<u32>::new(),
                "early pop of {d}"
            );
            assert_eq!(drain(&mut wheel, d), vec![i as u32], "deadline {d}");
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn incremental_advance_matches_scheduling_across_bucket_boundaries() {
        // Insert while advancing, with deadlines that straddle level
        // boundaries relative to a moving `now`.
        let mut wheel = TimerWheel::new();
        let mut due = Vec::new();
        let mut expected = Vec::new();
        for step in 0..500u64 {
            let deadline = step + 1 + (step * 13) % 300;
            wheel.insert(deadline, step as u32);
            expected.push((deadline, step as u32));
            wheel.advance(step + 1, &mut due);
        }
        wheel.advance(2000, &mut due);
        expected.sort_unstable();
        let expected: Vec<u32> = expected.into_iter().map(|(_, t)| t).collect();
        assert_eq!(due, expected);
    }
}
