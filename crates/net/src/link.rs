//! The link layer both swarm runtimes share: a calendar of in-flight
//! messages and the three random fates a link deals a message.
//!
//! The uncoded runtime and the coded swarm are two protocols on these
//! same links. Each still decides *when* it draws (the uncoded runtime
//! never draws jitter for a message it already lost; the coded one
//! draws loss and then jitter, and schedules a lost packet anyway so its
//! push window counts it until arrival), but every draw itself is
//! written once, here, so both protocols see identically degraded links.

use crate::config::NetConfig;
use rand::{Rng, RngCore};
use std::collections::BTreeMap;

/// Messages in flight, keyed by arrival tick; a tick's messages come
/// out in the order they were scheduled.
pub(crate) struct Calendar<T> {
    due: BTreeMap<u64, Vec<T>>,
}

impl<T> Calendar<T> {
    pub(crate) fn new() -> Self {
        Calendar {
            due: BTreeMap::new(),
        }
    }

    /// Schedules `msg` to arrive at `tick`, after everything already
    /// due then.
    pub(crate) fn push(&mut self, tick: u64, msg: T) {
        self.due.entry(tick).or_default().push(msg);
    }

    /// Removes and returns the messages due at `tick`, in schedule
    /// order.
    pub(crate) fn take(&mut self, tick: u64) -> Vec<T> {
        self.due.remove(&tick).unwrap_or_default()
    }

    /// Whether no message is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Every message still in flight.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.due.values().flatten()
    }
}

/// Where a control message goes once sent.
pub(crate) enum CtrlRoute {
    /// Dropped by control-plane loss.
    Lost,
    /// Applied within the sending tick (zero control latency).
    Now,
    /// Scheduled to arrive at this tick.
    At(u64),
}

impl NetConfig {
    /// Whether a data message is lost in flight: one draw iff `loss > 0`.
    pub(crate) fn data_lost(&self, rng: &mut dyn RngCore) -> bool {
        self.loss > 0.0 && rng.random_bool(self.loss)
    }

    /// Arrival tick of a data message sent at `now`: the latency plus a
    /// uniform jitter in `0..=jitter`, drawn iff `jitter > 0`.
    pub(crate) fn data_arrival(&self, now: u64, rng: &mut dyn RngCore) -> u64 {
        let mut arrival = now + u64::from(self.latency);
        if self.jitter > 0 {
            arrival += u64::from(rng.random_range(0..=self.jitter));
        }
        arrival
    }

    /// The fate of a control message sent at `now`: lost (one draw iff
    /// `control_loss > 0`), applied at once, or due after the control
    /// latency.
    pub(crate) fn ctrl_route(&self, now: u64, rng: &mut dyn RngCore) -> CtrlRoute {
        if self.control_loss > 0.0 && rng.random_bool(self.control_loss) {
            CtrlRoute::Lost
        } else if self.control_latency == 0 {
            CtrlRoute::Now
        } else {
            CtrlRoute::At(now + u64::from(self.control_latency))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn calendar_is_fifo_within_a_tick() {
        let mut cal = Calendar::new();
        cal.push(5, 'a');
        cal.push(3, 'b');
        cal.push(5, 'c');
        assert_eq!(cal.iter().count(), 3);
        assert!(cal.take(4).is_empty());
        assert_eq!(cal.take(5), vec!['a', 'c']);
        assert!(cal.take(5).is_empty(), "a tick is taken once");
        assert_eq!(cal.take(3), vec!['b']);
        assert!(cal.is_empty());
    }

    #[test]
    fn ideal_links_draw_nothing() {
        let config = NetConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone().next_u64();
        assert!(!config.data_lost(&mut rng));
        assert_eq!(config.data_arrival(7, &mut rng), 8);
        assert!(matches!(config.ctrl_route(7, &mut rng), CtrlRoute::Now));
        assert_eq!(rng.next_u64(), before, "no draw consumed the stream");
    }

    #[test]
    fn degraded_links_stay_in_range() {
        let config = NetConfig {
            latency: 3,
            jitter: 2,
            loss: 1.0,
            control_latency: 4,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        assert!(config.data_lost(&mut rng));
        for _ in 0..50 {
            assert!((13..=15).contains(&config.data_arrival(10, &mut rng)));
            assert!(matches!(config.ctrl_route(10, &mut rng), CtrlRoute::At(14)));
        }
        let lossy = NetConfig {
            control_loss: 1.0,
            ..config
        };
        assert!(matches!(lossy.ctrl_route(10, &mut rng), CtrlRoute::Lost));
    }
}
