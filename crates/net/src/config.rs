//! Runtime configuration: which per-neighbor policy drives the actors
//! and how the links and timers behave.

use std::fmt;
use std::str::FromStr;

/// Which §5.1 heuristic the actors run as their per-neighbor policy.
///
/// Both variants call the exact decision code of the lockstep strategies
/// (via [`ocd_heuristics::policy`]), applied to each actor's *believed*
/// peer state instead of the true possession.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetPolicy {
    /// Random-useful flooding ([`ocd_heuristics::RandomUseful`]):
    /// senders push random tokens the peer is believed to lack.
    Random,
    /// Rarest-random with request subdivision
    /// ([`ocd_heuristics::LocalRarest`]): receivers spread requests over
    /// in-peers, senders serve queues then flood rarest-first.
    Local,
    /// Deterministic per-neighbor-queue scheduling
    /// ([`ocd_heuristics::PerNeighborQueue`]): senders serve their
    /// existing per-out-neighbor queues, then flood deterministically
    /// rarest-first, all metered by the sender's uplink budget when
    /// node budgets are in effect. Optimal for broadcast on
    /// uplink-constrained complete overlays (see
    /// [`ocd_heuristics::optimal`]).
    PerNeighborQueue,
}

impl NetPolicy {
    /// Short name used in reports and CSV columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetPolicy::Random => "random",
            NetPolicy::Local => "local",
            NetPolicy::PerNeighborQueue => "per-neighbor-queue",
        }
    }
}

impl fmt::Display for NetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for NetPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "random" | "rnd" => Ok(NetPolicy::Random),
            "local" | "rarest" | "local-rarest" => Ok(NetPolicy::Local),
            "per-neighbor-queue" | "pnq" => Ok(NetPolicy::PerNeighborQueue),
            other => Err(format!(
                "unknown net policy `{other}` (expected: random, local, per-neighbor-queue)"
            )),
        }
    }
}

/// Cap on backoff doublings (see [`NetConfig::backoff_timeout`]).
const MAX_BACKOFF_EXP: u32 = 6;

/// Configuration of the asynchronous runtime.
///
/// The default is the *ideal mode* used by the differential tests: data
/// latency 1, no jitter, no loss, a same-tick control plane — exactly
/// the lockstep engine's synchronized-round model.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The per-neighbor decision policy.
    pub policy: NetPolicy,
    /// Ticks a data (`Token`) message spends on a link. Must be ≥ 1
    /// (store-and-forward: a token sent at tick `t` is usable at
    /// `t + latency` at the earliest).
    pub latency: u32,
    /// Maximum extra ticks of random per-message delay (uniform in
    /// `0..=jitter`); with per-arc capacities this reorders deliveries.
    /// 0 = no jitter and no RNG draw.
    pub jitter: u32,
    /// Probability a data message is dropped in flight. 0.0 = no loss
    /// and no RNG draw.
    pub loss: f64,
    /// Ticks a control message (`Have`/`Request`/`Cancel`) spends on a
    /// link. 0 = delivered within the same tick (the paper's
    /// synchronized-knowledge assumption).
    pub control_latency: u32,
    /// Probability a control message is dropped. 0.0 = no loss and no
    /// RNG draw.
    pub control_loss: f64,
    /// Every `have_refresh` ticks each live vertex re-announces its full
    /// possession bitmap to its neighbors, repairing beliefs after lost
    /// `Have` messages or restarts. 0 = never.
    pub have_refresh: u64,
    /// Hard cap on simulated ticks; an incomplete run reports failure.
    pub max_ticks: u64,
    /// Record causal token provenance (the first-acquisition forest;
    /// see [`ocd_core::provenance`]) onto the report. Data messages
    /// carry their departure tick, so provenance survives loss, crash
    /// drops, and retransmission: only the delivery that is actually
    /// *applied* becomes a parent. Off by default.
    pub record_provenance: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            policy: NetPolicy::Random,
            latency: 1,
            jitter: 0,
            loss: 0.0,
            control_latency: 0,
            control_loss: 0.0,
            have_refresh: 10,
            max_ticks: 100_000,
            record_provenance: false,
        }
    }
}

impl NetConfig {
    /// Checks the configuration for values the runtime cannot honor.
    ///
    /// # Errors
    ///
    /// A human-readable message when `latency` is 0 (store-and-forward
    /// needs at least one tick on the link) or a loss probability is
    /// outside `[0, 1]` / non-finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.latency == 0 {
            return Err("net config: latency must be >= 1 (store-and-forward)".into());
        }
        for (name, p) in [("loss", self.loss), ("control_loss", self.control_loss)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "net config: {name} must be a probability in [0, 1], got {p}"
                ));
            }
        }
        Ok(())
    }

    /// The retry/in-flight timeout: ticks a receiver waits for a
    /// requested token before re-requesting (the base of the exponential
    /// backoff), and ticks a sender keeps a token marked in-flight
    /// before it becomes floodable again. It covers a full round trip
    /// (request there, token back, worst-case jitter) with slack, and
    /// saturates instead of wrapping, so extreme configured latencies
    /// degrade to `u32::MAX` rather than to a uselessly small timeout.
    #[must_use]
    pub fn effective_timeout(&self) -> u32 {
        self.control_latency
            .saturating_mul(2)
            .saturating_add(self.latency)
            .saturating_add(self.jitter)
            .saturating_add(2)
    }

    /// Backoff-scaled timeout for the `attempts`-th retry: the `k`-th
    /// retry of the same token waits `timeout * 2^min(k, 6)` ticks,
    /// which fits a `u64` for every `u32` timeout.
    #[must_use]
    pub fn backoff_timeout(&self, attempts: u32) -> u64 {
        u64::from(self.effective_timeout()) << attempts.min(MAX_BACKOFF_EXP)
    }

    /// Whether this configuration is the lockstep-equivalent ideal mode
    /// (the differential-test precondition).
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.latency == 1
            && self.jitter == 0
            && self.loss == 0.0
            && self.control_latency == 0
            && self.control_loss == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_prints() {
        assert_eq!("random".parse::<NetPolicy>().unwrap(), NetPolicy::Random);
        assert_eq!("LOCAL".parse::<NetPolicy>().unwrap(), NetPolicy::Local);
        assert_eq!("rarest".parse::<NetPolicy>().unwrap().to_string(), "local");
        assert_eq!(
            "pnq".parse::<NetPolicy>().unwrap(),
            NetPolicy::PerNeighborQueue
        );
        assert_eq!(
            "per-neighbor-queue"
                .parse::<NetPolicy>()
                .unwrap()
                .to_string(),
            "per-neighbor-queue"
        );
        assert!("bogus".parse::<NetPolicy>().is_err());
    }

    #[test]
    fn default_is_ideal_mode() {
        assert!(NetConfig::default().is_ideal());
        let lossy = NetConfig {
            loss: 0.1,
            ..NetConfig::default()
        };
        assert!(!lossy.is_ideal());
    }

    #[test]
    fn timeout_derivation_and_backoff() {
        let config = NetConfig {
            latency: 3,
            jitter: 1,
            control_latency: 1,
            ..NetConfig::default()
        };
        assert_eq!(config.effective_timeout(), 8);
        assert_eq!(config.backoff_timeout(0), 8);
        assert_eq!(config.backoff_timeout(2), 32);
        // Backoff stops doubling after six retries.
        assert_eq!(config.backoff_timeout(99), 8 << 6);
    }

    #[test]
    fn derived_timeout_saturates_on_extreme_latencies() {
        // Regression: the round-trip derivation used plain u32
        // arithmetic and wrapped for large configured latencies.
        let config = NetConfig {
            latency: u32::MAX,
            jitter: u32::MAX,
            control_latency: u32::MAX,
            ..NetConfig::default()
        };
        assert_eq!(config.effective_timeout(), u32::MAX);
        let near = NetConfig {
            control_latency: u32::MAX / 2,
            ..NetConfig::default()
        };
        assert_eq!(near.effective_timeout(), u32::MAX, "2x control saturates");
        assert_eq!(
            config.backoff_timeout(u32::MAX),
            u64::from(u32::MAX) << 6,
            "the longest backoff fits a u64"
        );
    }

    #[test]
    fn validate_rejects_unusable_configs() {
        assert!(NetConfig::default().validate().is_ok());
        let zero_latency = NetConfig {
            latency: 0,
            ..NetConfig::default()
        };
        assert!(zero_latency.validate().unwrap_err().contains("latency"));
        for bad in [-0.1, 1.5, f64::NAN] {
            let lossy = NetConfig {
                loss: bad,
                ..NetConfig::default()
            };
            assert!(lossy.validate().unwrap_err().contains("loss"), "{bad}");
            let ctrl = NetConfig {
                control_loss: bad,
                ..NetConfig::default()
            };
            assert!(
                ctrl.validate().unwrap_err().contains("control_loss"),
                "{bad}"
            );
        }
    }
}
