//! Delivery-plane counters, declared once: the lock-free holder the hub
//! and its pump thread bump ([`DeliverMetrics`]), its serializable
//! snapshot for stats replies ([`DeliverStats`]) and the
//! `evostore_deliver_*` rows both surface through the ObsHub registry.

use evostore_obs::{counter_set, Metric};

counter_set! {
    /// Lock-free delivery counters bumped by the hub and its pump thread.
    pub struct DeliverMetrics;
    /// Serializable delivery counters (embedded in provider stats
    /// replies). The tree levels merge by maximum: a merged stats reply
    /// reports the deepest/widest recent release.
    #[derive(Copy, Eq)]
    pub struct DeliverStats {
        /// Live subscriptions.
        subscriptions: atomic sum gauge "evostore_deliver_subscriptions",
        /// Events enqueued across all subscription queues.
        events_published: atomic sum counter "evostore_deliver_events_published",
        /// Events acknowledged by subscribers.
        events_delivered: atomic sum counter "evostore_deliver_events_delivered",
        /// Events dropped: queue overflow, or pending when a dead
        /// subscriber was reaped.
        events_dropped: atomic sum counter "evostore_deliver_events_dropped",
        /// `deliver.event` pushes sent.
        event_pushes: atomic sum counter "evostore_deliver_event_pushes",
        /// Pushes that failed (timeout/unavailable); the queue re-pushes.
        push_failures: atomic sum counter "evostore_deliver_push_failures",
        /// Store publications that matched at least one subscription.
        releases: atomic sum counter "evostore_deliver_releases",
        /// Depth of the most recent broadcast tree.
        tree_depth: atomic max gauge "evostore_deliver_tree_depth",
        /// Subscriber count of the most recent broadcast tree.
        tree_width: atomic max gauge "evostore_deliver_tree_width",
    }
}

impl DeliverStats {
    /// The `evostore_deliver_*` metric rows for one provider.
    pub fn metrics(&self, provider: usize) -> Vec<Metric> {
        self.rows(&[("provider", &provider.to_string())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let a = DeliverStats {
            events_published: 3,
            tree_depth: 2,
            ..Default::default()
        };
        let b = DeliverStats {
            events_published: 4,
            tree_depth: 5,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.events_published, 7);
        assert_eq!(m.tree_depth, 5);
    }

    #[test]
    fn metric_rows_carry_the_provider_label() {
        let rows = DeliverStats::default().metrics(3);
        assert!(rows.iter().all(|m| m.name.starts_with("evostore_deliver_")));
        assert_eq!(rows.len(), 9);
    }
}
