//! Service-plane metrics: a fold over the daemon's own service events.
//!
//! Every scheduling decision the daemon makes is recorded **once**, as a
//! typed service event ([`EventKind`] variants on the `SERVICE_SHARD`
//! pseudo-shard). The counters are not a second ledger: the daemon folds
//! each event into its [`MetricsSnapshot`] with [`MetricsSnapshot::observe`]
//! under the same lock that emits it, and [`MetricsSnapshot::from_events`]
//! folds a recorded stream the same way. The conservation checks below then
//! balance the folded counts against the daemon's live occupancy.

use comfort_telemetry::{Event, EventKind};

/// Counts of every service-plane decision, folded from service events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Leases handed to workers.
    pub leases_acquired: u64,
    /// Heartbeat renewals of in-flight leases.
    pub leases_renewed: u64,
    /// Leases released after a committed shard.
    pub leases_released: u64,
    /// Leases whose TTL lapsed without progress.
    pub leases_expired: u64,
    /// Expired leases returned to the pending pool.
    pub leases_reclaimed: u64,
    /// Campaigns admitted past backpressure.
    pub campaigns_admitted: u64,
    /// Campaigns rejected by admission control.
    pub campaigns_rejected: u64,
    /// Campaigns that merged a complete report.
    pub campaigns_completed: u64,
    /// Campaigns cancelled (explicitly or by deadline).
    pub campaigns_cancelled: u64,
    /// Campaigns failed at the supervisor's panic boundary.
    pub campaigns_failed: u64,
    /// Graceful drains initiated.
    pub drains_started: u64,
    /// Jailed worker processes spawned by the fleet supervisor.
    pub workers_spawned: u64,
    /// Worker processes that died by signal.
    pub workers_died: u64,
    /// Shards quarantined after killing workers repeatedly.
    pub shards_poisoned: u64,
    /// Crash-storm breaker trips that narrowed the pool.
    pub pool_degradations: u64,
}

impl MetricsSnapshot {
    /// Counts one event into the counter its kind stands for.
    /// Non-service events are ignored.
    pub fn observe(&mut self, kind: &EventKind) {
        match kind {
            EventKind::LeaseAcquired { .. } => self.leases_acquired += 1,
            EventKind::LeaseRenewed { .. } => self.leases_renewed += 1,
            EventKind::LeaseReleased { .. } => self.leases_released += 1,
            EventKind::LeaseExpired { .. } => self.leases_expired += 1,
            EventKind::LeaseReclaimed { .. } => self.leases_reclaimed += 1,
            EventKind::CampaignAdmitted { .. } => self.campaigns_admitted += 1,
            EventKind::CampaignRejected { .. } => self.campaigns_rejected += 1,
            EventKind::CampaignFinished { outcome, .. } => match outcome.as_str() {
                "completed" => self.campaigns_completed += 1,
                "failed" => self.campaigns_failed += 1,
                _ => self.campaigns_cancelled += 1,
            },
            EventKind::DrainStarted { .. } => self.drains_started += 1,
            EventKind::WorkerSpawned { .. } => self.workers_spawned += 1,
            EventKind::WorkerDied { .. } => self.workers_died += 1,
            EventKind::ShardPoisoned { .. } => self.shards_poisoned += 1,
            EventKind::PoolDegraded { .. } => self.pool_degradations += 1,
            _ => {}
        }
    }

    /// Folds a recorded event stream with [`observe`](Self::observe).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for event in events {
            snap.observe(&event.kind);
        }
        snap
    }

    /// Checks the lease ledger balances: every acquisition must end as a
    /// release or an expiry, except `still_held` leases in flight, and
    /// every expiry must be reclaimed.
    pub fn leases_conserved(&self, still_held: u64) -> Result<(), String> {
        let closed = self.leases_released + self.leases_expired + still_held;
        if self.leases_acquired != closed {
            return Err(format!(
                "lease ledger imbalance: {} acquired vs {} released + {} expired + {} held",
                self.leases_acquired, self.leases_released, self.leases_expired, still_held
            ));
        }
        if self.leases_expired != self.leases_reclaimed {
            return Err(format!(
                "{} expired leases but {} reclaimed",
                self.leases_expired, self.leases_reclaimed
            ));
        }
        Ok(())
    }

    /// Checks the worker ledger balances: every spawned worker process
    /// must have died by signal, exited, or still be `active`. Exits are
    /// not separately counted, so the check is `spawned == died + active +
    /// exited` rearranged: `spawned - died` must be at least `active` and
    /// with `exited` supplied exactly `died + exited + active`.
    pub fn workers_conserved(&self, active: u64, exited: u64) -> Result<(), String> {
        let closed = self.workers_died + exited + active;
        if self.workers_spawned != closed {
            return Err(format!(
                "worker ledger imbalance: {} spawned vs {} died + {} exited + {} active",
                self.workers_spawned, self.workers_died, exited, active
            ));
        }
        Ok(())
    }

    /// Checks the campaign ledger balances: admissions equal terminal
    /// outcomes plus campaigns still `active`.
    pub fn campaigns_conserved(&self, active: u64) -> Result<(), String> {
        let closed =
            self.campaigns_completed + self.campaigns_cancelled + self.campaigns_failed + active;
        if self.campaigns_admitted != closed {
            return Err(format!(
                "campaign ledger imbalance: {} admitted vs {} terminal + {} active",
                self.campaigns_admitted,
                closed - active,
                active
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_event(kind: EventKind) -> Event {
        let clock =
            comfort_telemetry::LogicalClock { shard: comfort_telemetry::SERVICE_SHARD, seq: 0 };
        Event { clock, kind }
    }

    /// The 15 counters, in declaration order.
    fn counts(m: &MetricsSnapshot) -> [u64; 15] {
        [
            m.leases_acquired,
            m.leases_renewed,
            m.leases_released,
            m.leases_expired,
            m.leases_reclaimed,
            m.campaigns_admitted,
            m.campaigns_rejected,
            m.campaigns_completed,
            m.campaigns_cancelled,
            m.campaigns_failed,
            m.drains_started,
            m.workers_spawned,
            m.workers_died,
            m.shards_poisoned,
            m.pool_degradations,
        ]
    }

    #[test]
    fn each_counted_event_raises_exactly_its_own_counter() {
        let c = || "c".to_string();
        let finished = |outcome: &str| EventKind::CampaignFinished {
            campaign: c(),
            outcome: outcome.to_string(),
            shards_run: 1,
        };
        // (index into `counts`, an event of the kind that counts there).
        let cases = [
            (
                0,
                EventKind::LeaseAcquired {
                    campaign: c(),
                    lease_shard: 0,
                    worker: c(),
                    ttl_millis: 1,
                },
            ),
            (1, EventKind::LeaseRenewed { campaign: c(), lease_shard: 0, worker: c() }),
            (2, EventKind::LeaseReleased { campaign: c(), lease_shard: 0, worker: c() }),
            (3, EventKind::LeaseExpired { campaign: c(), lease_shard: 0, worker: c() }),
            (
                4,
                EventKind::LeaseReclaimed {
                    campaign: c(),
                    lease_shard: 0,
                    worker: c(),
                    reclaims: 1,
                },
            ),
            (5, EventKind::CampaignAdmitted { campaign: c(), tenant: c(), shards: 1 }),
            (6, EventKind::CampaignRejected { tenant: c(), reason: c(), retry_after_millis: 1 }),
            (7, finished("completed")),
            (8, finished("cancelled")),
            (8, finished("deadline")),
            (9, finished("failed")),
            (10, EventKind::DrainStarted { active_campaigns: 0 }),
            (11, EventKind::WorkerSpawned { campaign: c(), worker: c(), lease_shard: 0, pid: 1 }),
            (12, EventKind::WorkerDied { campaign: c(), worker: c(), lease_shard: 0, signal: 9 }),
            (
                13,
                EventKind::ShardPoisoned {
                    campaign: c(),
                    lease_shard: 0,
                    deaths: 3,
                    poison_case: 0,
                    signal: 6,
                },
            ),
            (14, EventKind::PoolDegraded { from_workers: 2, to_workers: 1, consecutive_deaths: 2 }),
        ];
        assert!((0..15).all(|i| cases.iter().any(|(counter, _)| *counter == i)));
        // A non-zero base, so "unchanged" is not just "still 0".
        let base = MetricsSnapshot { leases_renewed: 7, workers_died: 3, ..Default::default() };
        for (counter, kind) in &cases {
            let mut folded = base;
            folded.observe(kind);
            let mut expected = counts(&base);
            expected[*counter] += 1;
            assert_eq!(counts(&folded), expected, "{kind:?}");
        }
        // `from_events` is the same fold over a stream (two cancellations).
        let stream: Vec<Event> = cases.into_iter().map(|(_, kind)| service_event(kind)).collect();
        let mut once = [1; 15];
        once[8] = 2;
        assert_eq!(counts(&MetricsSnapshot::from_events(&stream)), once);
        let mut quiet = base;
        quiet.observe(&EventKind::CaseRejected { base: 0, kept: false });
        assert_eq!(quiet, base, "campaign-plane events are not service decisions");
    }

    #[test]
    fn imbalances_are_reported() {
        let snap = MetricsSnapshot { leases_acquired: 3, leases_released: 1, ..Default::default() };
        let err = snap.leases_conserved(0).unwrap_err();
        assert!(err.contains("imbalance"), "{err}");
        let snap = MetricsSnapshot { leases_expired: 2, leases_acquired: 2, ..Default::default() };
        let err = snap.leases_conserved(0).unwrap_err();
        assert!(err.contains("reclaimed"), "{err}");
        let snap = MetricsSnapshot { campaigns_admitted: 2, ..Default::default() };
        assert!(snap.campaigns_conserved(1).is_err());
    }

    #[test]
    fn worker_ledger_conserves() {
        let snap = MetricsSnapshot { workers_spawned: 2, workers_died: 1, ..Default::default() };
        snap.workers_conserved(0, 1).expect("one died, one exited cleanly");
        snap.workers_conserved(1, 0).expect("one died, one still running");
        assert!(snap.workers_conserved(0, 0).is_err(), "a spawned worker is unaccounted for");
    }
}
