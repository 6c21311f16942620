//! A detector's own horizon — the window it judges over, or the age past
//! which a fix pairs with nothing — decides both when it alerts again and
//! when it forgets; there is no other constant.

use datacron_geo::TimeMs;

/// The one rule by which loitering, drifting, CPA, holding and separation
/// risk alert again. The detector's condition holds at `now`; `last_held`
/// is when it last held before, for the same object or pair (`None`:
/// never, or forgotten). A condition that held within one horizon
/// continues the episode it held in, so only a lapse longer than
/// `horizon_ms` ends an episode, and each episode alerts once, on the
/// report that opens it.
pub(crate) fn opens_episode(last_held: Option<TimeMs>, now: TimeMs, horizon_ms: i64) -> bool {
    last_held.is_none_or(|t| now - t > horizon_ms)
}

/// When a detector sweeps its maps: after as many reports as it holds
/// entries, so the sweep (which walks every entry) costs O(1) per report,
/// and against the latest event time seen — no clock, no thread.
#[derive(Debug, Default)]
pub(crate) struct Pruner {
    high_water: Option<TimeMs>,
    since_sweep: usize,
}

impl Pruner {
    /// Counts the report at `now`; returns the event-time high-water mark
    /// when a sweep over `held` entries is due.
    pub(crate) fn due(&mut self, now: TimeMs, held: usize) -> Option<TimeMs> {
        let high = self.high_water.map_or(now, |h| h.max(now));
        self.high_water = Some(high);
        self.since_sweep += 1;
        if self.since_sweep <= held {
            return None;
        }
        self.since_sweep = 0;
        Some(high)
    }
}

/// Whether an entry last touched at `t` may be forgotten. To a report in
/// event-time order an entry stops mattering once it is `horizon_ms` old
/// (a stale fix, an emptied window, an episode that the next hold no
/// longer continues). It is kept for as long again, so a report that
/// arrives up to `horizon_ms` late still finds what a detector that never
/// forgot anything would have shown it.
pub(crate) fn expired(high_water: TimeMs, t: TimeMs, horizon_ms: i64) -> bool {
    high_water.millis().saturating_sub(t.millis()) > horizon_ms.saturating_mul(2)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::Pruner;
    use datacron_geo::TimeMs;
    use datacron_model::{EventRecord, ObjectId, PositionReport};

    /// Feeds `stream` (in event-time order) to two detectors made by
    /// `make`: one whose pruner never comes due, report by report, and
    /// one that sweeps as usual but gets each report `lag_ms` late —
    /// after a report from `filler` every sixth of `lag_ms` up to the
    /// report's time plus `lag_ms`, each filler object reporting three
    /// times. Few entries live at once, so sweeps come often.
    /// Asserts that both raise the same events and that the late one
    /// forgot entries on the way (`held` counts them); returns the events.
    pub(crate) fn late_reports_see_the_unpruned_detector<D>(
        make: impl Fn() -> D,
        update: impl Fn(&mut D, &PositionReport) -> Vec<EventRecord>,
        pruner: fn(&mut D) -> &mut Pruner,
        held: impl Fn(&D) -> usize,
        filler: impl Fn(ObjectId, TimeMs) -> PositionReport,
        stream: &[PositionReport],
        lag_ms: i64,
    ) -> Vec<EventRecord> {
        let (mut unpruned, mut late) = (make(), make());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (mut next_filler, mut fillers, mut forgot) = (stream[0].time, 0u64, false);
        for r in stream {
            want.extend(update(&mut unpruned, r));
            *pruner(&mut unpruned) = Pruner::default();
            while next_filler <= r.time + lag_ms {
                fillers += 1;
                let f = filler(ObjectId(1_000_000 + fillers / 3), next_filler);
                let before = held(&late);
                assert!(update(&mut late, &f).is_empty(), "a filler alerted");
                forgot |= held(&late) < before;
                next_filler = next_filler + lag_ms / 6;
            }
            let before = held(&late);
            got.extend(update(&mut late, r));
            forgot |= held(&late) < before;
        }
        let debug = |events: &[EventRecord]| format!("{events:?}");
        assert_eq!(debug(&got), debug(&want));
        assert!(forgot, "nothing was swept");
        got
    }
}
