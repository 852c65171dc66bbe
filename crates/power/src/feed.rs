//! Which UPSes are currently in service, and how PDU-pairs are fed.

use crate::{PduPair, PowerError, Topology, UpsId};

/// How a PDU-pair is being fed given the current [`FeedState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairFeed {
    /// Both upstream UPSes online: each carries half the pair's load.
    Both,
    /// Only one upstream UPS online: it carries the full load.
    Single(UpsId),
    /// Both upstream UPSes offline: the pair's load is dropped (outage).
    Dead,
}

/// The in-service/out-of-service status of every UPS in a room.
///
/// Failing a UPS models both *unplanned* events (utility + generator loss)
/// and *planned* maintenance that takes the device out of service — the
/// electrical consequence (instant load transfer to partners) is the same.
///
/// ```
/// use flex_power::{Topology, FeedState, Watts, UpsId};
/// let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4))?;
/// let mut feed = FeedState::all_online(&topo);
/// feed.fail(UpsId(2))?;
/// assert!(!feed.is_online(UpsId(2)));
/// assert_eq!(feed.failed_ids(), vec![UpsId(2)]);
/// feed.restore(UpsId(2))?;
/// assert!(feed.is_online(UpsId(2)));
/// # Ok::<(), flex_power::PowerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedState {
    online: Vec<bool>,
}

impl FeedState {
    /// All UPSes in service.
    pub fn all_online(topo: &Topology) -> Self {
        FeedState {
            online: vec![true; topo.ups_count()],
        }
    }

    /// All online except the listed failures.
    ///
    /// # Panics
    ///
    /// Panics if a listed id is not part of the topology; use
    /// [`FeedState::fail`] for fallible updates.
    pub fn with_failed<I: IntoIterator<Item = UpsId>>(topo: &Topology, failed: I) -> Self {
        let mut state = FeedState::all_online(topo);
        for id in failed {
            // flex-lint: allow(P1): documented panicking convenience; `fail` is the fallible twin
            state.fail(id).expect("failed UPS id must belong to topology");
        }
        state
    }

    /// Number of UPSes tracked.
    pub fn ups_count(&self) -> usize {
        self.online.len()
    }

    /// True if the UPS is in service. Foreign ids read as offline.
    pub fn is_online(&self, id: UpsId) -> bool {
        self.online.get(id.0).copied().unwrap_or(false)
    }

    /// Takes a UPS out of service (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownUps`] for a foreign id.
    pub fn fail(&mut self, id: UpsId) -> Result<(), PowerError> {
        match self.online.get_mut(id.0) {
            Some(slot) => {
                *slot = false;
                Ok(())
            }
            None => Err(PowerError::UnknownUps(id.0)),
        }
    }

    /// Returns a UPS to service (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownUps`] for a foreign id.
    pub fn restore(&mut self, id: UpsId) -> Result<(), PowerError> {
        match self.online.get_mut(id.0) {
            Some(slot) => {
                *slot = true;
                Ok(())
            }
            None => Err(PowerError::UnknownUps(id.0)),
        }
    }

    /// Ids of all failed UPSes, ascending.
    pub fn failed_ids(&self) -> Vec<UpsId> {
        self.online
            .iter()
            .enumerate()
            .filter(|(_, &b)| !b)
            .map(|(i, _)| UpsId(i))
            .collect()
    }

    /// How the given PDU-pair is fed under this state.
    pub fn pair_feed(&self, pair: &PduPair) -> PairFeed {
        let (a, b) = pair.upstream();
        match (self.is_online(a), self.is_online(b)) {
            (true, true) => PairFeed::Both,
            (true, false) => PairFeed::Single(a),
            (false, true) => PairFeed::Single(b),
            (false, false) => PairFeed::Dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Watts;

    fn topo() -> Topology {
        Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap()
    }

    #[test]
    fn all_online_state() {
        let t = topo();
        let f = FeedState::all_online(&t);
        assert!(f.failed_ids().is_empty());
    }

    #[test]
    fn fail_and_restore_roundtrip() {
        let t = topo();
        let mut f = FeedState::all_online(&t);
        f.fail(UpsId(1)).unwrap();
        f.fail(UpsId(1)).unwrap(); // idempotent
        assert_eq!(f.failed_ids(), vec![UpsId(1)]);
        f.restore(UpsId(1)).unwrap();
        assert!(f.failed_ids().is_empty());
    }

    #[test]
    fn foreign_ids_rejected() {
        let t = topo();
        let mut f = FeedState::all_online(&t);
        assert!(f.fail(UpsId(9)).is_err());
        assert!(f.restore(UpsId(9)).is_err());
        assert!(!f.is_online(UpsId(9)));
    }

    #[test]
    fn pair_feed_transitions() {
        let t = topo();
        let pair = *t
            .pdu_pairs()
            .iter()
            .find(|p| p.upstream() == (UpsId(0), UpsId(1)))
            .unwrap();
        let mut f = FeedState::all_online(&t);
        assert_eq!(f.pair_feed(&pair), PairFeed::Both);
        f.fail(UpsId(0)).unwrap();
        assert_eq!(f.pair_feed(&pair), PairFeed::Single(UpsId(1)));
        f.fail(UpsId(1)).unwrap();
        assert_eq!(f.pair_feed(&pair), PairFeed::Dead);
        f.restore(UpsId(0)).unwrap();
        assert_eq!(f.pair_feed(&pair), PairFeed::Single(UpsId(0)));
    }

    #[test]
    fn with_failed_constructor() {
        let t = topo();
        let f = FeedState::with_failed(&t, [UpsId(0), UpsId(3)]);
        assert_eq!(f.failed_ids(), vec![UpsId(0), UpsId(3)]);
    }
}
