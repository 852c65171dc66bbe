//! A server room: power topology plus physical rows of rack slots.

use flex_power::{PowerError, Topology, Watts};

/// Identifier of a row within one room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub usize);

/// A physical row of rack slots wired to one PDU-pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The row's identifier.
    pub id: RowId,
    /// The PDU-pair feeding every slot in the row.
    pub pdu_pair: flex_power::PduPairId,
    /// Number of rack slots.
    pub slots: usize,
}

/// Parameters of a room build-out.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomConfig {
    /// Number of UPS devices (the `x` in xN/y).
    pub ups_count: usize,
    /// Per-UPS rated capacity.
    pub ups_capacity: Watts,
    /// Number of physical rows, assigned to PDU-pairs round-robin.
    pub rows: usize,
    /// Rack slots per row.
    pub racks_per_row: usize,
    /// Cooling airflow capacity per rack slot, in CFM (Section VI:
    /// rooms are designed with generous cooling for backward
    /// compatibility — 2,500 CFM/slot comfortably cools a 17.2 kW rack
    /// at 0.1 CFM/W).
    pub cooling_cfm_per_slot: f64,
    /// Optional PDU-pair power rating: total allocated power under one
    /// PDU-pair may not exceed this (each PDU of the pair must carry the
    /// whole pair during a feed loss). `None` models PDUs rated beyond
    /// any reachable load — the simplification the paper's ILP section
    /// makes "for brevity".
    pub pdu_pair_capacity: Option<Watts>,
}

impl RoomConfig {
    /// The Section V-A placement study room: 9.6 MW (4 × 2.4 MW UPSes,
    /// 4N/3), 60 rows of 10 racks.
    pub fn paper_placement_room() -> Self {
        RoomConfig {
            ups_count: 4,
            ups_capacity: Watts::from_mw(2.4),
            rows: 60,
            racks_per_row: 10,
            cooling_cfm_per_slot: 2_500.0,
            pdu_pair_capacity: None,
        }
    }

    /// The Section V-C emulation room: 4.8 MW (4 × 1.2 MW UPSes), 36 rows
    /// of 10 racks (360 rack slots).
    pub fn paper_emulation_room() -> Self {
        RoomConfig {
            ups_count: 4,
            ups_capacity: Watts::from_mw(1.2),
            rows: 36,
            racks_per_row: 10,
            cooling_cfm_per_slot: 2_500.0,
            pdu_pair_capacity: None,
        }
    }

    /// Builds the room.
    ///
    /// # Errors
    ///
    /// Propagates topology construction errors (too few UPSes,
    /// non-positive capacity).
    pub fn build(&self) -> Result<Room, PowerError> {
        let topology = Topology::distributed_redundant(self.ups_count, self.ups_capacity)?;
        let pair_count = topology.pdu_pairs().len();
        let rows = (0..self.rows)
            .map(|i| Row {
                id: RowId(i),
                pdu_pair: topology.pdu_pairs()[i % pair_count].id(),
                slots: self.racks_per_row,
            })
            .collect();
        Ok(Room {
            topology,
            rows,
            cooling_cfm_per_slot: self.cooling_cfm_per_slot,
            pdu_pair_capacity: self.pdu_pair_capacity,
        })
    }
}

/// An immutable room: the power topology plus its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Room {
    topology: Topology,
    rows: Vec<Row>,
    cooling_cfm_per_slot: f64,
    pdu_pair_capacity: Option<Watts>,
}

impl Room {
    /// The power topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Total rack slots in the room.
    pub fn total_slots(&self) -> usize {
        self.rows.iter().map(|r| r.slots).sum()
    }

    /// Rack slots wired to the given PDU-pair.
    pub fn slots_of_pair(&self, pair: flex_power::PduPairId) -> usize {
        self.rows
            .iter()
            .filter(|r| r.pdu_pair == pair)
            .map(|r| r.slots)
            .sum()
    }

    /// Cooling airflow capacity (CFM) available under one PDU-pair.
    pub fn cooling_of_pair(&self, pair: flex_power::PduPairId) -> f64 {
        self.slots_of_pair(pair) as f64 * self.cooling_cfm_per_slot
    }

    /// The PDU-pair power rating, if constrained.
    pub fn pdu_pair_capacity(&self) -> Option<Watts> {
        self.pdu_pair_capacity
    }

    /// Total provisioned power (all UPS capacities).
    pub fn provisioned_power(&self) -> Watts {
        self.topology.provisioned_power()
    }

    /// The conventional failover budget (what a non-Flex room could
    /// allocate).
    pub fn failover_budget(&self) -> Watts {
        self.topology.failover_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_placement_room_dimensions() {
        let room = RoomConfig::paper_placement_room().build().unwrap();
        assert_eq!(room.topology().ups_count(), 4);
        assert_eq!(room.topology().pdu_pairs().len(), 6);
        assert!(room.provisioned_power().approx_eq(Watts::from_mw(9.6), 1e-6));
        assert!(room.failover_budget().approx_eq(Watts::from_mw(7.2), 1e-6));
        assert_eq!(room.total_slots(), 600);
        // Rows divide evenly: 10 rows (100 slots) per pair.
        for p in room.topology().pdu_pairs() {
            assert_eq!(room.slots_of_pair(p.id()), 100);
        }
    }

    #[test]
    fn paper_emulation_room_dimensions() {
        let room = RoomConfig::paper_emulation_room().build().unwrap();
        assert!(room.provisioned_power().approx_eq(Watts::from_mw(4.8), 1e-6));
        assert_eq!(room.total_slots(), 360);
        assert_eq!(room.rows().len(), 36);
    }

    #[test]
    fn uneven_rows_distribute_round_robin() {
        let room = RoomConfig {
            ups_count: 4,
            ups_capacity: Watts::from_mw(1.0),
            rows: 7,
            racks_per_row: 5,
            cooling_cfm_per_slot: 2_500.0,
            pdu_pair_capacity: None,
        }
        .build()
        .unwrap();
        // 7 rows over 6 pairs: pair 0 gets two rows.
        assert_eq!(room.slots_of_pair(room.topology().pdu_pairs()[0].id()), 10);
        assert_eq!(room.slots_of_pair(room.topology().pdu_pairs()[1].id()), 5);
        assert_eq!(room.total_slots(), 35);
    }

    #[test]
    fn build_rejects_bad_config() {
        let bad = RoomConfig {
            ups_count: 1,
            ups_capacity: Watts::from_mw(1.0),
            rows: 4,
            racks_per_row: 10,
            cooling_cfm_per_slot: 2_500.0,
            pdu_pair_capacity: None,
        };
        assert!(bad.build().is_err());
    }
}
