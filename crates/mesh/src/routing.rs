//! The global overset communication schedule for decomposed runs.
//!
//! In the parallel solver each rank owns one tile of one panel. Overset
//! boundary columns (the frame) of a rank's *padded* region must be filled
//! with values interpolated from the partner panel; the rank owning the
//! donor cell computes the interpolation (it holds the 2×2 donor stencil
//! in its owned+halo data) and sends the finished radial columns — the
//! `MPI_SEND`/`MPI_IRECV` traffic "under `gRunner%world%communicator`" of
//! the paper.
//!
//! The schedule is built *identically on every rank* from the partition
//! spec alone (no negotiation traffic): both sides iterate the same loops
//! in the same order, so send and receive buffers line up positionally.

use crate::interp::OversetColumn;
use crate::partition::Decomp2D;
use crate::patch::{Panel, PatchGrid};
use std::collections::BTreeMap;

/// One interpolation job on the donor side, in donor-tile-local indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DonorJob {
    /// Donor cell lower corner, local signed colatitude index.
    pub dj: isize,
    /// Donor cell lower corner, local signed longitude index.
    pub dk: isize,
    /// Bilinear weights (see [`crate::interp::OversetColumn::w`]).
    pub w: [f64; 4],
    /// Donor→target tangent rotation.
    pub rot: [[f64; 2]; 2],
}

/// One frame column to fill on the target side, in target-tile-local
/// signed indices (may address ghost columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetSlot {
    /// Local signed colatitude index of the frame column to fill.
    pub tj: isize,
    /// Local signed longitude index.
    pub tk: isize,
}

/// Everything this rank must interpolate and send to one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct OversetSendSet {
    /// Destination world rank.
    pub to_world: usize,
    /// Interpolation jobs, in wire order.
    pub jobs: Vec<DonorJob>,
}

/// Everything this rank will receive from one peer, and where it lands.
#[derive(Debug, Clone, PartialEq)]
pub struct OversetRecvSet {
    /// Source world rank.
    pub from_world: usize,
    /// Where each received column lands, in wire order.
    pub slots: Vec<TargetSlot>,
}

/// This rank's complete overset exchange schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OversetExchange {
    /// Sorted by destination world rank.
    pub sends: Vec<OversetSendSet>,
    /// Sorted by source world rank.
    pub recvs: Vec<OversetRecvSet>,
}

impl OversetExchange {
    /// Total columns this rank receives.
    pub fn received_columns(&self) -> usize {
        self.recvs.iter().map(|r| r.slots.len()).sum()
    }
}

/// World rank of `(panel, panel_rank)` given `tiles` ranks per panel:
/// Yin ranks first, then Yang — the layout produced by splitting the world
/// communicator with color = panel index and key = world rank.
#[inline]
pub fn world_rank(panel: Panel, panel_rank: usize, tiles: usize) -> usize {
    panel.index() * tiles + panel_rank
}

/// Inverse of [`world_rank`].
#[inline]
pub fn panel_of_world(world: usize, tiles: usize) -> (Panel, usize) {
    (Panel::from_index(world / tiles), world % tiles)
}

/// Build the complete schedule: element `w` is world rank `w`'s exchange.
///
/// `columns` is the global overset table from
/// [`crate::interp::build_overset_columns`]; `decomp` the (identical)
/// per-panel decomposition.
pub fn build_schedule(
    grid: &PatchGrid,
    decomp: &Decomp2D,
    columns: &[OversetColumn],
) -> Vec<OversetExchange> {
    let tiles = decomp.tiles();
    let halo = grid.spec().halo;
    let nworld = 2 * tiles;
    // (donor_world, target_world) → job / slot lists, in deterministic
    // iteration order.
    let mut send_map: BTreeMap<(usize, usize), Vec<DonorJob>> = BTreeMap::new();
    let mut recv_map: BTreeMap<(usize, usize), Vec<TargetSlot>> = BTreeMap::new();

    for target_panel in [Panel::Yin, Panel::Yang] {
        let donor_panel = target_panel.other();
        for rt in 0..tiles {
            let tile_t = decomp.tile(rt);
            let wt = world_rank(target_panel, rt, tiles);
            for col in columns {
                if !tile_t.contains_padded(col.tgt_j as isize, col.tgt_k as isize, halo) {
                    continue;
                }
                let rd = decomp.owner(col.don_j, col.don_k);
                let wd = world_rank(donor_panel, rd, tiles);
                let tile_d = decomp.tile(rd);
                let (dj, dk) = tile_d.to_local(col.don_j, col.don_k);
                let (tj, tk) = tile_t.to_local(col.tgt_j, col.tgt_k);
                send_map
                    .entry((wd, wt))
                    .or_default()
                    .push(DonorJob { dj, dk, w: col.w, rot: col.rot });
                recv_map.entry((wd, wt)).or_default().push(TargetSlot { tj, tk });
            }
        }
    }

    let mut schedule: Vec<OversetExchange> = (0..nworld).map(|_| OversetExchange::default()).collect();
    for ((wd, wt), jobs) in send_map {
        schedule[wd].sends.push(OversetSendSet { to_world: wt, jobs });
    }
    for ((wd, wt), slots) in recv_map {
        schedule[wt].recvs.push(OversetRecvSet { from_world: wd, slots });
    }
    // BTreeMap iteration gives (wd, wt) lexicographic order: sends end up
    // sorted by destination; recvs need an explicit sort by source.
    for ex in &mut schedule {
        ex.recvs.sort_by_key(|r| r.from_world);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::build_overset_columns;
    use crate::patch::PatchSpec;

    fn setup(pth: usize, pph: usize) -> (PatchGrid, Decomp2D, Vec<OversetColumn>) {
        let g = PatchGrid::new(PatchSpec::equal_spacing(4, 17, 0.35, 1.0));
        let d = Decomp2D::new(pth, pph, &g);
        let cols = build_overset_columns(&g).unwrap();
        (g, d, cols)
    }

    #[test]
    fn world_rank_layout_round_trips() {
        assert_eq!(world_rank(Panel::Yin, 3, 8), 3);
        assert_eq!(world_rank(Panel::Yang, 3, 8), 11);
        assert_eq!(panel_of_world(3, 8), (Panel::Yin, 3));
        assert_eq!(panel_of_world(11, 8), (Panel::Yang, 3));
    }

    #[test]
    fn sends_and_recvs_pair_up() {
        let (g, d, cols) = setup(2, 3);
        let schedule = build_schedule(&g, &d, &cols);
        assert_eq!(schedule.len(), 12);
        for (w, ex) in schedule.iter().enumerate() {
            for s in &ex.sends {
                // The destination must list a matching receive of the same
                // length from us.
                let peer = &schedule[s.to_world];
                let r = peer
                    .recvs
                    .iter()
                    .find(|r| r.from_world == w)
                    .unwrap_or_else(|| panic!("rank {} missing recv from {w}", s.to_world));
                assert_eq!(r.slots.len(), s.jobs.len());
            }
            for r in &ex.recvs {
                let peer = &schedule[r.from_world];
                assert!(peer.sends.iter().any(|s| s.to_world == w));
            }
        }
    }

    #[test]
    fn cross_panel_only() {
        let (g, d, cols) = setup(2, 2);
        let tiles = d.tiles();
        let schedule = build_schedule(&g, &d, &cols);
        for (w, ex) in schedule.iter().enumerate() {
            let (my_panel, _) = panel_of_world(w, tiles);
            for s in &ex.sends {
                let (peer_panel, _) = panel_of_world(s.to_world, tiles);
                assert_ne!(my_panel, peer_panel, "overset traffic must cross panels");
            }
        }
    }

    #[test]
    fn every_padded_frame_column_is_covered_once_per_rank() {
        let (g, d, cols) = setup(2, 3);
        let halo = g.spec().halo;
        let tiles = d.tiles();
        let schedule = build_schedule(&g, &d, &cols);
        for rt in 0..tiles {
            let tile = d.tile(rt);
            // Count frame columns in the padded region.
            let mut expected = 0;
            for col in &cols {
                if tile.contains_padded(col.tgt_j as isize, col.tgt_k as isize, halo) {
                    expected += 1;
                }
            }
            for panel in [Panel::Yin, Panel::Yang] {
                let w = world_rank(panel, rt, tiles);
                let got = schedule[w].received_columns();
                assert_eq!(got, expected, "rank {w} frame column count");
                // No duplicate target slots from different donors.
                let mut seen = std::collections::HashSet::new();
                for r in &schedule[w].recvs {
                    for slot in &r.slots {
                        assert!(seen.insert((slot.tj, slot.tk)), "slot filled twice");
                    }
                }
            }
        }
    }

    #[test]
    fn donor_stencils_fit_in_owner_padded_region() {
        let (g, d, cols) = setup(3, 4);
        let halo = g.spec().halo as isize;
        let tiles = d.tiles();
        let schedule = build_schedule(&g, &d, &cols);
        for (w, ex) in schedule.iter().enumerate() {
            let (_, pr) = panel_of_world(w, tiles);
            let tile = d.tile(pr);
            for s in &ex.sends {
                for j in &s.jobs {
                    // Lower corner is owned...
                    assert!(j.dj >= 0 && (j.dj as usize) < tile.nth);
                    assert!(j.dk >= 0 && (j.dk as usize) < tile.nph);
                    // ...and the +1 nodes are within the halo.
                    assert!(j.dj + 1 < tile.nth as isize + halo);
                    assert!(j.dk + 1 < tile.nph as isize + halo);
                }
            }
        }
    }

    #[test]
    fn single_tile_schedule_matches_serial_structure() {
        let (g, d, cols) = setup(1, 1);
        let schedule = build_schedule(&g, &d, &cols);
        assert_eq!(schedule.len(), 2);
        // One send set each (to the partner), one recv set each.
        for ex in &schedule {
            assert_eq!(ex.sends.len(), 1);
            assert_eq!(ex.recvs.len(), 1);
            assert_eq!(ex.sends[0].jobs.len(), cols.len());
            assert_eq!(ex.received_columns(), cols.len());
        }
    }

    #[test]
    fn yin_yang_symmetry_of_schedule() {
        // By the complementary symmetry, Yang rank q's schedule mirrors
        // Yin rank q's with panels swapped.
        let (g, d, cols) = setup(2, 2);
        let tiles = d.tiles();
        let schedule = build_schedule(&g, &d, &cols);
        for q in 0..tiles {
            let yin = &schedule[world_rank(Panel::Yin, q, tiles)];
            let yang = &schedule[world_rank(Panel::Yang, q, tiles)];
            assert_eq!(yin.sends.len(), yang.sends.len());
            for (a, b) in yin.sends.iter().zip(&yang.sends) {
                let (pa, ra) = panel_of_world(a.to_world, tiles);
                let (pb, rb) = panel_of_world(b.to_world, tiles);
                assert_eq!(pa, Panel::Yang);
                assert_eq!(pb, Panel::Yin);
                assert_eq!(ra, rb);
                assert_eq!(a.jobs, b.jobs);
            }
        }
    }
}
