//! Cartesian process topologies (`MPI_CART_CREATE` / `MPI_CART_SHIFT`).
//!
//! Inside each Yin/Yang panel the paper decomposes the horizontal (θ, φ)
//! plane over a 2-D process array. [`CartComm`] wraps a communicator with
//! row-major coordinates and nearest-neighbour lookup; each process has up
//! to four neighbours (north, south, east, west), fewer on non-periodic
//! edges — where the patch boundary is an overset boundary instead.

use crate::comm::Comm;

/// A communicator with an attached 2-D Cartesian topology.
///
/// Dimension 0 is colatitude (θ), dimension 1 is longitude (φ).
/// Coordinates are row-major in rank: `rank = coord0 * dims[1] + coord1`.
pub struct CartComm {
    comm: Comm,
    dims: [usize; 2],
    periodic: [bool; 2],
}

impl CartComm {
    /// Attach a 2-D topology to `comm`. `dims[0] * dims[1]` must equal the
    /// communicator size.
    pub fn new(comm: Comm, dims: [usize; 2], periodic: [bool; 2]) -> Self {
        assert_eq!(
            dims[0] * dims[1],
            comm.size(),
            "topology {}x{} does not cover communicator of size {}",
            dims[0],
            dims[1],
            comm.size()
        );
        CartComm { comm, dims, periodic }
    }

    /// The underlying communicator.
    #[inline]
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The process-grid extents `(Pθ, Pφ)`.
    #[inline]
    pub fn dims(&self) -> [usize; 2] {
        self.dims
    }

    /// My coordinates in the process grid.
    #[inline]
    pub fn coords(&self) -> [usize; 2] {
        self.coords_of(self.comm.rank())
    }

    /// Coordinates of rank `r`.
    #[inline]
    pub fn coords_of(&self, r: usize) -> [usize; 2] {
        assert!(r < self.comm.size(), "rank {r} outside the {}-rank topology", self.comm.size());
        [r / self.dims[1], r % self.dims[1]]
    }

    /// Rank at coordinates `c` (must be in range).
    #[inline]
    pub fn rank_of(&self, c: [usize; 2]) -> usize {
        assert!(c[0] < self.dims[0] && c[1] < self.dims[1], "coords {c:?} out of range");
        c[0] * self.dims[1] + c[1]
    }

    /// The ranks `displacement` steps down/up along `dim` from me:
    /// `(source, destination)` in the `MPI_CART_SHIFT` sense — `source` is
    /// the rank that would send to me, `destination` the rank I would send
    /// to, `None` at a non-periodic edge.
    pub fn shift(&self, dim: usize, displacement: isize) -> (Option<usize>, Option<usize>) {
        assert!(dim < 2, "dimension {dim} of a 2-D (θ, φ) topology");
        let me = self.coords();
        (self.neighbor(me, dim, -displacement), self.neighbor(me, dim, displacement))
    }

    fn neighbor(&self, from: [usize; 2], dim: usize, step: isize) -> Option<usize> {
        let extent = self.dims[dim] as isize;
        let raw = from[dim] as isize + step;
        let coord = if self.periodic[dim] {
            raw.rem_euclid(extent)
        } else if raw < 0 || raw >= extent {
            return None;
        } else {
            raw
        };
        let mut c = from;
        c[dim] = coord as usize;
        Some(self.rank_of(c))
    }

    /// The four nearest neighbours `(north, south, west, east)` =
    /// (θ−, θ+, φ−, φ+), `None` at non-periodic edges.
    pub fn neighbors4(&self) -> [Option<usize>; 4] {
        let me = self.coords();
        [
            self.neighbor(me, 0, -1),
            self.neighbor(me, 0, 1),
            self.neighbor(me, 1, -1),
            self.neighbor(me, 1, 1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn coords_and_rank_are_inverse() {
        let dims = [3, 4];
        // Build outside a universe by faking via Universe of the right size.
        Universe::run(12, |comm| {
            let cart = CartComm::new(comm, dims, [false, false]);
            for r in 0..12 {
                assert_eq!(cart.rank_of(cart.coords_of(r)), r);
            }
            let me = cart.coords();
            assert_eq!(cart.rank_of(me), cart.comm().rank());
        });
    }

    #[test]
    fn shift_nonperiodic_edges_are_none() {
        let out = Universe::run(6, |comm| {
            let cart = CartComm::new(comm, [2, 3], [false, false]);
            (cart.coords(), cart.shift(0, 1), cart.shift(1, 1))
        });
        // Rank 0 at (0,0): shift θ by +1 → src None (no rank above), dst rank 3.
        assert_eq!(out[0].1, (None, Some(3)));
        // Rank 5 at (1,2): shift θ +1 → src rank 2, dst None.
        assert_eq!(out[5].1, (Some(2), None));
        // Rank 5 shift φ +1 → src rank 4, dst None (right edge).
        assert_eq!(out[5].2, (Some(4), None));
    }

    #[test]
    fn shift_periodic_wraps() {
        let out = Universe::run(4, |comm| {
            let cart = CartComm::new(comm, [1, 4], [false, true]);
            cart.shift(1, 1)
        });
        assert_eq!(out[0], (Some(3), Some(1)));
        assert_eq!(out[3], (Some(2), Some(0)));
    }

    #[test]
    fn neighbors4_structure() {
        let out = Universe::run(9, |comm| {
            let cart = CartComm::new(comm, [3, 3], [false, false]);
            cart.neighbors4()
        });
        // Center rank 4 has all four neighbours.
        assert_eq!(out[4], [Some(1), Some(7), Some(3), Some(5)]);
        // Corner rank 0 has two.
        assert_eq!(out[0], [None, Some(3), None, Some(1)]);
    }

    #[test]
    fn halo_exchange_pattern_completes() {
        // Emulate the paper's nearest-neighbour exchange: send my rank to
        // all existing neighbours, receive from the same set.
        let out = Universe::run(6, |comm| {
            use crate::stats::TrafficClass;
            let cart = CartComm::new(comm, [2, 3], [false, true]);
            let nbrs = cart.neighbors4();
            for (dir, n) in nbrs.iter().enumerate() {
                if let Some(dst) = n {
                    cart.comm().send_f64s(
                        *dst,
                        dir as u64,
                        vec![cart.comm().rank() as f64],
                        TrafficClass::Halo,
                    );
                }
            }
            // Receive using the mirrored direction tag (N↔S, W↔E).
            let mirror = [1_usize, 0, 3, 2];
            let mut sum = 0.0;
            for (dir, n) in nbrs.iter().enumerate() {
                if let Some(src) = n {
                    sum += cart.comm().recv_f64s(*src, mirror[dir] as u64)[0];
                }
            }
            sum
        });
        // Every rank got one message per neighbour; spot-check rank 0:
        // neighbours are S=3, W=2, E=1 (φ periodic) → sum 6.
        assert_eq!(out[0], 6.0);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn wrong_dims_panics() {
        Universe::run(4, |comm| {
            let _ = CartComm::new(comm, [3, 2], [false, false]);
        });
    }
}
