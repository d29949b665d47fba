//! Array substrate: radially-contiguous 3-D fields with halo layers.
//!
//! The paper vectorizes the radial dimension of every 3-D array on the
//! Earth Simulator (radial size 255/511, just under the 256-element vector
//! registers). This crate mirrors that layout choice: the radial index `i`
//! is the **innermost, unit-stride** dimension so the hot finite-difference
//! loops stream long contiguous runs through the cache exactly where the
//! original code streamed them through vector pipes.
//!
//! Layout: `index = (k_pad * nth_pad + j_pad) * nr + i` where `j_pad`/`k_pad`
//! include the ghost offset. Ghost layers exist only in θ and φ — the
//! radial dimension is never decomposed (as in the paper), and the physical
//! boundary conditions at `r = ri, ro` operate on the end planes directly.
#![warn(missing_docs)]

pub mod array3;
pub mod flops;
pub mod pack;
pub mod vector;

pub use array3::{Array3, Shape};
pub use flops::Meters;
pub use pack::{pack_region, unpack_region, Region};
pub use vector::VectorField;
