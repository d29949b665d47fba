//! Validation rigs: the Yin-Yang patches, overset interpolation and RK4
//! staging of the geodynamo solver, driven by two problems with known
//! answers — scalar transport ([`transport`], Williamson TC1) and the
//! shallow-water equations ([`shallow`], Williamson TC2). Neither is
//! part of the geodynamo code path; `yycore` does not depend on this
//! crate.
#![warn(missing_docs)]

pub mod shallow;
pub mod transport;

use yy_field::Array3;
use yy_mesh::{apply_scalar, OversetColumn};

/// Overset-fill a *scalar* pair: each panel's frame columns interpolated
/// from the partner (no vector rotation, no physical wall condition).
pub fn fill_pair_scalar(yin: &mut Array3, yang: &mut Array3, cols: &[OversetColumn]) {
    for col in cols {
        apply_scalar(col, yang, yin);
    }
    for col in cols {
        apply_scalar(col, yin, yang);
    }
}
