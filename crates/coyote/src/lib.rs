//! # coyote-baseline
//!
//! A Coyote-style search-based vectorizing FHE compiler, used as the
//! comparison baseline in the CHEHAB RL evaluation (Section 7).
//!
//! Coyote frames vectorization as a combinatorial layout/packing search: all
//! scalar inputs are packed into wide ciphertext vectors under some layout,
//! isomorphic scalar operations are grouped into vector instructions, and
//! rotations plus plaintext masks align operands that the chosen layout left
//! in the wrong slots. This reimplementation follows that structure:
//!
//! 1. the program's scalar outputs define the result lanes;
//! 2. a search over input layouts (slot permutations) explores the packing
//!    space, costing every candidate circuit — the search budget grows with
//!    program size, which is what makes Coyote's compile times blow up on
//!    large kernels (Figure 6);
//! 3. the selected layout is lowered to a vectorized circuit in the CHEHAB IR
//!    where operand alignment is realized with rotations and 0/1 plaintext
//!    masks (ciphertext–plaintext multiplications), reproducing the
//!    rotation- and ct-pt-heavy circuits the paper observes for Coyote
//!    (Table 6).
//!
//! The produced circuit is ordinary CHEHAB IR, so the same interpreter and
//! BFV backend execute it and correctness is checked against the scalar
//! program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod packer;
mod search;

pub use packer::{LanePacker, Layout};
pub use search::{CoyoteCompiler, CoyoteConfig, CoyoteResult};
