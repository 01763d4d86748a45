//! The benchmark's seeded generator (splitmix64) for the inputs it builds
//! itself; the library's generators take the seed directly.

use pce_core::graph::VertexId;

/// One splitmix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, state: &mut u64) -> Vec<VertexId> {
    let mut p: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}
