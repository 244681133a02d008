//! The zero-allocation mining scratch arena.
//!
//! Every node of the set-enumeration tree used to allocate several fresh
//! `Vec<u32>`s (branch list, lookahead candidate, `S'`, `ext(S')`, degree
//! vectors, the Type-I survivor list) and fresh [`VertexBitSet`]s (the
//! extension-side bitset, two-hop neighborhoods). On dense workloads where each
//! node does little other work, the allocator became the dominant residual
//! cost once edge queries were made cheap by the hub index. [`MiningScratch`]
//! removes it: a pool of reusable frames owned by
//! [`crate::MiningContext`], borrowed for the duration of one tree node and
//! returned on exit.
//!
//! The pool follows the recursion's LIFO discipline, so it grows
//! monotonically with the deepest recursion seen and is then reused for every
//! subsequent node and — because the serial driver and the engine workers
//! keep one arena alive across tasks — for every subsequent task. In steady
//! state a tree node performs **zero** heap allocations; the always-on
//! counters `allocations_avoided` / `scratch_fresh_allocs` in
//! [`qcm_graph::neighborhoods::perf`] make that verifiable from a benchmark
//! report.
//!
//! Every run pools. [`MiningScratch::fresh`] is the reference arena that tests
//! install in a [`crate::MiningContext`]: every take allocates and every put
//! drops, as before the arena, and the property tests assert that it mines
//! byte-identically.

use crate::degrees::Degrees;
use qcm_graph::bitset::VertexBitSet;
use qcm_graph::neighborhoods::perf;

/// Whether scratch frames are pooled or freshly allocated per request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum ScratchMode {
    /// Reuse frames across tree nodes and tasks (zero allocations in steady
    /// state).
    #[default]
    Pooled,
    /// Allocate every frame fresh, mirroring the pre-arena hot path.
    Fresh,
}

/// A depth-growing pool of reusable mining buffers.
///
/// Frames are taken at the top of a tree node and put back on exit; the
/// recursion's LIFO order means the pool's high-water mark tracks the deepest
/// node, after which every request is served without touching the heap.
#[derive(Debug, Default)]
pub struct MiningScratch {
    mode: ScratchMode,
    vecs: Vec<Vec<u32>>,
    bitsets: Vec<VertexBitSet>,
    degrees: Vec<Degrees>,
    /// Bytes resident in the pools right now (parked frames only).
    pooled_bytes: u64,
}

impl MiningScratch {
    /// An arena that never pools — every take allocates, every put drops.
    /// The reference arena of the equivalence tests; every run pools
    /// ([`MiningScratch::default`]).
    pub fn fresh() -> Self {
        MiningScratch {
            mode: ScratchMode::Fresh,
            ..Default::default()
        }
    }

    /// Bytes currently parked in the pools.
    pub fn pooled_bytes(&self) -> u64 {
        self.pooled_bytes
    }

    /// Borrows an empty `u32` buffer.
    #[inline]
    pub fn take_vec(&mut self) -> Vec<u32> {
        match self.vecs.pop() {
            Some(v) => {
                debug_assert!(v.is_empty());
                self.pooled_bytes -= vec_bytes(&v);
                perf::count_allocations_avoided(1);
                v
            }
            None => {
                perf::count_scratch_fresh_allocs(1);
                Vec::new()
            }
        }
    }

    /// Borrows an empty `u32` buffer with at least `cap` capacity.
    #[inline]
    pub fn take_vec_cap(&mut self, cap: usize) -> Vec<u32> {
        match self.vecs.pop() {
            Some(mut v) => {
                debug_assert!(v.is_empty());
                self.pooled_bytes -= vec_bytes(&v);
                v.reserve(cap);
                perf::count_allocations_avoided(1);
                v
            }
            None => {
                perf::count_scratch_fresh_allocs(1);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a `u32` buffer to the pool (cleared here).
    #[inline]
    pub fn put_vec(&mut self, mut v: Vec<u32>) {
        if self.mode == ScratchMode::Fresh {
            return;
        }
        v.clear();
        self.park(vec_bytes(&v));
        self.vecs.push(v);
    }

    /// Borrows a cleared bitset of exactly `capacity` id slots.
    #[inline]
    pub fn take_bitset(&mut self, capacity: usize) -> VertexBitSet {
        match self.bitsets.pop() {
            Some(mut b) => {
                self.pooled_bytes -= b.memory_bytes() as u64;
                b.reset(capacity);
                perf::count_allocations_avoided(1);
                b
            }
            None => {
                perf::count_scratch_fresh_allocs(1);
                VertexBitSet::new(capacity)
            }
        }
    }

    /// Returns a bitset to the pool.
    #[inline]
    pub fn put_bitset(&mut self, b: VertexBitSet) {
        if self.mode == ScratchMode::Fresh {
            return;
        }
        self.park(b.memory_bytes() as u64);
        self.bitsets.push(b);
    }

    /// Borrows a cleared degree-vector frame.
    #[inline]
    pub fn take_degrees(&mut self) -> Degrees {
        match self.degrees.pop() {
            Some(d) => {
                self.pooled_bytes -= degrees_bytes(&d);
                perf::count_allocations_avoided(1);
                d
            }
            None => {
                perf::count_scratch_fresh_allocs(1);
                Degrees::default()
            }
        }
    }

    /// Returns a degree frame to the pool (cleared here).
    #[inline]
    pub fn put_degrees(&mut self, mut d: Degrees) {
        if self.mode == ScratchMode::Fresh {
            return;
        }
        d.clear();
        self.park(degrees_bytes(&d));
        self.degrees.push(d);
    }

    #[inline]
    fn park(&mut self, bytes: u64) {
        self.pooled_bytes += bytes;
        perf::record_scratch_bytes(self.pooled_bytes);
    }
}

#[inline]
fn vec_bytes(v: &Vec<u32>) -> u64 {
    (v.capacity() * std::mem::size_of::<u32>()) as u64
}

#[inline]
fn degrees_bytes(d: &Degrees) -> u64 {
    ((d.s_in_s.capacity()
        + d.s_in_ext.capacity()
        + d.ext_in_s.capacity()
        + d.se_histogram.capacity())
        * std::mem::size_of::<u32>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_arena_reuses_buffers() {
        let mut scratch = MiningScratch::default();
        let mut v = scratch.take_vec();
        v.extend_from_slice(&[1, 2, 3]);
        let ptr = v.as_ptr();
        scratch.put_vec(v);
        let v2 = scratch.take_vec();
        assert!(v2.is_empty());
        assert_eq!(v2.as_ptr(), ptr, "the same buffer must come back");
        scratch.put_vec(v2);
        assert!(scratch.pooled_bytes() > 0);
    }

    #[test]
    fn fresh_mode_never_pools() {
        let mut scratch = MiningScratch::fresh();
        let mut v = scratch.take_vec();
        v.push(7);
        scratch.put_vec(v);
        assert_eq!(scratch.pooled_bytes(), 0);
        let v2 = scratch.take_vec();
        assert!(v2.is_empty() && v2.capacity() == 0);
    }

    #[test]
    fn bitsets_retarget_capacity_on_reuse() {
        let mut scratch = MiningScratch::default();
        let mut b = scratch.take_bitset(100);
        b.insert(99);
        scratch.put_bitset(b);
        let b2 = scratch.take_bitset(40);
        assert_eq!(b2.capacity(), 40);
        assert!(b2.is_empty(), "recycled bitset must come back cleared");
        let b3 = scratch.take_bitset(500);
        assert_eq!(b3.capacity(), 500);
        assert!(b3.is_empty());
    }

    #[test]
    fn degree_frames_round_trip() {
        let mut scratch = MiningScratch::default();
        let mut d = scratch.take_degrees();
        d.s_in_s.push(3);
        scratch.put_degrees(d);
        let d2 = scratch.take_degrees();
        assert_eq!(d2, Degrees::default());
        scratch.put_degrees(d2);
    }
}
