//! A minimal FNV-1a hasher for small integer keys.
//!
//! The profilers key hash maps by tiny tuples such as
//! `(RoutineId, ThreadId)` — at most 16 bytes of id material — and hit
//! those maps on every routine return. `std`'s default SipHash is
//! DoS-resistant but an order of magnitude slower than needed for keys
//! the guest program cannot choose adversarially (ids are assigned
//! densely by the VM). FNV-1a folds one byte per step with a multiply
//! and xor, which the compiler unrolls to a handful of instructions for
//! fixed-size keys. The fold is the workspace's one FNV-1a,
//! [`drms_trace::lines::fnv1a_extend`], which inlines across crates.

use drms_trace::lines::{fnv1a_extend, FNV_OFFSET};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a streaming hasher (64-bit).
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

/// `BuildHasher` plugging [`FnvHasher`] into `HashMap`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::Hash;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        let hash = |s: &[u8]| {
            let mut h = FnvHasher::default();
            h.write(s);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf29ce484222325);
        assert_eq!(hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m: HashMap<(u32, u32), u64, FnvBuildHasher> = HashMap::default();
        for i in 0..100u32 {
            m.insert((i, i ^ 7), u64::from(i));
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&(42, 42 ^ 7)], 42);
        // Distinct tuples hash distinctly enough to be found again.
        let mut h1 = FnvHasher::default();
        (1u32, 2u32).hash(&mut h1);
        let mut h2 = FnvHasher::default();
        (2u32, 1u32).hash(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
