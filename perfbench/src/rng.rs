//! The benchmark's own seeded generator (SplitMix64), so that inputs
//! depend only on `--seed` and on nothing in the program under test.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for sub-sequence `k` of `seed` (one per
    /// round, one per corpus), so a round's inputs do not depend on how
    /// many rounds ran before it.
    pub fn stream(seed: u64, k: u64) -> Rng {
        let mut r = Rng(seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Lets the program's seeded helpers (such as `fol::Model::random`) draw
/// from the benchmark's stream.
impl hoas_testkit::rng::Rng for Rng {
    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }
}
