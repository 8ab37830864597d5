//! Seeded input generation: every sequence the benchmark feeds the
//! program derives from `--seed` through these functions, so the same
//! seed always yields the same operations in the same order.

use tm3270_harness::job_seed;

/// SplitMix64: a small, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for stream `stream` of benchmark seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(job_seed(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A weighted mix drawn as shuffled decks: each deck holds every item
/// exactly `weight` times, so the mix's proportions hold exactly over
/// every whole deck and the seed only changes the order. That keeps
/// the work per run steady across seeds.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    /// A deck of `(item, weight)` pairs shuffled by `rng`.
    pub fn new(mix: &[(T, usize)], rng: Rng) -> Deck<T> {
        let cards: Vec<T> = mix
            .iter()
            .flat_map(|&(item, weight)| std::iter::repeat_n(item, weight))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        let next = cards.len();
        Deck { cards, next, rng }
    }

    /// The next card, reshuffling when the deck runs out.
    pub fn draw(&mut self) -> T {
        if self.next == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, n: usize) -> Vec<&'static str> {
        let mut deck = Deck::new(&[("memset", 3), ("filter", 1)], Rng::new(seed, 7));
        (0..n).map(|_| deck.draw()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_op_sequence() {
        assert_eq!(draws(1, 100), draws(1, 100));
        assert_ne!(draws(1, 100), draws(2, 100), "the seed reorders the mix");
    }

    #[test]
    fn every_whole_deck_holds_the_exact_mix() {
        let seq = draws(5, 40);
        for deck in seq.chunks(4) {
            assert_eq!(deck.iter().filter(|&&k| k == "filter").count(), 1);
        }
    }

    #[test]
    fn streams_and_shuffles_are_deterministic() {
        let mut a: Vec<u32> = (0..44).collect();
        let mut b = a.clone();
        Rng::new(9, 1).shuffle(&mut a);
        Rng::new(9, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..44).collect();
        Rng::new(9, 2).shuffle(&mut c);
        assert_ne!(a, c, "streams are independent");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..44).collect::<Vec<_>>(), "a permutation");
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }
}
