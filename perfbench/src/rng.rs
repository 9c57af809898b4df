//! Seeded input generation: every battery, pool, popularity draw and
//! arrival schedule derives from the `--seed` argument through here.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so each
    /// input family (battery, pool, Zipf, schedule) draws independently.
    pub fn derive(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Rng(seed ^ h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf popularity over `n` ranks: rank `k` (0-based) has probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    probs: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        Zipf {
            probs: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// How often each rank occurs in `len` draws that follow the
    /// distribution exactly: largest-remainder rounding of `len × p`,
    /// ties to the lower rank.
    pub fn counts(&self, len: usize) -> Vec<usize> {
        let exact: Vec<f64> = self.probs.iter().map(|p| p * len as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = len - counts.iter().sum::<usize>();
        for &k in &by_remainder[..short] {
            counts[k] += 1;
        }
        counts
    }
}

/// Draws Zipf ranks deck by deck. Each deck of `len` draws holds every
/// rank exactly [`Zipf::counts`] times, in a seeded order: a whole number
/// of decks has the same mix at every seed, and only the order differs.
/// Served cost differs a lot between ranks, so independent draws would
/// make the mix, and with it every latency figure, vary with the seed.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl Deck {
    pub fn new(zipf: &Zipf, len: usize, rng: Rng) -> Deck {
        let cards: Vec<usize> = zipf
            .counts(len)
            .into_iter()
            .enumerate()
            .flat_map(|(k, c)| std::iter::repeat_n(k, c))
            .collect();
        Deck {
            next: cards.len(),
            cards,
            rng,
        }
    }

    /// The next rank; a fresh shuffle of the deck when the last ran out.
    pub fn draw(&mut self) -> usize {
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

    #[test]
    fn streams_repeat_per_seed_and_differ_per_label() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(9, "pool").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::derive(9, "pool").next_u64(),
            Rng::derive(9, "zipf").next_u64()
        );
        assert_ne!(
            Rng::derive(9, "pool").next_u64(),
            Rng::derive(10, "pool").next_u64()
        );
    }

    #[test]
    fn zipf_counts_follow_the_distribution() {
        let z = Zipf::new(16, 1.0);
        let c = z.counts(32);
        assert_eq!(c.iter().sum::<usize>(), 32);
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert!(c[0] > c[1] && c[0] > c[15]);
        // 16 ranks with Zipf(1.0): rank 0 has p = 0.296, so 9.46 of 32.
        assert_eq!(c[0], 9);
        assert_eq!(Zipf::new(3, 0.0).counts(7), vec![3, 2, 2]);
    }

    #[test]
    fn decks_keep_the_mix_and_shuffle_by_seed() {
        let z = Zipf::new(16, 1.0);
        let draw = |seed| {
            let mut d = Deck::new(&z, 32, Rng::derive(seed, "deck"));
            (0..64).map(|_| d.draw()).collect::<Vec<_>>()
        };
        let (a, b) = (draw(1), draw(2));
        assert_ne!(a, b);
        assert_eq!(a, draw(1));
        for run in [&a[..32], &a[32..], &b[..32]] {
            let mut counts = vec![0; 16];
            for &k in run {
                counts[k] += 1;
            }
            assert_eq!(counts, z.counts(32));
        }
    }
}
