//! Zipfian transaction streams for mempool and node-pipeline workloads.
//!
//! Block generation ([`crate::Generator`]) aims for a *dependency ratio*
//! inside one pre-assembled block. The mempool needs something different:
//! an open-ended stream whose *senders* follow the heavy-tailed
//! popularity observed on mainnet (a few accounts submit most
//! transactions) and whose *recipients* concentrate on a few hot
//! accounts, so per-sender nonce chains, fee eviction and the packer's
//! conflict avoidance all get exercised by the same stream.
//!
//! Sender ranks are drawn from a Zipf distribution (probability of rank
//! *r* ∝ 1/*r*^θ) via an inverse-CDF table and binary search — exact, no
//! rejection loop, and deterministic from the seed.

use mtpu_contracts::fixture::USER_COUNT;
use mtpu_contracts::Fixture;
use mtpu_evm::state::State;
use mtpu_evm::tx::Transaction;
use mtpu_primitives::{SplitMix64, U256};

/// Shape of a Zipfian transaction stream.
#[derive(Debug, Clone)]
pub struct ZipfConfig {
    /// Distinct senders (Zipf ranks). Clamped to the fixture's user count
    /// minus the hot-recipient reserve.
    pub senders: u64,
    /// Zipf exponent θ: 0 is uniform; ≈1 matches classic web/mainnet
    /// popularity; larger is more skewed.
    pub theta: f64,
    /// Fraction of token transfers aimed at one of the hot recipients
    /// (their balance slots become contended storage).
    pub hot_ratio: f64,
    /// Number of hot recipient accounts.
    pub hot_slots: u64,
    /// Fraction of transactions that are ERC20 token calls; the rest are
    /// plain value transfers.
    pub sct_ratio: f64,
    /// Gas prices are drawn uniformly from `1..=max_fee`, giving the
    /// pool's fee ordering, eviction and replace-by-fee something to sort.
    pub max_fee: u64,
    /// Total distinct accounts the stream draws from (senders, uniform
    /// recipients and hot recipients all live inside it). `0` keeps the
    /// fixture's built-in [`USER_COUNT`]; larger universes are
    /// provisioned on the fly via [`Fixture::ensure_users`], scaling the
    /// stream to millions of distinct accounts.
    pub universe: u64,
    /// Distinct uniform-recipient accounts (ids `0..recipients`). `0`
    /// mirrors the sender count — the historical behavior.
    pub recipients: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            senders: 256,
            theta: 1.0,
            hot_ratio: 0.2,
            hot_slots: 4,
            sct_ratio: 0.7,
            max_fee: 100,
            universe: 0,
            recipients: 0,
        }
    }
}

/// A self-contained Zipf rank sampler: the inverse-CDF table plus its own
/// deterministic RNG, with none of [`ZipfGen`]'s fixture world attached.
/// Cheap enough to build one per reader thread — key-popularity skew for
/// read workloads, sender popularity for write streams.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative Zipf mass per rank, normalized to 1.0 at the end.
    cdf: Vec<f64>,
    rng: SplitMix64,
}

impl ZipfSampler {
    /// A sampler over `ranks` ranks with exponent `theta` (0 = uniform,
    /// ≈1 = classic popularity skew), deterministic from `seed`.
    pub fn new(seed: u64, ranks: u64, theta: f64) -> Self {
        let ranks = ranks.max(1);
        let mut cdf = Vec::with_capacity(ranks as usize);
        let mut total = 0.0f64;
        for r in 1..=ranks {
            total += 1.0 / (r as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler {
            cdf,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Number of ranks the sampler draws from.
    pub fn ranks(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// The rank a unit-interval draw lands on (pure inverse CDF; rank 0
    /// is the most popular).
    pub fn rank_of(&self, u: f64) -> u64 {
        self.cdf.partition_point(|&c| c < u) as u64
    }

    /// Draws the next rank from the sampler's own RNG.
    pub fn sample(&mut self) -> u64 {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.rank_of(u)
    }
}

/// A deterministic Zipfian transaction stream over a deployed
/// [`Fixture`] world.
#[derive(Debug)]
pub struct ZipfGen {
    /// The deployed world (nonces advance as transactions are drawn).
    pub fx: Fixture,
    cfg: ZipfConfig,
    rng: SplitMix64,
    /// Sender ranks (only the inverse-CDF side; draws come from `rng` so
    /// the stream stays bit-compatible with the pre-sampler behavior).
    sampler: ZipfSampler,
}

impl ZipfGen {
    /// A stream with the given shape and seed. Universes beyond the
    /// fixture's built-in users are provisioned before the first draw.
    pub fn new(seed: u64, mut cfg: ZipfConfig) -> Self {
        if cfg.universe == 0 {
            cfg.universe = USER_COUNT;
        }
        cfg.universe = cfg.universe.max(2);
        let reserve = cfg.hot_slots.min(cfg.universe / 2);
        cfg.hot_slots = reserve;
        cfg.senders = cfg.senders.clamp(1, cfg.universe - reserve);
        if cfg.recipients == 0 {
            cfg.recipients = cfg.senders;
        }
        cfg.recipients = cfg.recipients.clamp(1, cfg.universe - reserve);
        let sampler = ZipfSampler::new(seed, cfg.senders, cfg.theta);
        let mut fx = Fixture::new();
        fx.ensure_users(cfg.universe);
        ZipfGen {
            fx,
            cfg,
            rng: SplitMix64::seed_from_u64(seed),
            sampler,
        }
    }

    /// The seeded genesis state transactions should be admitted against.
    pub fn genesis_state(&self) -> &State {
        &self.fx.state
    }

    /// The active configuration (after clamping).
    pub fn config(&self) -> &ZipfConfig {
        &self.cfg
    }

    /// A uniform draw from the unit interval (53 mantissa bits).
    fn unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draws a sender user id: Zipf rank via binary search on the CDF.
    /// Rank 0 is the most active sender.
    pub fn sample_sender(&mut self) -> u64 {
        let u = self.unit();
        self.sampler.rank_of(u)
    }

    /// Draws a recipient user id: hot with probability `hot_ratio`, else
    /// uniform over `0..recipients`. Hot recipients live at the top of
    /// the universe, disjoint from the sender ranks.
    fn sample_recipient(&mut self) -> u64 {
        if self.cfg.hot_slots > 0 && self.rng.random_bool(self.cfg.hot_ratio) {
            self.cfg.universe - 1 - self.rng.random_range(0..self.cfg.hot_slots)
        } else {
            self.rng.random_range(0..self.cfg.recipients)
        }
    }

    /// The next transaction of the stream: a valid, nonce-ordered
    /// transaction from a Zipf-ranked sender with a uniform `1..=max_fee`
    /// gas price. Never exhausts — callers bound the stream by count.
    pub fn next_tx(&mut self) -> Transaction {
        let sender = self.sample_sender();
        let recipient = self.sample_recipient();
        let mut tx = if self.rng.random_bool(self.cfg.sct_ratio) {
            // Values below 1000 keep TetherUSD's fee at zero so the only
            // deliberately contended slot is the hot recipient's balance.
            let amount = U256::from(self.rng.random_range(1..999));
            self.fx.call_tx(
                sender,
                "Tether USD",
                "transfer",
                &[Fixture::user_address(recipient).to_u256(), amount],
            )
        } else {
            let nonce = self.fx.next_nonce(sender);
            Transaction::transfer(
                Fixture::user_address(sender),
                Fixture::user_address(recipient),
                U256::from(self.rng.random_range(1..1000)),
                nonce,
            )
        };
        tx.gas_price = U256::from(self.rng.random_range(1..self.cfg.max_fee.max(1) + 1));
        tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_primitives::map::FastMap;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut g = ZipfGen::new(7, ZipfConfig::default());
        let mut counts = FastMap::default();
        let draws = 20_000;
        for _ in 0..draws {
            *counts.entry(g.sample_sender()).or_insert(0u64) += 1;
        }
        let top = counts.get(&0).copied().unwrap_or(0);
        let uniform = draws / g.config().senders;
        assert!(
            top > uniform * 10,
            "rank 0 drew {top}, uniform share is {uniform}"
        );
        // And the tail still appears: a healthy spread, not a point mass.
        assert!(counts.len() > 100, "only {} distinct senders", counts.len());
    }

    #[test]
    fn nonces_are_contiguous_per_sender() {
        let mut g = ZipfGen::new(11, ZipfConfig::default());
        let mut next: FastMap<_, u64> = FastMap::default();
        for _ in 0..2_000 {
            let tx = g.next_tx();
            let want = next.entry(tx.from).or_insert(0);
            assert_eq!(tx.nonce, *want, "nonce gap for {:?}", tx.from);
            *want += 1;
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = ZipfGen::new(42, ZipfConfig::default());
        let mut b = ZipfGen::new(42, ZipfConfig::default());
        for _ in 0..500 {
            assert_eq!(a.next_tx(), b.next_tx());
        }
    }

    #[test]
    fn scaled_universe_reaches_beyond_the_builtin_users() {
        let cfg = ZipfConfig {
            senders: 4096,
            universe: 8192,
            recipients: 8000,
            hot_slots: 8,
            hot_ratio: 0.3,
            ..ZipfConfig::default()
        };
        let mut g = ZipfGen::new(21, cfg);
        assert_eq!(g.config().senders, 4096);
        assert_eq!(g.config().recipients, 8000);
        assert_eq!(g.fx.user_count(), 8192);
        let mut saw_big_sender = false;
        let mut saw_hot_top = false;
        for _ in 0..5_000 {
            let tx = g.next_tx();
            saw_big_sender |= tx.from >= Fixture::user_address(USER_COUNT);
            // Hot recipients sit at the top of the 8192-account universe;
            // both transfer flavors encode the recipient differently, so
            // just check some sender beyond the builtin range shows up and
            // nonces stay contiguous (checked by construction).
            saw_hot_top |= tx.from >= Fixture::user_address(8192 - 8);
        }
        assert!(saw_big_sender, "no sender beyond the builtin user range");
        let _ = saw_hot_top; // hot ids are recipients, senders rarely reach them
    }

    #[test]
    fn default_universe_matches_the_historical_stream() {
        // The new fields default to the historical behavior: same clamps,
        // same draw sequence.
        let mut a = ZipfGen::new(42, ZipfConfig::default());
        assert_eq!(a.config().universe, USER_COUNT);
        assert_eq!(a.config().recipients, a.config().senders);
        assert_eq!(a.fx.user_count(), USER_COUNT);
        let mut b = ZipfGen::new(
            42,
            ZipfConfig {
                universe: USER_COUNT,
                recipients: 256,
                ..ZipfConfig::default()
            },
        );
        for _ in 0..200 {
            assert_eq!(a.next_tx(), b.next_tx());
        }
    }

    #[test]
    fn standalone_sampler_matches_the_stream_sender_skew() {
        // The fixture-free sampler and ZipfGen share one inverse-CDF
        // construction: identical seeds give identical rank sequences.
        let mut solo = ZipfSampler::new(7, 256, 1.0);
        let mut g = ZipfGen::new(7, ZipfConfig::default());
        for _ in 0..1_000 {
            assert_eq!(solo.sample(), g.sample_sender());
        }
        // And it skews: rank 0 dominates a uniform share.
        let mut fresh = ZipfSampler::new(13, 256, 1.0);
        let draws = 20_000;
        let top = (0..draws).filter(|_| fresh.sample() == 0).count() as u64;
        assert!(top > 10 * draws / 256, "rank 0 drew only {top}");
    }

    #[test]
    fn fees_span_the_configured_range() {
        let mut g = ZipfGen::new(3, ZipfConfig::default());
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2_000 {
            let fee = g.next_tx().gas_price;
            assert!(fee >= U256::ONE && fee <= U256::from(100u64));
            seen_low |= fee <= U256::from(10u64);
            seen_high |= fee >= U256::from(90u64);
        }
        assert!(seen_low && seen_high);
    }
}
