//! Per-symbol occupancy counts: the state mergeable sketches share.
//!
//! The collision pair count `Σ_x C(count(x), 2)` and the singleton count
//! `|{x : count(x) = 1}|` are both functions of the per-symbol occupancy
//! vector, and both admit O(1) incremental updates when a symbol's count
//! changes by one. [`SymbolCounts`] is that vector: a dense `u32` table
//! over the domain plus a touched-symbol list so iterating the support
//! costs O(support), not O(n). `dut-stream`'s sketches are thin layers of
//! arithmetic over this type.

/// Dense per-symbol occupancy counts over the domain `{0, .., n-1}`.
///
/// Increments and decrements return the information an incremental
/// statistic needs (the count *before* an increment, the count *after* a
/// decrement), so callers never re-read the table. The support — symbols
/// with nonzero count — is tracked as an insertion-ordered list and
/// re-compacted lazily, which keeps [`SymbolCounts::iter_nonzero`]
/// proportional to the support even after heavy decrement churn.
///
/// ```rust
/// use dut_distributions::counts::SymbolCounts;
///
/// let mut counts = SymbolCounts::new(8);
/// assert_eq!(counts.increment(3), 0); // prior count
/// assert_eq!(counts.increment(3), 1);
/// assert_eq!(counts.count(3), 2);
/// assert_eq!(counts.decrement(3), 1); // new count
/// assert_eq!(counts.total(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SymbolCounts {
    counts: Vec<u32>,
    /// Symbols that may have nonzero count, in first-touch order:
    /// `touched[..listed_len]`. May contain symbols whose count has
    /// since dropped to zero; `iter_nonzero` filters and `compact` trims
    /// them. Always at least one entry longer than the list, so `add`
    /// can write the next symbol without testing whether it is new.
    touched: Vec<usize>,
    listed_len: usize,
    /// Whether a symbol is already listed in `touched`.
    listed: Vec<bool>,
    total: u64,
}

impl SymbolCounts {
    /// Creates an all-zero count table over the domain `{0, .., n-1}`.
    pub fn new(domain_size: usize) -> Self {
        SymbolCounts {
            counts: vec![0; domain_size],
            touched: vec![0],
            listed_len: 0,
            listed: vec![false; domain_size],
            total: 0,
        }
    }

    /// The domain size `n` the table was created with.
    pub fn domain_size(&self) -> usize {
        self.counts.len()
    }

    /// Total occupancy `Σ_x count(x)` — the number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The count of `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the domain.
    pub fn count(&self, symbol: usize) -> u32 {
        self.counts[symbol]
    }

    /// Adds one occurrence of `symbol` and returns its count *before*
    /// the increment — exactly the number of new colliding pairs the
    /// occurrence creates.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the domain or its count would
    /// overflow `u32`.
    #[inline]
    pub fn increment(&mut self, symbol: usize) -> u32 {
        self.add(symbol, 1)
    }

    /// Adds `k` occurrences of `symbol` and returns its count *before*
    /// the addition (the bulk form used by sketch merging).
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the domain or its count would
    /// overflow `u32`.
    #[inline]
    pub fn add(&mut self, symbol: usize, k: u32) -> u32 {
        let prior = self.counts[symbol];
        self.counts[symbol] = prior.checked_add(k).expect("symbol count overflowed u32");
        self.total += u64::from(k);
        // Branch-free on whether the symbol is new: on sliding-window
        // traffic that is close to a coin flip, and each mispredict
        // discards the caller's work in flight.
        let new = (k > 0) & !self.listed[symbol];
        self.listed[symbol] |= k > 0;
        self.touched[self.listed_len] = symbol;
        self.listed_len += usize::from(new);
        if self.listed_len == self.touched.len() {
            self.touched.push(0);
        }
        prior
    }

    /// Removes one occurrence of `symbol` and returns its count *after*
    /// the decrement — exactly what an incremental singleton statistic
    /// needs (new count 0: a singleton died earlier; new count 1: a
    /// symbol just became a singleton).
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the domain or its count is zero —
    /// retiring a sample that was never pushed is always a caller bug.
    #[inline]
    pub fn decrement(&mut self, symbol: usize) -> u32 {
        let prior = self.counts[symbol];
        assert!(prior > 0, "decrement of zero-count symbol {symbol}");
        let new = prior - 1;
        self.counts[symbol] = new;
        self.total -= 1;
        new
    }

    /// Iterates `(symbol, count)` over the support in first-touch order.
    ///
    /// Symbols whose count has dropped back to zero are skipped. Cost is
    /// O(touched symbols), which [`SymbolCounts::compact`] keeps close to
    /// the live support.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.touched[..self.listed_len]
            .iter()
            .filter(|&&x| self.counts[x] > 0)
            .map(|&x| (x, self.counts[x]))
    }

    /// Resets every count to zero without releasing the table — O(touched
    /// symbols), so a sketch that processes many small blocks (e.g. the
    /// per-virtual-node blocks of the streaming threshold tester) pays
    /// per block only for the symbols that block actually touched.
    pub fn clear(&mut self) {
        for &x in &self.touched[..self.listed_len] {
            self.counts[x] = 0;
            self.listed[x] = false;
        }
        self.listed_len = 0;
        self.total = 0;
    }

    /// Drops zero-count symbols from the touched list so future
    /// [`SymbolCounts::iter_nonzero`] walks stay proportional to the live
    /// support. Windowed sketches call this periodically after eviction
    /// churn; it never changes observable counts.
    pub fn compact(&mut self) {
        // In place, keeping the buffer's length: `add` grows it only
        // past its longest list so far, so its growth test stays
        // predictable.
        let mut kept = 0;
        for i in 0..self.listed_len {
            let x = self.touched[i];
            if self.counts[x] > 0 {
                self.touched[kept] = x;
                kept += 1;
            } else {
                self.listed[x] = false;
            }
        }
        self.listed_len = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_returns_prior_count() {
        let mut c = SymbolCounts::new(4);
        assert_eq!(c.increment(2), 0);
        assert_eq!(c.increment(2), 1);
        assert_eq!(c.increment(2), 2);
        assert_eq!(c.count(2), 3);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn decrement_returns_new_count() {
        let mut c = SymbolCounts::new(4);
        c.add(1, 3);
        assert_eq!(c.decrement(1), 2);
        assert_eq!(c.decrement(1), 1);
        assert_eq!(c.decrement(1), 0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    #[should_panic(expected = "decrement of zero-count symbol")]
    fn decrement_of_zero_count_panics() {
        let mut c = SymbolCounts::new(4);
        c.decrement(0);
    }

    #[test]
    fn iter_nonzero_lists_each_symbol_once_in_touch_order() {
        let mut c = SymbolCounts::new(8);
        c.increment(5);
        c.increment(1);
        c.increment(5);
        c.increment(7);
        let support: Vec<(usize, u32)> = c.iter_nonzero().collect();
        assert_eq!(support, vec![(5, 2), (1, 1), (7, 1)]);
    }

    #[test]
    fn iter_nonzero_skips_retired_symbols_and_compact_trims() {
        let mut c = SymbolCounts::new(8);
        c.increment(3);
        c.increment(4);
        c.decrement(3);
        let support: Vec<(usize, u32)> = c.iter_nonzero().collect();
        assert_eq!(support, vec![(4, 1)]);
        c.compact();
        // A re-pushed symbol re-enters the list exactly once.
        c.increment(3);
        c.increment(3);
        let support: Vec<(usize, u32)> = c.iter_nonzero().collect();
        assert_eq!(support, vec![(4, 1), (3, 2)]);
    }

    #[test]
    fn clear_resets_counts_and_support() {
        let mut c = SymbolCounts::new(8);
        c.add(2, 3);
        c.increment(6);
        c.clear();
        assert_eq!(c.total(), 0);
        assert_eq!(c.count(2), 0);
        assert_eq!(c.iter_nonzero().count(), 0);
        // The table is fully reusable after a clear.
        assert_eq!(c.increment(2), 0);
        let support: Vec<(usize, u32)> = c.iter_nonzero().collect();
        assert_eq!(support, vec![(2, 1)]);
    }

    #[test]
    fn pair_count_identity_matches_batch_statistic() {
        // Σ_x C(count(x), 2) accumulated via increment() priors equals
        // the batch collision_pair_count on the same samples.
        let samples = [3usize, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let mut c = SymbolCounts::new(16);
        let mut pairs: u64 = 0;
        for &x in &samples {
            pairs += u64::from(c.increment(x));
        }
        assert_eq!(pairs, crate::collision::collision_pair_count(&samples));
    }
}
