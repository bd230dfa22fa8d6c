//! CART decision trees.
//!
//! Two variants grow through one builder and differ only in their split
//! criterion and leaf payload:
//!
//! - [`RegressionTree`]: fits first/second-order gradients (XGBoost-style),
//!   so the same code serves plain regression (`g = −y, h = 1` reduces the
//!   gain to variance reduction and leaves to means) and the Newton leaves
//!   of softmax GBDT classification.
//! - [`ClassificationTree`]: Gini-impurity splits with majority leaves, used
//!   by the Random Forest baseline.
//!
//! Both support depth bounds, minimum leaf sizes and random feature
//! subspaces (for forests).
//!
//! The builder is exact CART without per-tree float sorting: each feature
//! is ranked once per fit (`RankedColumns`), a tree's per-feature row
//! orders come from a stable counting sort on those ranks (a bootstrap may
//! list a row more than once), and nodes split those orders in place.
//! Boosting and bagging rank once and reuse the ranks for every tree; the
//! trees are the same, bit for bit, as sorting each tree's rows by value
//! would give.
//!
//! A tree grows on a team of workers (`crate::team`), each owning a
//! contiguous block of features: every worker searches and partitions its
//! own features, and the caller merges the per-feature best splits in
//! feature order under the criterion's strict comparison, so a tree is the
//! same for any team size. Boosting keeps one team for the whole fit;
//! forest trees, which `forest::bag` grows one after another on one
//! thread, use a team of one, run inline.
//!
//! A tree is stored as flat pre-order arrays (`Flat`) and predicts by a
//! walk of fixed length that does not branch on the data; forests and
//! boosted models walk several trees at once (`leaf_values`).

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::team::{self, Team};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// Shared tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features examined per split; `None` = all.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

/// One slot of a flat tree. A split's `children` are its left and right
/// child; both of a leaf's point back at the leaf itself, so a walk that
/// steps on from a leaf stays there. `value` is a leaf's payload or, at a
/// split, its gain (for feature importance; Gini trees keep no gain).
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    threshold: f64,
    feature: u32,
    children: [u32; 2],
    value: V,
}

impl<V> Slot<V> {
    /// Slot `i` as a leaf holding `value`.
    fn leaf(i: u32, value: V) -> Self {
        Slot {
            threshold: 0.0,
            feature: 0,
            children: [i; 2],
            value,
        }
    }
}

/// A tree as one pre-order array of [`Slot`]s (slot 0 is the root and
/// children always follow their parent, as the builder emits them and the
/// codec stores them) and its depth, the longest root-to-leaf path.
///
/// A walk takes exactly `depth` steps, each picking a child by index with
/// `!(x <= threshold)` as the side, so no step branches on the data (NaN
/// goes right) and a shorter path just sits on its leaf. [`leaf_values`]
/// steps through several trees at once, so their loads overlap (Asadi, Lin
/// & de Vries, "Runtime Optimizations for Tree-Based Machine Learning
/// Models", IEEE TKDE 2014).
#[derive(Debug, Clone)]
pub(crate) struct Flat<V> {
    slots: Vec<Slot<V>>,
    depth: usize,
}

impl<V: Copy> Flat<V> {
    fn is_leaf(&self, i: usize) -> bool {
        self.slots[i].children[0] as usize == i
    }

    /// The slot after `at` on `row`'s path.
    #[inline(always)]
    fn step(slots: &[Slot<V>], at: u32, row: &[f64]) -> u32 {
        let s = &slots[at as usize];
        // `<=` is false for NaN, so NaN goes right.
        let left = row[s.feature as usize] <= s.threshold;
        s.children[usize::from(!left)]
    }

    /// Serialize as a count and one tagged record per slot; `put_gain`
    /// writes a split's gain (or nothing).
    fn encode(
        &self,
        w: &mut ByteWriter,
        put_leaf: impl Fn(&mut ByteWriter, V),
        put_gain: impl Fn(&mut ByteWriter, V),
    ) {
        w.put_len(self.slots.len());
        for (i, s) in self.slots.iter().enumerate() {
            if self.is_leaf(i) {
                w.put_u8(0);
                put_leaf(w, s.value);
            } else {
                w.put_u8(1);
                w.put_len(s.feature as usize);
                w.put_f64(s.threshold);
                put_gain(w, s.value);
                w.put_len(s.children[0] as usize);
                w.put_len(s.children[1] as usize);
            }
        }
    }

    /// Inverse of [`Self::encode`]. Child and feature indices are validated
    /// so a decoded tree can never panic or loop during prediction: every
    /// child must come after its parent and be in range.
    fn decode(
        r: &mut ByteReader<'_>,
        n_features: usize,
        what: &'static str,
        mut get_leaf: impl FnMut(&mut ByteReader<'_>) -> Result<V, CodecError>,
        get_gain: impl Fn(&mut ByteReader<'_>) -> Result<V, CodecError>,
    ) -> Result<Self, CodecError> {
        let count = r.len()?;
        if count == 0 {
            return Err(CodecError::Invalid("tree with zero nodes".into()));
        }
        let index =
            |i: usize| u32::try_from(i).map_err(|_| CodecError::Invalid(format!("node index {i}")));
        let mut slots = Vec::with_capacity(count.min(r.remaining()));
        for i in 0..count {
            slots.push(match r.u8()? {
                0 => Slot::leaf(index(i)?, get_leaf(r)?),
                1 => {
                    let feature = r.len()?;
                    let threshold = r.f64()?;
                    let value = get_gain(r)?;
                    let left = r.len()?;
                    let right = r.len()?;
                    let children_follow = i < left.min(right) && left.max(right) < count;
                    if feature >= n_features || !children_follow {
                        return Err(CodecError::Invalid(format!(
                            "node {i} splits on feature {feature} of {n_features} into nodes \
                             {left}/{right} of {count}: children must follow their parent"
                        )));
                    }
                    Slot {
                        threshold,
                        feature: index(feature)?,
                        children: [index(left)?, index(right)?],
                        value,
                    }
                }
                tag => return Err(CodecError::BadTag { what, tag }),
            });
        }
        Ok(Flat {
            depth: depth(&slots),
            slots,
        })
    }
}

/// The steps that take every path from slot 0 to its leaf, in slots whose
/// children follow their parent: one forward pass finds each slot's
/// longest path from the root, as all its parents come before it.
fn depth<V>(slots: &[Slot<V>]) -> usize {
    let mut from_root = vec![0usize; slots.len()];
    for (i, s) in slots.iter().enumerate() {
        for c in s.children.map(|c| c as usize) {
            if c != i {
                from_root[c] = from_root[c].max(from_root[i] + 1);
            }
        }
    }
    from_root.into_iter().max().unwrap_or(0)
}

/// A tree the flat walk steps through.
pub(crate) trait Walk {
    /// What its slots hold.
    type Value: Copy;
    fn flat(&self) -> &Flat<Self::Value>;
}

/// How many trees one walk steps through side by side.
const LANES: usize = 8;

/// Pass the leaf value each of `trees` gives `row` to `each(tree, value)`,
/// in tree order. Trees are walked [`LANES`] at a time.
pub(crate) fn leaf_values<T: Walk>(
    trees: &[T],
    row: &[f64],
    mut each: impl FnMut(usize, T::Value),
) {
    let mut lanes = trees.chunks_exact(LANES);
    for (c, chunk) in lanes.by_ref().enumerate() {
        let chunk: &[T; LANES] = chunk.try_into().expect("a full chunk");
        for (k, value) in walk(chunk, row).into_iter().enumerate() {
            each(c * LANES + k, value);
        }
    }
    let done = trees.len() - lanes.remainder().len();
    for (k, tree) in lanes.remainder().iter().enumerate() {
        let [value] = walk(std::array::from_ref(tree), row);
        each(done + k, value);
    }
}

/// The leaf values `trees` give `row`, one step of every tree in turn.
#[inline(always)]
fn walk<T: Walk, const N: usize>(trees: &[T; N], row: &[f64]) -> [T::Value; N] {
    let slots = trees.each_ref().map(|t| &t.flat().slots[..]);
    let depth = trees.iter().map(|t| t.flat().depth).max().unwrap_or(0);
    let mut at = [0u32; N];
    for _ in 0..depth {
        for (a, slots) in at.iter_mut().zip(slots) {
            *a = Flat::step(slots, *a, row);
        }
    }
    std::array::from_fn(|k| slots[k][at[k] as usize].value)
}

/// Reject a decoded tree whose feature count differs from the one its
/// model serves: its splits could index past the end of a served row.
pub(crate) fn check_width(tree_features: usize, model_features: usize) -> Result<(), CodecError> {
    if tree_features == model_features {
        return Ok(());
    }
    Err(CodecError::Invalid(format!(
        "tree over {tree_features} features in a model over {model_features}"
    )))
}

/// Gradient-fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    flat: Flat<f64>,
    n_features: usize,
}

impl Walk for RegressionTree {
    type Value = f64;
    fn flat(&self) -> &Flat<f64> {
        &self.flat
    }
}

/// Training rows stored feature-major, with each value's dense rank under
/// `f64::total_cmp`. Built once per fit; every tree of a boosting run or a
/// forest then orders its rows by a counting sort on the ranks instead of
/// re-sorting floats.
pub(crate) struct RankedColumns {
    n_rows: usize,
    /// `values[f][row]`.
    values: Vec<Vec<f64>>,
    /// `ranks[f][row]`: equal ranks ⇔ equal bits.
    ranks: Vec<Vec<u32>>,
    /// Number of distinct ranks of each feature.
    distinct: Vec<usize>,
}

impl RankedColumns {
    pub(crate) fn new(xs: &[Vec<f64>]) -> Self {
        let n = u32::try_from(xs.len()).expect("row ids must fit in u32");
        let n_features = xs.first().map_or(0, Vec::len);
        let mut by_value: Vec<u32> = (0..n).collect();
        let mut values = Vec::with_capacity(n_features);
        let mut ranks = Vec::with_capacity(n_features);
        let mut distinct = Vec::with_capacity(n_features);
        for f in 0..n_features {
            let col: Vec<f64> = xs.iter().map(|row| row[f]).collect();
            by_value.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let mut rank = vec![0u32; col.len()];
            let mut r = 0u32;
            for w in by_value.windows(2) {
                if col[w[1] as usize].total_cmp(&col[w[0] as usize]).is_ne() {
                    r += 1;
                }
                rank[w[1] as usize] = r;
            }
            distinct.push(if col.is_empty() { 0 } else { r as usize + 1 });
            values.push(col);
            ranks.push(rank);
        }
        RankedColumns {
            n_rows: xs.len(),
            values,
            ranks,
            distinct,
        }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.values.len()
    }

    /// Each feature's order of `rows` (see [`Self::order_by`]).
    pub(crate) fn orders(&self, rows: &[usize]) -> RowOrders {
        let mut orders = RowOrders::new(self.n_features(), rows.len());
        let mut counts = Vec::new();
        for (f, out) in orders.order.chunks_exact_mut(rows.len().max(1)).enumerate() {
            self.order_by(f, rows, out, &mut counts);
        }
        orders
    }

    /// Feature `f`'s order of `rows` into `out`: a stable counting sort by
    /// rank, so ties keep their order in `rows`, exactly as a stable
    /// `sort_by(total_cmp)` over the rows taken in that order would.
    /// `rows` may repeat a row (a bootstrap sample). `counts` is scratch
    /// and needs no more than `distinct[f] + 1` entries.
    fn order_by(&self, f: usize, rows: &[usize], out: &mut [u32], counts: &mut Vec<usize>) {
        let rank = &self.ranks[f];
        counts.clear();
        counts.resize(self.distinct[f] + 1, 0);
        for &row in rows {
            counts[rank[row] as usize + 1] += 1;
        }
        for v in 1..counts.len() {
            counts[v] += counts[v - 1];
        }
        for &row in rows {
            let slot = &mut counts[rank[row] as usize];
            out[*slot] = row as u32;
            *slot += 1;
        }
    }
}

/// Per-feature row orders of one tree's rows: feature `f` occupies
/// `order[f·len..(f+1)·len]`. Growing a tree partitions every feature's
/// slice in place, so a node is one `[lo, hi)` range of each.
pub(crate) struct RowOrders {
    order: Vec<u32>,
    len: usize,
}

/// Block `i` of `n` near-equal contiguous blocks of `0..total`.
fn block(i: usize, n: usize, total: usize) -> Range<usize> {
    i * total / n..(i + 1) * total / n
}

impl RowOrders {
    /// Room for `n_features` orders of `len` rows each.
    pub(crate) fn new(n_features: usize, len: usize) -> Self {
        RowOrders {
            order: vec![0; n_features * len],
            len,
        }
    }

    /// Cut into the shards of a team of `workers` (at most one per
    /// feature): shard `w` takes block `w` of `cols`' features, with their
    /// orders, and block `w` of its rows (and, with `keep`, a kept copy of
    /// its orders). Shard 0 holds feature 0. Every buffer a shard's jobs
    /// use is allocated here, by the caller.
    pub(crate) fn shards(
        &mut self,
        cols: &RankedColumns,
        workers: usize,
        keep: bool,
    ) -> Vec<Shard<'_>> {
        let n_features = cols.n_features();
        assert!(self.len > 0, "cannot fit a tree on no data");
        assert!(n_features > 0, "need at least one feature");
        assert_eq!(
            self.order.len(),
            n_features * self.len,
            "orders/columns mismatch"
        );
        let workers = workers.clamp(1, n_features);
        let mut rest = &mut self.order[..];
        (0..workers)
            .map(|w| {
                let features = block(w, workers, n_features);
                let (order, tail) =
                    std::mem::take(&mut rest).split_at_mut(features.len() * self.len);
                rest = tail;
                let buckets = features.clone().map(|f| cols.distinct[f] + 1).max();
                Shard {
                    bests: vec![None; features.len()],
                    features,
                    kept: if keep { order.to_vec() } else { Vec::new() },
                    order,
                    len: self.len,
                    rows: block(w, workers, cols.n_rows),
                    scratch: Vec::with_capacity(self.len),
                    counts: Vec::with_capacity(buckets.unwrap_or(0)),
                }
            })
            .collect()
    }
}

/// One worker's share of a fit: a contiguous block of features with their
/// row orders, a contiguous block of rows, and the buffers its jobs use.
/// A shard keeps its buffers for the whole fit, so a helper thread running
/// its jobs allocates nothing.
pub(crate) struct Shard<'o> {
    features: Range<usize>,
    /// The block's feature orders, `len` rows each, in feature order.
    order: &'o mut [u32],
    /// `order` as the last [`Job::Orders`] left it, if kept; else empty.
    kept: Vec<u32>,
    len: usize,
    /// The rows of a fit's own per-row job ([`Job::Predict`]).
    pub(crate) rows: Range<usize>,
    /// Each block feature's best split of the node searched last, as
    /// `(threshold, score)`; `None` when it has no allowed split.
    bests: Vec<Option<(f64, f64)>>,
    /// Right-hand rows while one feature's range is partitioned.
    scratch: Vec<u32>,
    /// Counting-sort buckets.
    counts: Vec<usize>,
}

/// A job a tree's team runs on every shard.
#[derive(Clone)]
pub(crate) enum Job<T> {
    /// Order [`Tree::rows`] by each block feature, and refresh the kept copy.
    Orders,
    /// Put back the kept orders, for another tree over the same rows.
    Restore,
    /// Find each block candidate feature's best split of `[lo, hi)`.
    Search { lo: usize, hi: usize, totals: T },
    /// Partition each block feature's `[lo, hi)` by [`Split`]'s sides.
    Partition { lo: usize, hi: usize },
    /// Boosting's prediction update over the shard's rows; the booster
    /// runs it itself.
    Predict,
}

/// What the caller shares with every shard about the node being split.
pub(crate) struct Split {
    /// Side of the chosen split, by row id. The caller writes it before
    /// posting [`Job::Partition`], which orders the writes before the
    /// shards' reads.
    goes_left: Vec<AtomicBool>,
    /// The features the node may split on, in draw order.
    candidates: RwLock<Vec<usize>>,
    /// `owner[f]`: the shard that holds feature `f`.
    owner: Vec<usize>,
}

impl Split {
    /// For a team over `cols` cut into `shards`.
    pub(crate) fn new(cols: &RankedColumns, shards: &[Shard<'_>]) -> Self {
        Split {
            goes_left: (0..cols.n_rows).map(|_| AtomicBool::new(false)).collect(),
            candidates: RwLock::new((0..cols.n_features()).collect()),
            owner: (shards.iter().enumerate())
                .flat_map(|(w, shard)| shard.features.clone().map(move |_| w))
                .collect(),
        }
    }
}

/// What every worker reads while one tree grows.
pub(crate) struct Tree<'a, C> {
    pub(crate) cols: &'a RankedColumns,
    pub(crate) cfg: &'a TreeConfig,
    pub(crate) crit: C,
    pub(crate) split: &'a Split,
    /// The rows [`Job::Orders`] orders.
    pub(crate) rows: &'a [usize],
}

impl Shard<'_> {
    fn feature(&self, f: usize) -> &[u32] {
        let k = f - self.features.start;
        &self.order[k * self.len..(k + 1) * self.len]
    }

    /// Run a tree job on this shard.
    pub(crate) fn work<C: Criterion>(&mut self, job: &Job<C::Totals>, tree: &Tree<'_, C>) {
        match job {
            Job::Orders => {
                assert_eq!(tree.rows.len(), self.len, "rows/orders length mismatch");
                for (f, out) in self
                    .features
                    .clone()
                    .zip(self.order.chunks_exact_mut(self.len))
                {
                    tree.cols.order_by(f, tree.rows, out, &mut self.counts);
                }
                if !self.kept.is_empty() {
                    self.kept.copy_from_slice(self.order);
                }
            }
            Job::Restore => self.order.copy_from_slice(&self.kept),
            Job::Search { lo, hi, totals } => self.search(tree, *lo, *hi, totals),
            Job::Partition { lo, hi } => self.partition(&tree.split.goes_left, *lo, *hi),
            Job::Predict => unreachable!("the booster runs its prediction update itself"),
        }
    }

    /// Each block candidate feature's best split of `[lo, hi)`, if it beats
    /// the block's earlier candidates: its first split that beats every
    /// earlier one, under the criterion's own strict comparison. A feature
    /// whose splits do not beat an earlier feature's gets `None`: it can
    /// win no merge that the earlier feature does not win first. With one
    /// shard this is the serial sweep over every candidate.
    fn search<C: Criterion>(
        &mut self,
        tree: &Tree<'_, C>,
        lo: usize,
        hi: usize,
        totals: &C::Totals,
    ) {
        let (cfg, crit) = (tree.cfg, &tree.crit);
        let n = hi - lo;
        let candidates = tree.split.candidates.read().expect("candidates poisoned");
        let mut best: Option<(f64, f64)> = None;
        for &f in candidates.iter().filter(|f| self.features.contains(f)) {
            let order = &self.feature(f)[lo..hi];
            let col = &tree.cols.values[f];
            let mut sweep = crit.sweep();
            let mut found = None;
            for (k, pair) in order.windows(2).enumerate() {
                let i = pair[0] as usize;
                crit.add_left(&mut sweep, i);
                let left_n = k + 1;
                if left_n < cfg.min_samples_leaf || n - left_n < cfg.min_samples_leaf {
                    continue;
                }
                // Can't split between equal feature values.
                let (a, b) = (col[i], col[pair[1] as usize]);
                if a == b {
                    continue;
                }
                if let Some(score) = crit.score(totals, &sweep) {
                    if C::beats(totals, score, best.map(|b| b.1)) {
                        best = Some((0.5 * (a + b), score));
                        found = best;
                    }
                }
            }
            self.bests[f - self.features.start] = found;
        }
    }

    /// Stable in-place partition of every block feature's `[lo, hi)` into
    /// the rows that go left, then the rest.
    fn partition(&mut self, goes_left: &[AtomicBool], lo: usize, hi: usize) {
        for seg in self.order.chunks_exact_mut(self.len) {
            let seg = &mut seg[lo..hi];
            self.scratch.clear();
            let mut l = 0;
            for k in 0..seg.len() {
                let i = seg[k];
                if goes_left[i as usize].load(Ordering::Relaxed) {
                    seg[l] = i;
                    l += 1;
                } else {
                    self.scratch.push(i);
                }
            }
            seg[l..].copy_from_slice(&self.scratch);
        }
    }
}

impl RegressionTree {
    /// Fit on features `xs` with per-sample gradient `g` and hessian `h`.
    /// The leaf value minimizing the local quadratic model is `−Σg / Σh`.
    ///
    /// For plain least-squares regression on targets `y`, pass `g = −y`,
    /// `h = 1`: leaves become target means and the split gain is exactly
    /// variance reduction.
    ///
    /// The tree grows on `min(available_parallelism(), n_features)` threads,
    /// each searching and partitioning its own block of features; the tree
    /// is the same, bit for bit, for any thread count.
    pub fn fit_gradients(
        xs: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> Self {
        let workers = team::size(xs.first().map_or(0, Vec::len));
        Self::fit_gradients_on(workers, xs, g, h, cfg, rng)
    }

    /// [`Self::fit_gradients`] on a team of `workers` (at most one per
    /// feature).
    fn fit_gradients_on(
        workers: usize,
        xs: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> Self {
        assert_eq!(xs.len(), g.len(), "xs/g length mismatch");
        assert_eq!(xs.len(), h.len(), "xs/h length mismatch");
        let cols = RankedColumns::new(xs);
        let rows: Vec<usize> = (0..xs.len()).collect();
        let mut orders = RowOrders::new(cols.n_features(), rows.len());
        let crit = GradientGain { g, h };
        RegressionTree {
            flat: grow_tree(
                &cols,
                &mut orders,
                Some(&rows),
                crit,
                cfg,
                rng,
                workers,
                |v| v,
            ),
            n_features: cols.n_features(),
        }
    }

    /// Fit on the rows `orders` was built from, with `g` and `h` indexed by
    /// row id, on a one-worker team. `orders` is partitioned in place and
    /// holds no useful order afterwards.
    pub(crate) fn fit_ranked(
        cols: &RankedColumns,
        orders: &mut RowOrders,
        g: &[f64],
        h: &[f64],
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> Self {
        assert_eq!(cols.n_rows, g.len(), "rows/g length mismatch");
        assert_eq!(cols.n_rows, h.len(), "rows/h length mismatch");
        let crit = GradientGain { g, h };
        RegressionTree {
            flat: grow_tree(cols, orders, None, crit, cfg, rng, 1, |v| v),
            n_features: cols.n_features(),
        }
    }

    /// Grow one tree on `team`, whose shards hold the ordered rows of
    /// `tree`, for fits that keep one team across trees (boosting).
    pub(crate) fn grow_on(
        team: &TreeTeam<'_, '_, GradientTotals>,
        tree: &Tree<'_, GradientGain<'_>>,
    ) -> Self {
        assert_eq!(
            tree.cols.n_rows,
            tree.crit.g.len(),
            "rows/g length mismatch"
        );
        assert_eq!(
            tree.cols.n_rows,
            tree.crit.h.len(),
            "rows/h length mismatch"
        );
        RegressionTree {
            flat: grow(team, tree, None, |v| v),
            n_features: tree.cols.n_features(),
        }
    }

    /// Convenience: least-squares fit on targets.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: &TreeConfig) -> Self {
        let g: Vec<f64> = ys.iter().map(|y| -y).collect();
        let h = vec![1.0; ys.len()];
        Self::fit_gradients(xs, &g, &h, cfg, None)
    }

    /// Predict for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        walk(std::array::from_ref(self), row)[0]
    }

    /// Predict for many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Accumulate this tree's split gains into `importance[feature]`.
    pub fn add_importance(&self, importance: &mut [f64]) {
        let flat = &self.flat;
        for (i, s) in flat.slots.iter().enumerate() {
            if !flat.is_leaf(i) {
                importance[s.feature as usize] += s.value.max(0.0);
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.flat.slots.len()
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Serialize as a flat node array (tag byte per node).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.n_features);
        let put = |w: &mut ByteWriter, value| w.put_f64(value);
        self.flat.encode(w, put, put);
    }

    /// Inverse of [`Self::encode`], with index validation: a decoded tree
    /// can never panic or loop during prediction.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_features = r.len()?;
        let flat = Flat::decode(r, n_features, "tree node", |r| r.f64(), |r| r.f64())?;
        Ok(RegressionTree { flat, n_features })
    }
}

/// Gini-impurity classification tree with majority-vote leaves.
#[derive(Debug, Clone)]
pub struct ClassificationTree {
    /// Each leaf slot holds the number of its leaf in `leaves`.
    flat: Flat<u32>,
    /// The leaves in pre-order.
    leaves: Vec<ClassLeaf>,
    n_features: usize,
    n_classes: usize,
}

impl Walk for ClassificationTree {
    type Value = u32;
    fn flat(&self) -> &Flat<u32> {
        &self.flat
    }
}

/// A classification leaf: the majority class and the class frequencies.
#[derive(Debug, Clone)]
pub(crate) struct ClassLeaf {
    class: usize,
    proba: Vec<f64>,
}

impl ClassificationTree {
    /// Fit on labels in `0..n_classes`.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let cols = RankedColumns::new(xs);
        let rows: Vec<usize> = (0..xs.len()).collect();
        Self::fit_ranked(&cols, &mut cols.orders(&rows), ys, n_classes, cfg, rng)
    }

    /// [`RegressionTree::fit_ranked`] for labels in `0..n_classes`, indexed
    /// by row id.
    pub(crate) fn fit_ranked(
        cols: &RankedColumns,
        orders: &mut RowOrders,
        ys: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> Self {
        assert_eq!(cols.n_rows, ys.len(), "rows/ys length mismatch");
        let crit = Gini { ys, n_classes };
        let mut leaves = Vec::new();
        let flat = grow_tree(cols, orders, None, crit, cfg, rng, 1, |leaf| {
            leaves.push(leaf);
            slot_index(leaves.len() - 1)
        });
        leaves.shrink_to_fit();
        ClassificationTree {
            flat,
            leaves,
            n_features: cols.n_features(),
            n_classes,
        }
    }

    fn leaf(&self, row: &[f64]) -> &ClassLeaf {
        self.leaf_of(walk(std::array::from_ref(self), row)[0])
    }

    /// The leaf a walk ended on.
    fn leaf_of(&self, value: u32) -> &ClassLeaf {
        &self.leaves[value as usize]
    }

    /// The class of the leaf a walk ended on (see [`leaf_values`]).
    pub(crate) fn class_of(&self, value: u32) -> usize {
        self.leaf_of(value).class
    }

    /// Predicted class for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        self.leaf(row).class
    }

    /// Class probabilities for one row (leaf class frequencies).
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        self.leaf(row).proba.clone()
    }

    /// Predicted classes for many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Serialize as a flat node array (tag byte per node).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.n_features);
        w.put_len(self.n_classes);
        let put_leaf = |w: &mut ByteWriter, value| {
            let leaf = self.leaf_of(value);
            w.put_len(leaf.class);
            w.put_f64s(&leaf.proba);
        };
        self.flat.encode(w, put_leaf, |_, _| {});
    }

    /// Inverse of [`Self::encode`], with the same index validation as
    /// [`RegressionTree::decode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_features = r.len()?;
        let n_classes = r.len()?;
        let mut leaves = Vec::new();
        let get_leaf = |r: &mut ByteReader<'_>| {
            let class = r.len()?;
            let proba = r.f64s()?;
            if class >= n_classes || proba.len() != n_classes {
                return Err(CodecError::Invalid(format!(
                    "leaf class {class}/proba {} vs {n_classes} classes",
                    proba.len()
                )));
            }
            leaves.push(ClassLeaf { class, proba });
            Ok(slot_index(leaves.len() - 1))
        };
        let flat = Flat::decode(r, n_features, "ctree node", get_leaf, |_| Ok(0))?;
        Ok(ClassificationTree {
            flat,
            leaves,
            n_features,
            n_classes,
        })
    }
}

/// What a tree kind decides for itself: node totals, split scores and leaf
/// payloads. Row orders, feature draws, stopping rules, partitioning and
/// node emission are [`Grower`]'s.
pub(crate) trait Criterion: Sync {
    type Leaf;
    /// What the tree's slots hold.
    type Value: Copy;
    /// A node's totals, summed in the order of `idx` (it fixes their bits).
    type Totals: Clone + Send + Sync;
    /// The left side's running totals while one feature is swept.
    type Sweep;
    fn totals(&self, idx: &[u32]) -> Self::Totals;
    fn leaf(&self, t: &Self::Totals) -> Self::Leaf;
    /// No split can help; checked before any feature is drawn.
    fn is_pure(&self, t: &Self::Totals, idx: &[u32]) -> bool;
    fn sweep(&self) -> Self::Sweep;
    fn add_left(&self, s: &mut Self::Sweep, row: usize);
    /// The score of the split after the swept rows, if the split is allowed.
    fn score(&self, t: &Self::Totals, s: &Self::Sweep) -> Option<f64>;
    /// Whether `score` beats `best` (the best so far; `None` before any).
    /// Strict, so the first of equal candidates wins.
    fn beats(t: &Self::Totals, score: f64, best: Option<f64>) -> bool;
    /// What a split's slot holds: its gain, for feature importance.
    fn split_value(score: f64) -> Self::Value;
}

/// Second-order gradient gain; leaves are the Newton step `−Σg / Σh`.
pub(crate) struct GradientGain<'a> {
    pub(crate) g: &'a [f64],
    pub(crate) h: &'a [f64],
}

/// `(Σg, Σh, Σg² / Σh)` of a node.
pub(crate) type GradientTotals = (f64, f64, f64);

impl Criterion for GradientGain<'_> {
    type Leaf = f64;
    type Value = f64;
    type Totals = GradientTotals;
    /// `(Σg, Σh)` of the left side.
    type Sweep = (f64, f64);

    fn totals(&self, idx: &[u32]) -> (f64, f64, f64) {
        let sum_g: f64 = idx.iter().map(|&i| self.g[i as usize]).sum();
        let sum_h: f64 = idx.iter().map(|&i| self.h[i as usize]).sum();
        (sum_g, sum_h, sum_g * sum_g / sum_h.max(1e-12))
    }

    fn leaf(&self, &(sum_g, sum_h, _): &(f64, f64, f64)) -> f64 {
        if sum_h.abs() > 1e-12 {
            -sum_g / sum_h
        } else {
            0.0
        }
    }

    /// All implied targets equal: nothing to gain even at zero cost.
    fn is_pure(&self, _: &(f64, f64, f64), idx: &[u32]) -> bool {
        let target = |i: u32| -self.g[i as usize] / self.h[i as usize].max(1e-12);
        let first_target = target(idx[0]);
        idx.iter()
            .all(|&i| (target(i) - first_target).abs() < 1e-12)
    }

    fn sweep(&self) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn add_left(&self, (gl, hl): &mut (f64, f64), row: usize) {
        *gl += self.g[row];
        *hl += self.h[row];
    }

    fn score(&self, t: &(f64, f64, f64), s: &(f64, f64)) -> Option<f64> {
        let (&(sum_g, sum_h, parent_score), &(gl, hl)) = (t, s);
        let (gr, hr) = (sum_g - gl, sum_h - hl);
        (hl > 1e-12 && hr > 1e-12).then(|| gl * gl / hl + gr * gr / hr - parent_score)
    }

    // Gain is non-negative by convexity; zero-gain splits are accepted
    // (like sklearn) so symmetric targets such as XOR can still be
    // separated at deeper levels.
    fn beats(_: &(f64, f64, f64), gain: f64, best: Option<f64>) -> bool {
        gain > best.unwrap_or(-1e-12)
    }

    fn split_value(score: f64) -> f64 {
        score
    }
}

/// Weighted Gini impurity of the children; leaves hold the majority class
/// and the class frequencies.
struct Gini<'a> {
    ys: &'a [usize],
    n_classes: usize,
}

#[derive(Clone)]
struct ClassTotals {
    counts: Vec<f64>,
    total: f64,
    parent_gini: f64,
}

fn gini(counts: impl Iterator<Item = f64> + Clone) -> f64 {
    let n: f64 = counts.clone().sum();
    if n == 0.0 {
        return 0.0;
    }
    1.0 - counts.map(|c| (c / n) * (c / n)).sum::<f64>()
}

impl Criterion for Gini<'_> {
    type Leaf = ClassLeaf;
    /// A leaf's number; splits keep no gain.
    type Value = u32;
    type Totals = ClassTotals;
    /// Class counts of the left side.
    type Sweep = Vec<f64>;

    fn totals(&self, idx: &[u32]) -> ClassTotals {
        let mut counts = vec![0.0; self.n_classes];
        for &i in idx {
            counts[self.ys[i as usize]] += 1.0;
        }
        ClassTotals {
            total: counts.iter().sum(),
            parent_gini: gini(counts.iter().copied()),
            counts,
        }
    }

    fn leaf(&self, t: &ClassTotals) -> ClassLeaf {
        let class = (0..self.n_classes).max_by(|&a, &b| t.counts[a].total_cmp(&t.counts[b]));
        let proba = t.counts.iter().map(|c| c / t.total.max(1.0)).collect();
        ClassLeaf {
            class: class.unwrap_or(0),
            proba,
        }
    }

    fn is_pure(&self, t: &ClassTotals, _: &[u32]) -> bool {
        t.parent_gini == 0.0
    }

    fn sweep(&self) -> Vec<f64> {
        vec![0.0; self.n_classes]
    }

    fn add_left(&self, left: &mut Vec<f64>, row: usize) {
        left[self.ys[row]] += 1.0;
    }

    fn score(&self, t: &ClassTotals, left: &Vec<f64>) -> Option<f64> {
        // Counts are whole numbers, so this sum is exact.
        let ln: f64 = left.iter().sum();
        let rn = t.total - ln;
        let right = t.counts.iter().zip(left).map(|(c, l)| c - l);
        Some((ln * gini(left.iter().copied()) + rn * gini(right)) / t.total)
    }

    fn beats(t: &ClassTotals, w: f64, best: Option<f64>) -> bool {
        w < best.unwrap_or(t.parent_gini + 1e-12)
    }

    fn split_value(_: f64) -> u32 {
        0
    }
}

/// A tree fit's team: one [`Shard`] per worker, running [`Job`]s.
pub(crate) type TreeTeam<'w, 'o, T> = Team<'w, Shard<'o>, Job<T>>;

/// Grow one tree on a team of its own with `workers` (one for forests,
/// whose trees grow one after another on one thread), over `orders`, which
/// first orders `rows` when they are given. `leaf` turns each leaf, in
/// pre-order, into its slot's value.
/// `orders` is partitioned in place and holds no useful order afterwards.
#[allow(clippy::too_many_arguments)]
fn grow_tree<C: Criterion>(
    cols: &RankedColumns,
    orders: &mut RowOrders,
    rows: Option<&[usize]>,
    crit: C,
    cfg: &TreeConfig,
    rng: Option<&mut StdRng>,
    workers: usize,
    leaf: impl FnMut(C::Leaf) -> C::Value,
) -> Flat<C::Value> {
    let shards = orders.shards(cols, workers, false);
    let split = Split::new(cols, &shards);
    let tree = Tree {
        cols,
        cfg,
        crit,
        split: &split,
        rows: rows.unwrap_or_default(),
    };
    let work = |shard: &mut Shard<'_>, job: &Job<C::Totals>| shard.work(job, &tree);
    Team::scope(shards, &work, |team| {
        if rows.is_some() {
            team.run(&Job::Orders, work);
        }
        grow(team, &tree, rng, leaf)
    })
}

/// Grow one tree on `team`, whose shards hold the ordered rows, and
/// return its slots; `leaf` turns each leaf into its slot's value.
fn grow<C: Criterion>(
    team: &TreeTeam<'_, '_, C::Totals>,
    tree: &Tree<'_, C>,
    rng: Option<&mut StdRng>,
    leaf: impl FnMut(C::Leaf) -> C::Value,
) -> Flat<C::Value> {
    let len = team.shard(0).len;
    let mut grower = Grower {
        flat: Flat {
            slots: Vec::new(),
            depth: 0,
        },
        leaf,
        team,
        tree,
        rng,
    };
    grower.build(0, len, 0);
    // A boosted model or a forest keeps hundreds of trees: hold no spare
    // capacity.
    grower.flat.slots.shrink_to_fit();
    grower.flat
}

/// Slot (or leaf) `i`'s index as the flat arrays store it.
fn slot_index(i: usize) -> u32 {
    u32::try_from(i).expect("a tree's slots are numbered in u32")
}

/// One tree's growth on the caller's side. A node owns the range
/// `[lo, hi)` of every feature's order; splitting it partitions those
/// ranges in place, so the children own `[lo, lo + n_left)` and
/// `[lo + n_left, hi)`.
///
/// The caller owns shard 0, and so feature 0: it sums node totals in
/// feature 0's order and fills the split sides from it. Every shard
/// sweeps its own features in candidate order and keeps, per feature, the
/// first split that beats the shard's earlier ones; the caller merges
/// those in candidate order under the same strict comparison, which picks
/// the split a single sweep over every candidate would, ties included.
/// The tree is thus the same for any team size.
struct Grower<'t, 'w, 'o, 'a, C: Criterion, F> {
    flat: Flat<C::Value>,
    leaf: F,
    team: &'t TreeTeam<'w, 'o, C::Totals>,
    tree: &'t Tree<'a, C>,
    rng: Option<&'t mut StdRng>,
}

impl<C: Criterion, F: FnMut(C::Leaf) -> C::Value> Grower<'_, '_, '_, '_, C, F> {
    /// Grow the subtree over `[lo, hi)` and return its root's slot. Slots
    /// are emitted in pre-order, so children always follow their parent.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let (team, cfg, crit) = (self.team, self.tree.cfg, &self.tree.crit);
        let n = hi - lo;
        let (totals, stop) = {
            let own = team.shard(0);
            // Node totals run in feature 0's order: the order fixes their bits.
            let idx = &own.feature(0)[lo..hi];
            let totals = crit.totals(idx);
            let stop =
                depth >= cfg.max_depth || n < cfg.min_samples_split || crit.is_pure(&totals, idx);
            (totals, stop)
        };
        if stop {
            return self.push_leaf(crit.leaf(&totals), depth);
        }

        self.draw_candidates();
        let tree = self.tree;
        let work = |shard: &mut Shard<'_>, job: &Job<C::Totals>| shard.work(job, tree);
        let search = Job::Search {
            lo,
            hi,
            totals: totals.clone(),
        };
        team.run(&search, work);
        let Some((feature, threshold, score)) = self.best(&totals) else {
            return self.push_leaf(crit.leaf(&totals), depth);
        };
        let mid = lo + self.split_sides(feature, threshold, lo, hi);
        team.run(&Job::Partition { lo, hi }, work);
        let node = self.push(Slot {
            threshold,
            feature: slot_index(feature),
            children: [0; 2], // filled in below
            value: C::split_value(score),
        });
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.flat.slots[node as usize].children = [left, right];
        node
    }

    fn push_leaf(&mut self, leaf: C::Leaf, depth: usize) -> u32 {
        let i = slot_index(self.flat.slots.len());
        let value = (self.leaf)(leaf);
        self.flat.depth = self.flat.depth.max(depth);
        self.push(Slot::leaf(i, value))
    }

    fn push(&mut self, slot: Slot<C::Value>) -> u32 {
        self.flat.slots.push(slot);
        slot_index(self.flat.slots.len() - 1)
    }

    /// With an RNG (forests), a random subspace of `max_features` features
    /// for this node; otherwise the candidates stay all features.
    fn draw_candidates(&mut self) {
        let n_features = self.tree.cols.n_features();
        if let (Some(k), Some(r)) = (self.tree.cfg.max_features, self.rng.as_deref_mut()) {
            if k < n_features {
                let mut candidates = self
                    .tree
                    .split
                    .candidates
                    .write()
                    .expect("candidates poisoned");
                candidates.clear();
                candidates.extend(0..n_features);
                candidates.shuffle(r);
                candidates.truncate(k);
            }
        }
    }

    /// The shards' per-feature bests, merged in candidate order: the first
    /// that beats every earlier one, as `(feature, threshold, score)`.
    fn best(&self, totals: &C::Totals) -> Option<(usize, f64, f64)> {
        let split = self.tree.split;
        let candidates = split.candidates.read().expect("candidates poisoned");
        let mut best: Option<(usize, f64, f64)> = None;
        let mut held = None;
        for &f in candidates.iter() {
            let w = split.owner[f];
            if held.as_ref().map(|(held_w, _)| *held_w) != Some(w) {
                held = Some((w, self.team.shard(w)));
            }
            let (_, shard) = held.as_ref().expect("shard held");
            let Some((threshold, score)) = shard.bests[f - shard.features.start] else {
                continue;
            };
            if C::beats(totals, score, best.map(|b| b.2)) {
                best = Some((f, threshold, score));
            }
        }
        best
    }

    /// Record each row's side of the split in [`Split`], reading the rows
    /// in feature 0's order, and return the number that go left.
    fn split_sides(&self, feature: usize, threshold: f64, lo: usize, hi: usize) -> usize {
        let col = &self.tree.cols.values[feature];
        let goes_left = &self.tree.split.goes_left;
        let own = self.team.shard(0);
        let mut n_left = 0;
        for &i in &own.feature(0)[lo..hi] {
            let left = col[i as usize] <= threshold;
            goes_left[i as usize].store(left, Ordering::Relaxed);
            n_left += usize::from(left);
        }
        n_left
    }
}

/// The oracles the bit-identity tests compare against, kept verbatim: the
/// presort-and-partition CART builders that the rank-sorted builder
/// replaced, and the node lists, with their codec and branchy walk, that
/// the flat arrays replaced.
#[cfg(test)]
pub(crate) mod reference {
    use super::{ClassLeaf, ClassificationTree, RegressionTree, TreeConfig};
    use crate::codec::{ByteReader, ByteWriter, CodecError};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A tree node holding leaf payload `L`. Nodes are stored in pre-order, so
    /// children always follow their parent.
    #[derive(Debug, Clone)]
    pub(crate) enum Node<L> {
        Leaf(L),
        Split {
            feature: usize,
            threshold: f64,
            /// Gain achieved by this split (for feature importance). Gini trees
            /// report no importance and keep 0.
            gain: f64,
            left: usize,
            right: usize,
        },
    }

    /// The leaf that `row` falls into.
    pub(crate) fn leaf<'a, L>(nodes: &'a [Node<L>], row: &[f64]) -> &'a L {
        let mut i = 0;
        loop {
            match &nodes[i] {
                Node::Leaf(payload) => return payload,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Serialize `nodes` as a count and a flat array, one tag byte per node.
    /// Splits carry their gain only when `with_gain` is set.
    fn encode_nodes<L>(
        w: &mut ByteWriter,
        nodes: &[Node<L>],
        with_gain: bool,
        put_leaf: impl Fn(&mut ByteWriter, &L),
    ) {
        w.put_len(nodes.len());
        for n in nodes {
            match n {
                Node::Leaf(payload) => {
                    w.put_u8(0);
                    put_leaf(w, payload);
                }
                Node::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                } => {
                    w.put_u8(1);
                    w.put_len(*feature);
                    w.put_f64(*threshold);
                    if with_gain {
                        w.put_f64(*gain);
                    }
                    w.put_len(*left);
                    w.put_len(*right);
                }
            }
        }
    }

    /// Inverse of [`encode_nodes`]. Child and feature indices are validated so
    /// a decoded tree can never panic or loop during prediction: the builder
    /// emits nodes in pre-order, so every child must come after its parent and
    /// be in range.
    fn decode_nodes<L>(
        r: &mut ByteReader<'_>,
        n_features: usize,
        with_gain: bool,
        what: &'static str,
        get_leaf: impl Fn(&mut ByteReader<'_>) -> Result<L, CodecError>,
    ) -> Result<Vec<Node<L>>, CodecError> {
        let count = r.len()?;
        if count == 0 {
            return Err(CodecError::Invalid("tree with zero nodes".into()));
        }
        let mut nodes = Vec::with_capacity(count.min(r.remaining()));
        for i in 0..count {
            nodes.push(match r.u8()? {
                0 => Node::Leaf(get_leaf(r)?),
                1 => {
                    let feature = r.len()?;
                    let threshold = r.f64()?;
                    let gain = if with_gain { r.f64()? } else { 0.0 };
                    let left = r.len()?;
                    let right = r.len()?;
                    let children_follow = i < left.min(right) && left.max(right) < count;
                    if feature >= n_features || !children_follow {
                        return Err(CodecError::Invalid(format!(
                            "node {i} splits on feature {feature} of {n_features} into nodes \
                             {left}/{right} of {count}: children must follow their parent"
                        )));
                    }
                    Node::Split {
                        feature,
                        threshold,
                        gain,
                        left,
                        right,
                    }
                }
                tag => return Err(CodecError::BadTag { what, tag }),
            });
        }
        Ok(nodes)
    }

    fn put_class_leaf(w: &mut ByteWriter, leaf: &ClassLeaf) {
        w.put_len(leaf.class);
        w.put_f64s(&leaf.proba);
    }

    fn get_class_leaf(r: &mut ByteReader<'_>) -> Result<ClassLeaf, CodecError> {
        Ok(ClassLeaf {
            class: r.len()?,
            proba: r.f64s()?,
        })
    }

    /// The tree that `nodes` encode to, decoded into flat arrays.
    fn regression_tree(nodes: &[Node<f64>], n_features: usize) -> RegressionTree {
        let mut w = ByteWriter::new();
        w.put_len(n_features);
        encode_nodes(&mut w, nodes, true, |w, value| w.put_f64(*value));
        RegressionTree::decode(&mut ByteReader::new(&w.into_bytes())).expect("reference tree")
    }

    /// [`regression_tree`] for a Gini tree.
    fn classification_tree(
        nodes: &[Node<ClassLeaf>],
        n_features: usize,
        n_classes: usize,
    ) -> ClassificationTree {
        let mut w = ByteWriter::new();
        w.put_len(n_features);
        w.put_len(n_classes);
        encode_nodes(&mut w, nodes, false, put_class_leaf);
        ClassificationTree::decode(&mut ByteReader::new(&w.into_bytes())).expect("reference tree")
    }

    /// `tree`'s nodes, decoded from its encoding by the node-list decoder.
    pub(crate) fn regression_nodes(tree: &RegressionTree) -> Vec<Node<f64>> {
        let mut w = ByteWriter::new();
        tree.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let n_features = r.len().expect("width");
        decode_nodes(&mut r, n_features, true, "tree node", |r| r.f64()).expect("nodes")
    }

    /// [`regression_nodes`] for a Gini tree.
    pub(crate) fn classification_nodes(tree: &ClassificationTree) -> Vec<Node<ClassLeaf>> {
        let mut w = ByteWriter::new();
        tree.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let n_features = r.len().expect("width");
        let _n_classes = r.len().expect("classes");
        decode_nodes(&mut r, n_features, false, "ctree node", get_class_leaf).expect("nodes")
    }

    /// The class of the leaf the node walk takes `row` to.
    pub(crate) fn class(nodes: &[Node<ClassLeaf>], row: &[f64]) -> usize {
        leaf(nodes, row).class
    }

    /// The former `RegressionTree::fit_gradients`: sorts every feature for
    /// this tree, then allocates two index lists per feature per split.
    pub(crate) fn fit_gradients(
        xs: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> RegressionTree {
        let n_features = xs[0].len();
        let mut tree = Building {
            nodes: Vec::new(),
            n_features,
            n_classes: 0,
        };
        let orders: Vec<Vec<usize>> = (0..n_features)
            .map(|f| {
                let mut v: Vec<usize> = (0..xs.len()).collect();
                v.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
                v
            })
            .collect();
        let mut local_rng = rng;
        build(&mut tree, xs, g, h, orders, 0, cfg, &mut local_rng);
        regression_tree(&tree.nodes, n_features)
    }

    /// A tree's nodes while a reference builder grows them.
    struct Building<L> {
        nodes: Vec<Node<L>>,
        n_features: usize,
        n_classes: usize,
    }

    /// Seeded rows with the value patterns that stress tie handling in the
    /// L+M+C matrices: integer pixels, a 0/1 flag, RSRP in 1 dB steps,
    /// `-0.0` next to `0.0`, a constant column and duplicated rows, plus a
    /// continuous column. The target mixes them with noise.
    pub(crate) fn tie_heavy_data(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        while xs.len() < n {
            if !xs.is_empty() && rng.gen_bool(0.1) {
                let copy = xs[rng.gen_range(0..xs.len())].clone();
                xs.push(copy);
                continue;
            }
            xs.push(vec![
                rng.gen_range(0..16u32) as f64,
                rng.gen_range(0..16u32) as f64,
                f64::from(u8::from(rng.gen_bool(0.3))),
                -(rng.gen_range(70..110u32) as f64),
                *[-0.0, 0.0, 1.0, -1.0].choose(&mut rng).expect("non-empty"),
                3.0,
                rng.gen::<f64>() * 50.0,
            ]);
        }
        let ys = xs
            .iter()
            .map(|x| {
                40.0 * x[0] - 25.0 * x[1].min(8.0)
                    + 300.0 * x[2]
                    + 6.0 * (x[3] + 90.0)
                    + 80.0 * x[4]
                    + x[6] * x[6]
                    + 120.0 * (rng.gen::<f64>() - 0.5)
            })
            .collect();
        (xs, ys)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        tree: &mut Building<f64>,
        xs: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        orders: Vec<Vec<usize>>,
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut Option<&mut StdRng>,
    ) -> usize {
        let idx: &[usize] = &orders[0];
        let n = idx.len();
        let sum_g: f64 = idx.iter().map(|&i| g[i]).sum();
        let sum_h: f64 = idx.iter().map(|&i| h[i]).sum();
        let leaf_value = if sum_h.abs() > 1e-12 {
            -sum_g / sum_h
        } else {
            0.0
        };
        if depth >= cfg.max_depth || n < cfg.min_samples_split {
            return push(&mut tree.nodes, Node::Leaf(leaf_value));
        }
        let first_target = -g[idx[0]] / h[idx[0]].max(1e-12);
        let pure = idx
            .iter()
            .all(|&i| (-g[i] / h[i].max(1e-12) - first_target).abs() < 1e-12);
        if pure {
            return push(&mut tree.nodes, Node::Leaf(leaf_value));
        }
        let parent_score = sum_g * sum_g / sum_h.max(1e-12);
        let features: Vec<usize> = {
            let all: Vec<usize> = (0..tree.n_features).collect();
            match (cfg.max_features, rng.as_deref_mut()) {
                (Some(k), Some(r)) if k < tree.n_features => {
                    let mut shuffled = all;
                    shuffled.shuffle(r);
                    shuffled.truncate(k);
                    shuffled
                }
                _ => all,
            }
        };
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let order = &orders[f];
            let mut gl = 0.0;
            let mut hl = 0.0;
            for k in 0..n.saturating_sub(1) {
                let i = order[k];
                gl += g[i];
                hl += h[i];
                if xs[order[k]][f] == xs[order[k + 1]][f] {
                    continue;
                }
                let left_n = k + 1;
                let right_n = n - left_n;
                if left_n < cfg.min_samples_leaf || right_n < cfg.min_samples_leaf {
                    continue;
                }
                let gr = sum_g - gl;
                let hr = sum_h - hl;
                if hl <= 1e-12 || hr <= 1e-12 {
                    continue;
                }
                let gain = gl * gl / hl + gr * gr / hr - parent_score;
                if gain > best.map_or(-1e-12, |b| b.2) {
                    let threshold = 0.5 * (xs[order[k]][f] + xs[order[k + 1]][f]);
                    best = Some((f, threshold, gain));
                }
            }
        }
        match best {
            None => push(&mut tree.nodes, Node::Leaf(leaf_value)),
            Some((feature, threshold, gain)) => {
                let mut left_orders = Vec::with_capacity(orders.len());
                let mut right_orders = Vec::with_capacity(orders.len());
                for ord in &orders {
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        ord.iter().partition(|&&i| xs[i][feature] <= threshold);
                    left_orders.push(l);
                    right_orders.push(r);
                }
                drop(orders);
                let node = push(&mut tree.nodes, Node::Leaf(0.0));
                let left = build(tree, xs, g, h, left_orders, depth + 1, cfg, rng);
                let right = build(tree, xs, g, h, right_orders, depth + 1, cfg, rng);
                tree.nodes[node] = Node::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                };
                node
            }
        }
    }

    fn push<L>(nodes: &mut Vec<Node<L>>, n: Node<L>) -> usize {
        nodes.push(n);
        nodes.len() - 1
    }

    /// Rows to compare walks on: `xs` itself, then, for some of its rows,
    /// each feature in turn set to NaN (either sign), ±0.0, ±∞ or half a
    /// unit up, where integer columns keep their split thresholds.
    pub(crate) fn probe_rows(xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut rows = xs.to_vec();
        for x in xs.iter().step_by(7) {
            for f in 0..x.len() {
                let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY];
                for v in specials.into_iter().chain([f64::NEG_INFINITY, x[f] + 0.5]) {
                    let mut row = x.clone();
                    row[f] = v;
                    rows.push(row);
                }
            }
        }
        rows
    }

    /// Labels in `0..3` from [`tie_heavy_data`]'s targets, cut at the
    /// paper's 300/700 Mbps class boundaries.
    pub(crate) fn tie_heavy_labels(ys: &[f64]) -> Vec<usize> {
        ys.iter()
            .map(|&y| usize::from(y >= 300.0) + usize::from(y > 700.0))
            .collect()
    }

    /// The former `ClassificationTree::fit`: sorts every feature for this
    /// tree, then allocates two index lists per feature per split.
    pub(crate) fn fit_classification(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: Option<&mut StdRng>,
    ) -> ClassificationTree {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit a tree on no data");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let n_features = xs[0].len();
        assert!(n_features > 0, "need at least one feature");
        let mut tree = Building {
            nodes: Vec::new(),
            n_features,
            n_classes,
        };
        let orders: Vec<Vec<usize>> = (0..n_features)
            .map(|f| {
                let mut v: Vec<usize> = (0..xs.len()).collect();
                v.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
                v
            })
            .collect();
        let mut local_rng = rng;
        build_classification(&mut tree, xs, ys, orders, 0, cfg, &mut local_rng);
        classification_tree(&tree.nodes, n_features, n_classes)
    }

    fn counts(tree: &Building<ClassLeaf>, ys: &[usize], idx: &[usize]) -> Vec<f64> {
        let mut c = vec![0.0; tree.n_classes];
        for &i in idx {
            c[ys[i]] += 1.0;
        }
        c
    }

    fn gini(counts: &[f64]) -> f64 {
        let n: f64 = counts.iter().sum();
        if n == 0.0 {
            return 0.0;
        }
        1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>()
    }

    fn build_classification(
        tree: &mut Building<ClassLeaf>,
        xs: &[Vec<f64>],
        ys: &[usize],
        orders: Vec<Vec<usize>>,
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut Option<&mut StdRng>,
    ) -> usize {
        let idx: Vec<usize> = orders[0].clone();
        let counts = counts(tree, ys, &idx);
        let total: f64 = counts.iter().sum();
        let majority = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap_or(0);
        let proba: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();

        let parent_gini = gini(&counts);
        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || parent_gini == 0.0 {
            return push(
                &mut tree.nodes,
                Node::Leaf(ClassLeaf {
                    class: majority,
                    proba,
                }),
            );
        }

        let features: Vec<usize> = {
            let all: Vec<usize> = (0..tree.n_features).collect();
            match (cfg.max_features, rng.as_deref_mut()) {
                (Some(k), Some(r)) if k < tree.n_features => {
                    let mut s = all;
                    s.shuffle(r);
                    s.truncate(k);
                    s
                }
                _ => all,
            }
        };

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted gini)
        for &f in &features {
            let order = &orders[f];
            let mut left_counts = vec![0.0; tree.n_classes];
            for k in 0..order.len().saturating_sub(1) {
                left_counts[ys[order[k]]] += 1.0;
                if xs[order[k]][f] == xs[order[k + 1]][f] {
                    continue;
                }
                let ln = (k + 1) as f64;
                let rn = total - ln;
                if (ln as usize) < cfg.min_samples_leaf || (rn as usize) < cfg.min_samples_leaf {
                    continue;
                }
                let right_counts: Vec<f64> = counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(t, l)| t - l)
                    .collect();
                let w = (ln * gini(&left_counts) + rn * gini(&right_counts)) / total;
                if w < best.map_or(parent_gini + 1e-12, |b| b.2) {
                    let threshold = 0.5 * (xs[order[k]][f] + xs[order[k + 1]][f]);
                    best = Some((f, threshold, w));
                }
            }
        }

        match best {
            None => push(
                &mut tree.nodes,
                Node::Leaf(ClassLeaf {
                    class: majority,
                    proba,
                }),
            ),
            Some((feature, threshold, _)) => {
                let mut left_orders = Vec::with_capacity(orders.len());
                let mut right_orders = Vec::with_capacity(orders.len());
                for ord in &orders {
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        ord.iter().partition(|&&i| xs[i][feature] <= threshold);
                    left_orders.push(l);
                    right_orders.push(r);
                }
                drop(orders);
                let node = push(
                    &mut tree.nodes,
                    Node::Leaf(ClassLeaf {
                        class: majority,
                        proba: vec![0.0; tree.n_classes],
                    }),
                );
                let left = build_classification(tree, xs, ys, left_orders, depth + 1, cfg, rng);
                let right = build_classification(tree, xs, ys, right_orders, depth + 1, cfg, rng);
                tree.nodes[node] = Node::Split {
                    feature,
                    threshold,
                    gain: 0.0,
                    left,
                    right,
                };
                node
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 for x < 5, 20 for x >= 5.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| if i < 5 { 10.0 } else { 20.0 }).collect();
        (xs, ys)
    }

    fn encoded(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode(&mut w);
        w.into_bytes()
    }

    /// Team sizes to check: one, some, and more than there are features
    /// (capped at one per feature).
    const TEAMS: [usize; 5] = [1, 2, 3, 4, 9];

    #[test]
    fn rank_sorted_trees_equal_the_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 40 + 23 * seed as usize);
            let labels = reference::tie_heavy_labels(&ys);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
            // Least squares, then Newton-style gradients with varying h.
            let g: Vec<f64> = ys.iter().map(|y| -y).collect();
            let h_var: Vec<f64> = (0..ys.len()).map(|_| 0.05 + rng.gen::<f64>()).collect();
            for (h, msl, max_features) in [
                (vec![1.0; ys.len()], 1, None),
                (vec![1.0; ys.len()], 5, None),
                (h_var.clone(), 1, None),
                (h_var, 5, Some(3)),
            ] {
                let cfg = TreeConfig {
                    max_depth: 2 + seed as usize % 5,
                    min_samples_leaf: msl,
                    min_samples_split: 2 * msl,
                    max_features,
                };
                let mut b = StdRng::seed_from_u64(seed);
                let want = reference::fit_gradients(&xs, &g, &h, &cfg, Some(&mut b));
                for workers in TEAMS {
                    let mut a = StdRng::seed_from_u64(seed);
                    let got =
                        RegressionTree::fit_gradients_on(workers, &xs, &g, &h, &cfg, Some(&mut a));
                    assert_eq!(
                        encoded(|w| got.encode(w)),
                        encoded(|w| want.encode(w)),
                        "{workers} workers, seed {seed}, {cfg:?}"
                    );
                    assert_eq!(
                        a, b,
                        "feature draws diverged ({workers} workers, seed {seed})"
                    );
                }

                let mut a = b.clone();
                let got = ClassificationTree::fit(&xs, &labels, 3, &cfg, Some(&mut a));
                let want = reference::fit_classification(&xs, &labels, 3, &cfg, Some(&mut b));
                assert_eq!(
                    encoded(|w| got.encode(w)),
                    encoded(|w| want.encode(w)),
                    "Gini, seed {seed}, {cfg:?}"
                );
                assert_eq!(a, b, "Gini feature draws diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn equal_best_splits_go_to_the_lower_feature_for_any_team_size() {
        // Features 0 and 2 are the same column, so every split on one
        // scores exactly what the same split on the other does; feature 1
        // is noise. With two or more workers they sit in different shards.
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, ((i * 7) % 11) as f64, i as f64])
            .collect();
        let ys: Vec<f64> = (0..40).map(|i| if i < 17 { 5.0 } else { 30.0 }).collect();
        let g: Vec<f64> = ys.iter().map(|y| -y).collect();
        let h = vec![1.0; ys.len()];
        let cfg = TreeConfig::default();
        let want = reference::fit_gradients(&xs, &g, &h, &cfg, None);
        for workers in TEAMS {
            let got = RegressionTree::fit_gradients_on(workers, &xs, &g, &h, &cfg, None);
            let root = &got.flat.slots[0];
            assert!(
                !got.flat.is_leaf(0) && root.feature == 0,
                "{workers} workers: root {root:?}"
            );
            assert_eq!(
                encoded(|w| got.encode(w)),
                encoded(|w| want.encode(w)),
                "{workers} workers"
            );
        }
    }

    /// Assert that the flat walk takes every probe row to the leaf the node
    /// walk does, on `tree` and on its decoded copy.
    fn assert_walks_agree(tree: &RegressionTree, rows: &[Vec<f64>]) {
        let decoded = RegressionTree::decode(&mut ByteReader::new(&encoded(|w| tree.encode(w))));
        for tree in [tree, &decoded.expect("decodes")] {
            let nodes = reference::regression_nodes(tree);
            for row in rows {
                let want = *reference::leaf(&nodes, row);
                assert_eq!(tree.predict_row(row).to_bits(), want.to_bits(), "{row:?}");
            }
        }
    }

    /// [`assert_walks_agree`] for a Gini tree: the same class and class
    /// frequencies.
    fn assert_class_walks_agree(tree: &ClassificationTree, rows: &[Vec<f64>]) {
        let bytes = encoded(|w| tree.encode(w));
        let decoded = ClassificationTree::decode(&mut ByteReader::new(&bytes));
        for tree in [tree, &decoded.expect("decodes")] {
            let nodes = reference::classification_nodes(tree);
            for row in rows {
                let want = reference::leaf(&nodes, row);
                assert_eq!(tree.predict_row(row), want.class, "{row:?}");
                let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(tree.predict_proba_row(row)),
                    bits(want.proba.clone()),
                    "{row:?}"
                );
            }
        }
    }

    #[test]
    fn flat_walk_reaches_the_node_walks_leaf() {
        use rand::SeedableRng;
        for seed in 0..10u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 50 + 31 * seed as usize);
            let labels = reference::tie_heavy_labels(&ys);
            let rows = reference::probe_rows(&xs);
            // Depth 0 is a single leaf; deep trees on few rows are unbalanced.
            for (max_depth, max_features) in [(0, None), (3, None), (12, None), (12, Some(3))] {
                let cfg = TreeConfig {
                    max_depth,
                    min_samples_leaf: 1 + seed as usize % 3,
                    min_samples_split: 2,
                    max_features,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let tree = RegressionTree::fit_gradients(
                    &xs,
                    &ys.iter().map(|y| -y).collect::<Vec<_>>(),
                    &vec![1.0; ys.len()],
                    &cfg,
                    Some(&mut rng),
                );
                assert_eq!(tree.node_count() == 1, max_depth == 0);
                assert_walks_agree(&tree, &rows);
                let tree = ClassificationTree::fit(&xs, &labels, 3, &cfg, Some(&mut rng));
                assert_class_walks_agree(&tree, &rows);
            }
        }
    }

    #[test]
    fn flat_walk_on_an_unbalanced_tree_stays_on_short_paths_leaves() {
        // x0 <= 0.5 → leaf 1; else x1 <= 0.5 → (x0 <= 2 → leaf 4 | leaf 5) |
        // leaf 6: paths of one, two and three steps.
        let mut w = ByteWriter::new();
        w.put_len(2); // n_features
        w.put_len(7); // nodes
        for (i, (feature, threshold, children)) in
            [(0, 0.5, [1, 2]), (1, 0.5, [3, 6]), (0, 2.0, [4, 5])]
                .into_iter()
                .enumerate()
        {
            if i == 1 {
                w.put_u8(0);
                w.put_f64(10.0);
            }
            w.put_u8(1);
            w.put_len(feature);
            w.put_f64(threshold);
            w.put_f64(1.0); // gain
            w.put_len(children[0]);
            w.put_len(children[1]);
        }
        for value in [40.0, 50.0, 60.0] {
            w.put_u8(0);
            w.put_f64(value);
        }
        let bytes = w.into_bytes();
        let tree = RegressionTree::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(tree.flat.depth, 3);
        assert_eq!(encoded(|w| tree.encode(w)), bytes);
        let grid = [f64::NAN, f64::NEG_INFINITY, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0];
        let rows: Vec<Vec<f64>> = (grid.iter())
            .flat_map(|&a| grid.iter().map(move |&b| vec![a, b]))
            .collect();
        assert_walks_agree(&tree, &rows);
        assert_eq!(tree.predict_row(&[0.0, 9.0]), 10.0);
        assert_eq!(tree.predict_row(&[1.0, 0.0]), 40.0);
        assert_eq!(tree.predict_row(&[3.0, 0.0]), 50.0);
        assert_eq!(tree.predict_row(&[f64::NAN, f64::NAN]), 60.0);
    }

    #[test]
    fn decode_rejects_children_that_do_not_follow_their_parent() {
        // Node 0 splits with itself as left child: predict_row would loop.
        let mut w = ByteWriter::new();
        w.put_len(1); // n_features
        w.put_len(2); // nodes
        w.put_u8(1);
        w.put_len(0);
        w.put_f64(0.5);
        w.put_f64(1.0);
        w.put_len(0);
        w.put_len(1);
        w.put_u8(0);
        w.put_f64(7.0);
        let bytes = w.into_bytes();
        let got = RegressionTree::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");

        let mut w = ByteWriter::new();
        w.put_len(1); // n_features
        w.put_len(2); // n_classes
        w.put_len(2); // nodes
        w.put_u8(1);
        w.put_len(0);
        w.put_f64(0.5);
        w.put_len(1);
        w.put_len(0);
        w.put_u8(0);
        w.put_len(1);
        w.put_f64s(&[0.0, 1.0]);
        let bytes = w.into_bytes();
        let got = ClassificationTree::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn regression_tree_learns_step_function() {
        let (xs, ys) = step_data();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default());
        assert!((t.predict_row(&[2.0]) - 10.0).abs() < 1e-9);
        assert!((t.predict_row(&[7.0]) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_tree_predicts_mean() {
        let (xs, ys) = step_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &ys, &cfg);
        assert!((t.predict_row(&[0.0]) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (xs, ys) = step_data();
        let cfg = TreeConfig {
            min_samples_leaf: 6, // can't make a 5/5 split ⇒ no split
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &ys, &cfg);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn regression_tree_two_features_picks_informative_one() {
        // Feature 0 is noise-free signal, feature 1 is constant.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 3.0]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default());
        let mut imp = vec![0.0; 2];
        t.add_importance(&mut imp);
        assert!(imp[0] > 0.0);
        assert_eq!(imp[1], 0.0);
    }

    #[test]
    fn regression_tree_fits_xor_with_depth_two() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0.0, 1.0, 1.0, 0.0];
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default());
        for (x, y) in xs.iter().zip(&ys) {
            assert!((t.predict_row(x) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn classification_tree_separable() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let t = ClassificationTree::fit(&xs, &ys, 2, &TreeConfig::default(), None);
        assert_eq!(t.predict_row(&[3.0]), 0);
        assert_eq!(t.predict_row(&[15.0]), 1);
    }

    #[test]
    fn classification_tree_three_classes() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let t = ClassificationTree::fit(&xs, &ys, 3, &TreeConfig::default(), None);
        assert_eq!(t.predict_row(&[5.0]), 0);
        assert_eq!(t.predict_row(&[15.0]), 1);
        assert_eq!(t.predict_row(&[25.0]), 2);
    }

    #[test]
    fn classification_proba_sums_to_one() {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![(i % 4) as f64]).collect();
        let ys: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let t = ClassificationTree::fit(&xs, &ys, 3, &TreeConfig::default(), None);
        let p = t.predict_proba_row(&[1.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pure_node_stops_early() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![1usize; 10];
        let t = ClassificationTree::fit(&xs, &ys, 2, &TreeConfig::default(), None);
        assert_eq!(t.predict_row(&[4.0]), 1);
    }
}
