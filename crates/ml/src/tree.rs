//! CART decision trees.
//!
//! Two variants share the same split machinery:
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
//! `RegressionTree` is exact CART without per-tree float sorting: each
//! feature is ranked once per fit (`RankedColumns`), a tree's per-feature
//! row orders come from a stable counting sort on those ranks, and nodes
//! split those orders in place. Boosting ranks once and reuses the ranks in
//! every round; the trees are the same, bit for bit, as sorting each
//! tree's rows by value would give.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

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

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Gain achieved by this split (for feature importance).
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// Gradient-fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

/// Training rows stored feature-major, with each value's dense rank under
/// `f64::total_cmp`. Built once per fit; every tree of a boosting run then
/// orders its rows by a counting sort on the ranks instead of re-sorting
/// floats.
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

    /// Each feature's order of `rows`: a stable counting sort by rank, so
    /// ties keep their order in `rows`, exactly as a stable
    /// `sort_by(total_cmp)` over the rows taken in that order would.
    pub(crate) fn orders(&self, rows: &[usize]) -> RowOrders {
        let len = rows.len();
        let mut order = vec![0u32; self.values.len() * len];
        let mut next = Vec::new();
        for ((rank, &distinct), out) in self
            .ranks
            .iter()
            .zip(&self.distinct)
            .zip(order.chunks_exact_mut(len.max(1)))
        {
            next.clear();
            next.resize(distinct + 1, 0usize);
            for &row in rows {
                next[rank[row] as usize + 1] += 1;
            }
            for v in 1..next.len() {
                next[v] += next[v - 1];
            }
            for &row in rows {
                let slot = &mut next[rank[row] as usize];
                out[*slot] = row as u32;
                *slot += 1;
            }
        }
        RowOrders { order, len }
    }
}

/// Per-feature row orders for one tree: feature `f` occupies
/// `order[f·len..(f+1)·len]`. Growing a tree partitions every feature's
/// slice in place, so a node is one `[lo, hi)` range of each.
#[derive(Clone)]
pub(crate) struct RowOrders {
    order: Vec<u32>,
    len: usize,
}

impl RowOrders {
    fn feature(&self, f: usize) -> &[u32] {
        &self.order[f * self.len..(f + 1) * self.len]
    }
}

impl RegressionTree {
    /// Fit on features `xs` with per-sample gradient `g` and hessian `h`.
    /// The leaf value minimizing the local quadratic model is `−Σg / Σh`.
    ///
    /// For plain least-squares regression on targets `y`, pass `g = −y`,
    /// `h = 1`: leaves become target means and the split gain is exactly
    /// variance reduction.
    pub fn fit_gradients(
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
        Self::fit_ranked(&cols, &mut cols.orders(&rows), g, h, cfg, rng)
    }

    /// Fit on the rows `orders` was built from, with `g` and `h` indexed by
    /// row id. `orders` is partitioned in place and holds no useful order
    /// afterwards.
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
        assert!(orders.len > 0, "cannot fit a tree on no data");
        let n_features = cols.values.len();
        assert!(n_features > 0, "need at least one feature");
        let len = orders.len;
        let mut grower = Grower {
            tree: RegressionTree {
                nodes: Vec::new(),
                n_features,
            },
            cols,
            orders,
            g,
            h,
            cfg,
            rng,
            goes_left: vec![false; cols.n_rows],
            scratch: Vec::with_capacity(len),
        };
        grower.build(0, len, 0);
        // A boosted model keeps hundreds of trees: hold no spare capacity.
        grower.tree.nodes.shrink_to_fit();
        grower.tree
    }

    /// Convenience: least-squares fit on targets.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: &TreeConfig) -> Self {
        let g: Vec<f64> = ys.iter().map(|y| -y).collect();
        let h = vec![1.0; ys.len()];
        Self::fit_gradients(xs, &g, &h, cfg, None)
    }

    fn push(&mut self, n: Node) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    /// Predict for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
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

    /// Predict for many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Accumulate this tree's split gains into `importance[feature]`.
    pub fn add_importance(&self, importance: &mut [f64]) {
        for n in &self.nodes {
            if let Node::Split { feature, gain, .. } = n {
                importance[*feature] += gain.max(0.0);
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Serialize as a flat node array (tag byte per node).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.n_features);
        w.put_len(self.nodes.len());
        for n in &self.nodes {
            match n {
                Node::Leaf { value } => {
                    w.put_u8(0);
                    w.put_f64(*value);
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
                    w.put_f64(*gain);
                    w.put_len(*left);
                    w.put_len(*right);
                }
            }
        }
    }

    /// Inverse of [`Self::encode`]. Child and feature indices are validated
    /// so a decoded tree can never panic or loop during prediction: the
    /// builder emits nodes in pre-order, so every child must come after its
    /// parent and be in range.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_features = r.len()?;
        let count = r.len()?;
        if count == 0 {
            return Err(CodecError::Invalid("tree with zero nodes".into()));
        }
        let mut nodes = Vec::with_capacity(count.min(r.remaining()));
        for i in 0..count {
            nodes.push(match r.u8()? {
                0 => Node::Leaf { value: r.f64()? },
                1 => {
                    let feature = r.len()?;
                    let threshold = r.f64()?;
                    let gain = r.f64()?;
                    let left = r.len()?;
                    let right = r.len()?;
                    if feature >= n_features {
                        return Err(CodecError::Invalid(format!(
                            "split feature {feature} out of range (n_features = {n_features})"
                        )));
                    }
                    if left >= count || right >= count {
                        return Err(CodecError::Invalid(format!(
                            "child index out of range ({left}/{right} vs {count} nodes)"
                        )));
                    }
                    if left <= i || right <= i {
                        return Err(CodecError::Invalid(format!(
                            "node {i} has child {left}/{right} that does not follow it"
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
                tag => {
                    return Err(CodecError::BadTag {
                        what: "tree node",
                        tag,
                    })
                }
            });
        }
        Ok(RegressionTree { nodes, n_features })
    }
}

/// One tree's growth state. A node owns the range `[lo, hi)` of every
/// feature's slice of `orders`; splitting it partitions those ranges in
/// place, so the children own `[lo, lo + n_left)` and `[lo + n_left, hi)`.
struct Grower<'a> {
    tree: RegressionTree,
    cols: &'a RankedColumns,
    orders: &'a mut RowOrders,
    g: &'a [f64],
    h: &'a [f64],
    cfg: &'a TreeConfig,
    rng: Option<&'a mut StdRng>,
    /// Side of the current split, by row id.
    goes_left: Vec<bool>,
    /// Right-hand rows while one feature's range is partitioned.
    scratch: Vec<u32>,
}

impl Grower<'_> {
    /// Grow the subtree over `[lo, hi)` and return its root's index. Nodes
    /// are emitted in pre-order, so children always follow their parent.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let (g, h, cfg) = (self.g, self.h, self.cfg);
        let n = hi - lo;
        // Node sums run in feature 0's order: the order fixes their bits.
        let idx = &self.orders.feature(0)[lo..hi];
        let sum_g: f64 = idx.iter().map(|&i| g[i as usize]).sum();
        let sum_h: f64 = idx.iter().map(|&i| h[i as usize]).sum();
        let leaf_value = if sum_h.abs() > 1e-12 {
            -sum_g / sum_h
        } else {
            0.0
        };

        if depth >= cfg.max_depth || n < cfg.min_samples_split {
            return self.tree.push(Node::Leaf { value: leaf_value });
        }

        // Pure node (all implied targets equal): nothing to gain by
        // splitting, even at zero cost.
        let target = |i: u32| -g[i as usize] / h[i as usize].max(1e-12);
        let first_target = target(idx[0]);
        if idx
            .iter()
            .all(|&i| (target(i) - first_target).abs() < 1e-12)
        {
            return self.tree.push(Node::Leaf { value: leaf_value });
        }

        let parent_score = sum_g * sum_g / sum_h.max(1e-12);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for f in self.candidate_features() {
            let order = &self.orders.feature(f)[lo..hi];
            let col = &self.cols.values[f];
            let mut gl = 0.0;
            let mut hl = 0.0;
            for (k, pair) in order.windows(2).enumerate() {
                let i = pair[0] as usize;
                gl += g[i];
                hl += h[i];
                let left_n = k + 1;
                let right_n = n - left_n;
                if left_n < cfg.min_samples_leaf || right_n < cfg.min_samples_leaf {
                    continue;
                }
                // Can't split between equal feature values.
                let (a, b) = (col[i], col[pair[1] as usize]);
                if a == b {
                    continue;
                }
                let gr = sum_g - gl;
                let hr = sum_h - hl;
                if hl <= 1e-12 || hr <= 1e-12 {
                    continue;
                }
                // Gain is non-negative by convexity; zero-gain splits are
                // accepted (like sklearn) so symmetric targets such as XOR
                // can still be separated at deeper levels.
                let gain = gl * gl / hl + gr * gr / hr - parent_score;
                if gain > best.map_or(-1e-12, |b| b.2) {
                    best = Some((f, 0.5 * (a + b), gain));
                }
            }
        }

        let Some((feature, threshold, gain)) = best else {
            return self.tree.push(Node::Leaf { value: leaf_value });
        };
        let mid = lo + self.partition(feature, threshold, lo, hi);
        let node = self.tree.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.tree.nodes[node] = Node::Split {
            feature,
            threshold,
            gain,
            left,
            right,
        };
        node
    }

    /// All features, or a random subspace of `max_features` of them when
    /// the caller supplied an RNG (forests).
    fn candidate_features(&mut self) -> Vec<usize> {
        let all: Vec<usize> = (0..self.tree.n_features).collect();
        match (self.cfg.max_features, self.rng.as_deref_mut()) {
            (Some(k), Some(r)) if k < all.len() => {
                let mut shuffled = all;
                shuffled.shuffle(r);
                shuffled.truncate(k);
                shuffled
            }
            _ => all,
        }
    }

    /// Stable in-place partition of every feature's `[lo, hi)` range into
    /// rows with `value <= threshold` on `feature`, then the rest. Returns
    /// the number of left rows.
    fn partition(&mut self, feature: usize, threshold: f64, lo: usize, hi: usize) -> usize {
        let col = &self.cols.values[feature];
        let mut n_left = 0;
        for &i in &self.orders.feature(feature)[lo..hi] {
            let left = col[i as usize] <= threshold;
            self.goes_left[i as usize] = left;
            n_left += usize::from(left);
        }
        let len = self.orders.len;
        for seg in self.orders.order.chunks_exact_mut(len) {
            let seg = &mut seg[lo..hi];
            self.scratch.clear();
            let mut l = 0;
            for k in 0..seg.len() {
                let i = seg[k];
                if self.goes_left[i as usize] {
                    seg[l] = i;
                    l += 1;
                } else {
                    self.scratch.push(i);
                }
            }
            seg[l..].copy_from_slice(&self.scratch);
        }
        n_left
    }
}

/// Gini-impurity classification tree with majority-vote leaves.
#[derive(Debug, Clone)]
pub struct ClassificationTree {
    nodes: Vec<CNode>,
    n_features: usize,
    n_classes: usize,
}

#[derive(Debug, Clone)]
enum CNode {
    Leaf {
        class: usize,
        proba: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
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
        assert!(!xs.is_empty(), "cannot fit a tree on no data");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let n_features = xs[0].len();
        assert!(n_features > 0, "need at least one feature");
        let mut tree = ClassificationTree {
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
        tree.build(xs, ys, orders, 0, cfg, &mut local_rng);
        tree
    }

    fn counts(&self, ys: &[usize], idx: &[usize]) -> Vec<f64> {
        let mut c = vec![0.0; self.n_classes];
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

    /// Recursive node builder over presorted per-feature index lists.
    fn build(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[usize],
        orders: Vec<Vec<usize>>,
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut Option<&mut StdRng>,
    ) -> usize {
        let idx: Vec<usize> = orders[0].clone();
        let counts = self.counts(ys, &idx);
        let total: f64 = counts.iter().sum();
        let majority = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap_or(0);
        let proba: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();

        let parent_gini = Self::gini(&counts);
        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || parent_gini == 0.0 {
            return self.push(CNode::Leaf {
                class: majority,
                proba,
            });
        }

        let features: Vec<usize> = {
            let all: Vec<usize> = (0..self.n_features).collect();
            match (cfg.max_features, rng.as_deref_mut()) {
                (Some(k), Some(r)) if k < self.n_features => {
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
            let mut left_counts = vec![0.0; self.n_classes];
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
                let w = (ln * Self::gini(&left_counts) + rn * Self::gini(&right_counts)) / total;
                if w < best.map_or(parent_gini + 1e-12, |b| b.2) {
                    let threshold = 0.5 * (xs[order[k]][f] + xs[order[k + 1]][f]);
                    best = Some((f, threshold, w));
                }
            }
        }

        match best {
            None => self.push(CNode::Leaf {
                class: majority,
                proba,
            }),
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
                let node = self.push(CNode::Leaf {
                    class: majority,
                    proba: vec![0.0; self.n_classes],
                });
                let left = self.build(xs, ys, left_orders, depth + 1, cfg, rng);
                let right = self.build(xs, ys, right_orders, depth + 1, cfg, rng);
                self.nodes[node] = CNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node
            }
        }
    }

    fn push(&mut self, n: CNode) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    /// Predicted class for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                CNode::Leaf { class, .. } => return *class,
                CNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
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

    /// Class probabilities for one row (leaf class frequencies).
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                CNode::Leaf { proba, .. } => return proba.clone(),
                CNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
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

    /// Predicted classes for many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Serialize as a flat node array (tag byte per node).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.n_features);
        w.put_len(self.n_classes);
        w.put_len(self.nodes.len());
        for n in &self.nodes {
            match n {
                CNode::Leaf { class, proba } => {
                    w.put_u8(0);
                    w.put_len(*class);
                    w.put_f64s(proba);
                }
                CNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    w.put_u8(1);
                    w.put_len(*feature);
                    w.put_f64(*threshold);
                    w.put_len(*left);
                    w.put_len(*right);
                }
            }
        }
    }

    /// Inverse of [`Self::encode`], with index validation: as in
    /// [`RegressionTree::decode`], children must follow their parent.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_features = r.len()?;
        let n_classes = r.len()?;
        let count = r.len()?;
        if count == 0 {
            return Err(CodecError::Invalid("tree with zero nodes".into()));
        }
        let mut nodes = Vec::with_capacity(count.min(r.remaining()));
        for i in 0..count {
            nodes.push(match r.u8()? {
                0 => {
                    let class = r.len()?;
                    let proba = r.f64s()?;
                    if class >= n_classes || proba.len() != n_classes {
                        return Err(CodecError::Invalid(format!(
                            "leaf class {class}/proba {} vs {n_classes} classes",
                            proba.len()
                        )));
                    }
                    CNode::Leaf { class, proba }
                }
                1 => {
                    let feature = r.len()?;
                    let threshold = r.f64()?;
                    let left = r.len()?;
                    let right = r.len()?;
                    if feature >= n_features || left >= count || right >= count {
                        return Err(CodecError::Invalid("split indices out of range".into()));
                    }
                    if left <= i || right <= i {
                        return Err(CodecError::Invalid(format!(
                            "node {i} has child {left}/{right} that does not follow it"
                        )));
                    }
                    CNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    }
                }
                tag => {
                    return Err(CodecError::BadTag {
                        what: "ctree node",
                        tag,
                    })
                }
            });
        }
        Ok(ClassificationTree {
            nodes,
            n_features,
            n_classes,
        })
    }
}

/// The presort-and-partition CART that the rank-sorted builder replaced,
/// kept verbatim as the oracle the bit-identity tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Node, RegressionTree, TreeConfig};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features,
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
        tree
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
        tree: &mut RegressionTree,
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
            return tree.push(Node::Leaf { value: leaf_value });
        }
        let first_target = -g[idx[0]] / h[idx[0]].max(1e-12);
        let pure = idx
            .iter()
            .all(|&i| (-g[i] / h[i].max(1e-12) - first_target).abs() < 1e-12);
        if pure {
            return tree.push(Node::Leaf { value: leaf_value });
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
            None => tree.push(Node::Leaf { value: leaf_value }),
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
                let node = tree.push(Node::Leaf { value: 0.0 });
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

    fn encoded(t: &RegressionTree) -> Vec<u8> {
        let mut w = ByteWriter::new();
        t.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn rank_sorted_trees_equal_the_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 40 + 23 * seed as usize);
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
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let got = RegressionTree::fit_gradients(&xs, &g, &h, &cfg, Some(&mut a));
                let want = reference::fit_gradients(&xs, &g, &h, &cfg, Some(&mut b));
                assert_eq!(encoded(&got), encoded(&want), "seed {seed}, {cfg:?}");
                assert_eq!(a, b, "feature draws diverged (seed {seed})");
            }
        }
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
