//! LSTM Seq2Seq encoder–decoder (Fig 15 of the paper).
//!
//! The encoder ingests a history of feature vectors `x_1..x_T`; its final
//! hidden/cell states (per layer) seed the decoder, which autoregressively
//! emits `k` future throughput values through a linear head. The paper uses
//! a 2-layer, 128-unit architecture with input/output length 20, trained
//! for 2000 epochs with batch 256 and MSE loss; [`Seq2SeqConfig::paper_scale`]
//! reproduces that configuration, while the default is a laptop-scale
//! equivalent.
//!
//! Training uses Adam, BPTT through decoder *and* encoder, global-norm
//! gradient clipping, and teacher forcing. The feedback edge from one
//! decoder output into the next decoder input is detached (the standard
//! simplification; gradients flow through the recurrent state instead).
//! Targets are expected pre-standardized (see `dataset::TargetScaler`).

use super::lstm::{accumulate_step, LstmLayer};
use super::{Adam, Param};
use crate::codec::{ByteReader, ByteWriter, CodecError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, RwLock};

/// Architecture and training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seq2SeqConfig {
    /// Feature-vector dimension of the encoder input.
    pub input_dim: usize,
    /// Hidden units per LSTM layer.
    pub hidden: usize,
    /// Number of stacked LSTM layers in encoder and decoder.
    pub layers: usize,
    /// Output sequence length `k`.
    pub horizon: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Probability of feeding the ground-truth previous target to the
    /// decoder during training (teacher forcing).
    pub teacher_forcing: f64,
    /// Global gradient-norm clip.
    pub clip_norm: f64,
    /// RNG seed (init + shuffling + forcing decisions).
    pub seed: u64,
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Seq2SeqConfig {
            input_dim: 1,
            hidden: 32,
            layers: 2,
            horizon: 20,
            epochs: 30,
            batch_size: 64,
            lr: 3e-3,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 0,
        }
    }
}

impl Seq2SeqConfig {
    /// The paper's §6.1 setup: 2×128 LSTM, sequence length 20, 2000 epochs,
    /// batch 256.
    pub fn paper_scale(input_dim: usize) -> Self {
        Seq2SeqConfig {
            input_dim,
            hidden: 128,
            layers: 2,
            horizon: 20,
            epochs: 2000,
            batch_size: 256,
            lr: 1e-3,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 0,
        }
    }
}

/// The encoder–decoder model.
#[derive(Debug, Clone)]
pub struct Seq2Seq {
    cfg: Seq2SeqConfig,
    enc: Vec<LstmLayer>,
    dec: Vec<LstmLayer>,
    w_out: Param,
    b_out: Param,
    adam: Adam,
}

impl Seq2Seq {
    /// Build a fresh model.
    pub fn new(cfg: Seq2SeqConfig) -> Self {
        assert!(cfg.layers >= 1, "need at least one layer");
        assert!(cfg.horizon >= 1, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let enc = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { cfg.input_dim } else { cfg.hidden };
                LstmLayer::new(input, cfg.hidden, &mut rng)
            })
            .collect();
        let dec = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { 1 } else { cfg.hidden };
                LstmLayer::new(input, cfg.hidden, &mut rng)
            })
            .collect();
        let w_out = Param::xavier(cfg.hidden, cfg.hidden, 1, &mut rng);
        let b_out = Param::zeros(1);
        Seq2Seq {
            adam: Adam::new(cfg.lr),
            cfg,
            enc,
            dec,
            w_out,
            b_out,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &Seq2SeqConfig {
        &self.cfg
    }

    /// Predict `horizon` future (standardized) values for one input
    /// sequence of feature vectors: a one-lane [`Self::predict_batch`].
    ///
    /// Panics on an empty input sequence; callers whose history length is
    /// not statically guaranteed use [`Self::predict_batch`], which
    /// returns `None` instead.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.predict_batch(&[xs])
            .and_then(|mut lanes| lanes.pop())
            .expect("cannot predict from an empty sequence")
    }

    /// Decode `horizon` (standardized) values for each of a block of input
    /// sequences, or `None` if any lane is empty. Lanes may have different
    /// lengths; a row whose width is not `input_dim` panics.
    ///
    /// Lanes decode one after another through the LSTM step kernel that
    /// training runs (`LstmLayer::step_forward`), over flat state and step
    /// buffers allocated once per call, so lane `i` is bit-identical to
    /// `predict(&seqs[i])` and to the per-sample reference forward for any
    /// batch size.
    pub fn predict_batch(&self, seqs: &[&[Vec<f64>]]) -> Option<Vec<Vec<f64>>> {
        if seqs.iter().any(|s| s.is_empty()) {
            return None;
        }
        let hd = self.cfg.hidden;
        let mut state = DecodeState {
            h: vec![0.0; self.cfg.layers * hd],
            c: vec![0.0; self.cfg.layers * hd],
            xh: vec![0.0; self.cfg.input_dim.max(hd) + hd],
            acts: vec![0.0; 4 * hd],
            c_new: vec![0.0; hd],
            tanh_c: vec![0.0; hd],
        };
        let top = (self.cfg.layers - 1) * hd;
        let lanes = seqs
            .iter()
            .map(|xs| {
                state.h.fill(0.0);
                state.c.fill(0.0);
                for x in xs.iter() {
                    state.step(&self.enc, x);
                }
                let mut prev = 0.0f64; // decoder start token
                (0..self.cfg.horizon)
                    .map(|_| {
                        state.step(&self.dec, &[prev]);
                        prev = self.b_out.w[0]
                            + self
                                .w_out
                                .w
                                .iter()
                                .zip(&state.h[top..])
                                .map(|(w, h)| w * h)
                                .sum::<f64>();
                        prev
                    })
                    .collect()
            })
            .collect();
        Some(lanes)
    }

    /// Serialize the configuration and all weights (raw IEEE-754 bits, so
    /// a round trip is bit-exact). Optimizer moments are deliberately not
    /// persisted: a decoded model serves identically, and simply restarts
    /// Adam cold if it is ever retrained.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.cfg.input_dim);
        w.put_len(self.cfg.hidden);
        w.put_len(self.cfg.layers);
        w.put_len(self.cfg.horizon);
        w.put_len(self.cfg.epochs);
        w.put_len(self.cfg.batch_size);
        w.put_f64(self.cfg.lr);
        w.put_f64(self.cfg.teacher_forcing);
        w.put_f64(self.cfg.clip_norm);
        w.put_u64(self.cfg.seed);
        for layer in self.enc.iter().chain(self.dec.iter()) {
            w.put_f64s(&layer.w.w);
            w.put_f64s(&layer.b.w);
        }
        w.put_f64s(&self.w_out.w);
        w.put_f64s(&self.b_out.w);
    }

    /// Inverse of [`Self::encode`]. Every length is validated against the
    /// decoded architecture, so corrupt input errors instead of panicking.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let cfg = Seq2SeqConfig {
            input_dim: r.len()?,
            hidden: r.len()?,
            layers: r.len()?,
            horizon: r.len()?,
            epochs: r.len()?,
            batch_size: r.len()?,
            lr: r.f64()?,
            teacher_forcing: r.f64()?,
            clip_norm: r.f64()?,
            seed: r.u64()?,
        };
        if cfg.input_dim == 0 || cfg.hidden == 0 || cfg.layers == 0 || cfg.horizon == 0 {
            return Err(CodecError::Invalid(
                "degenerate Seq2Seq architecture".into(),
            ));
        }
        fn param(r: &mut ByteReader<'_>, expect: usize, what: &str) -> Result<Param, CodecError> {
            let vals = r.f64s()?;
            if vals.len() != expect {
                return Err(CodecError::Invalid(format!(
                    "{what}: {} weights, expected {expect}",
                    vals.len()
                )));
            }
            let mut p = Param::zeros(expect);
            p.w = vals;
            Ok(p)
        }
        fn layer(
            r: &mut ByteReader<'_>,
            input_dim: usize,
            hidden: usize,
            what: &str,
        ) -> Result<LstmLayer, CodecError> {
            let wlen = input_dim
                .checked_add(hidden)
                .and_then(|cols| cols.checked_mul(4).and_then(|v| v.checked_mul(hidden)))
                .ok_or_else(|| CodecError::Invalid("Seq2Seq layer shape overflows".into()))?;
            Ok(LstmLayer {
                input_dim,
                hidden,
                w: param(r, wlen, what)?,
                b: param(r, 4 * hidden, what)?,
            })
        }
        let enc = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { cfg.input_dim } else { cfg.hidden };
                layer(r, input, cfg.hidden, "encoder layer")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dec = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { 1 } else { cfg.hidden };
                layer(r, input, cfg.hidden, "decoder layer")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let w_out = param(r, cfg.hidden, "output head weights")?;
        let b_out = param(r, 1, "output head bias")?;
        Ok(Seq2Seq {
            adam: Adam::new(cfg.lr),
            cfg,
            enc,
            dec,
            w_out,
            b_out,
        })
    }

    fn zero_grads(&mut self) {
        for l in self.enc.iter_mut().chain(self.dec.iter_mut()) {
            l.w.zero_grad();
            l.b.zero_grad();
        }
        self.w_out.zero_grad();
        self.b_out.zero_grad();
    }

    /// Visit every parameter tensor mutably, in a fixed order (encoder
    /// layers, decoder layers, output head).
    fn for_each_param(&mut self, mut f: impl FnMut(&mut Param)) {
        for l in self.enc.iter_mut().chain(self.dec.iter_mut()) {
            f(&mut l.w);
            f(&mut l.b);
        }
        f(&mut self.w_out);
        f(&mut self.b_out);
    }

    /// Immutable twin of [`Self::for_each_param`], same fixed order.
    fn for_each_param_ref(&self, mut f: impl FnMut(&Param)) {
        for l in self.enc.iter().chain(self.dec.iter()) {
            f(&l.w);
            f(&l.b);
        }
        f(&self.w_out);
        f(&self.b_out);
    }

    /// Number of parameter tensors [`Self::for_each_param`] visits.
    fn param_count(&self) -> usize {
        4 * self.cfg.layers + 2
    }

    fn clip_and_step(&mut self, scale: f64) {
        // Scale by 1/batch, then clip by global norm, then Adam. Each phase
        // is one sequential pass over the parameters in the same fixed
        // order, so the update is bit-identical to a single fused sweep.
        let clip_norm = self.cfg.clip_norm;
        self.for_each_param(|p| p.scale_grad(scale));
        let mut norm_sq = 0.0;
        self.for_each_param(|p| norm_sq += p.grad_norm_sq());
        let norm = norm_sq.sqrt();
        if norm > clip_norm {
            let s = clip_norm / norm;
            self.for_each_param(|p| p.scale_grad(s));
        }
        self.adam.begin_step();
        let adam = self.adam;
        self.for_each_param(|p| adam.update(p));
    }

    /// Train on `(inputs, targets)` pairs; returns the mean training loss
    /// per epoch. Targets should be standardized.
    pub fn train(&mut self, inputs: &[Vec<Vec<f64>>], targets: &[Vec<f64>]) -> Vec<f64> {
        // One epoch loop serves plain, early-stopped and resumed training,
        // so the paths cannot drift apart.
        self.train_resumable(inputs, targets, 0.0, 0, None, 0, |_| {})
    }

    /// [`Self::train`] with two production affordances, both off by default:
    ///
    /// * **Early stopping** — when `val_fraction > 0` and `patience >= 1`,
    ///   a deterministic interleaved slice of the samples is held out;
    ///   after each epoch the model is scored on it (autoregressive MSE, no
    ///   teacher forcing), training stops once `patience` epochs pass
    ///   without improvement, and the best epoch's weights are restored.
    /// * **Crash recovery** — every `checkpoint_every` epochs (0 = never)
    ///   the full training state (weights, Adam moments and step counter,
    ///   best-epoch snapshot, loss history) is handed to `on_checkpoint`;
    ///   a run restarted from that [`Seq2SeqTrainState`] converges
    ///   **bit-identically** to an uninterrupted run.
    ///
    /// `StdRng` is not serializable, so resume fast-forwards a fresh seeded
    /// RNG by replaying exactly what the completed epochs consumed: one
    /// in-place shuffle of the (persistent!) order permutation plus one
    /// `f64` draw per decoder step per training sample. Panics if the
    /// checkpoint disagrees with the config, sample count or early-stop
    /// settings — resuming against different inputs would silently diverge.
    ///
    /// Minibatches are trained lane-parallel on every available core; the
    /// weights are bit-identical for any core count.
    #[allow(clippy::too_many_arguments)]
    pub fn train_resumable(
        &mut self,
        inputs: &[Vec<Vec<f64>>],
        targets: &[Vec<f64>],
        val_fraction: f64,
        patience: usize,
        resume: Option<Seq2SeqTrainState>,
        checkpoint_every: usize,
        on_checkpoint: impl FnMut(&Seq2SeqTrainState),
    ) -> Vec<f64> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut lanes = Lanes::new(&self.cfg, inputs, targets, workers);
        self.run_epochs(
            &mut lanes,
            val_fraction,
            patience,
            resume,
            checkpoint_every,
            on_checkpoint,
        )
    }

    /// The epoch loop behind [`Self::train_resumable`]: shuffling, early
    /// stopping, checkpoints and resume, with the minibatch gradients and
    /// validation scores delegated to `engine`.
    fn run_epochs(
        &mut self,
        engine: &mut impl BatchEngine,
        val_fraction: f64,
        patience: usize,
        resume: Option<Seq2SeqTrainState>,
        checkpoint_every: usize,
        mut on_checkpoint: impl FnMut(&Seq2SeqTrainState),
    ) -> Vec<f64> {
        let (inputs, targets) = engine.data();
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot train on empty data");
        let n = inputs.len();
        let (train_idx, val_idx) = split_validation(n, val_fraction, patience);

        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train_idx.len()).collect();
        let draws_per_epoch = train_idx.len() * self.cfg.horizon;

        let (mut epoch_losses, mut best, start_epoch) = match resume {
            None => (Vec::with_capacity(self.cfg.epochs), None, 0),
            Some(st) => {
                assert_eq!(
                    st.model.cfg, self.cfg,
                    "checkpoint config mismatch on resume"
                );
                assert_eq!(
                    st.n_samples, n,
                    "checkpoint sample count mismatch on resume"
                );
                assert_eq!(
                    st.val_fraction.to_bits(),
                    val_fraction.to_bits(),
                    "checkpoint validation fraction mismatch on resume"
                );
                assert_eq!(
                    st.patience, patience,
                    "checkpoint patience mismatch on resume"
                );
                // Replay the RNG stream of the completed epochs. The order
                // permutation is shuffled in place epoch over epoch, so the
                // shuffles must be replayed on the same evolving vector,
                // interleaved with each epoch's teacher-forcing draws.
                for _ in 0..st.epochs_done {
                    order.shuffle(&mut rng);
                    for _ in 0..draws_per_epoch {
                        let _ = rng.gen::<f64>();
                    }
                }
                let start = st.epochs_done;
                *self = st.model;
                (st.epoch_losses, st.best, start)
            }
        };

        for epoch in start_epoch..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(self.cfg.batch_size) {
                epoch_loss += engine.step(self, batch, &train_idx, &mut rng);
            }
            epoch_losses.push(epoch_loss / train_idx.len() as f64);

            // Early stopping: score the held-out slice autoregressively
            // (the way the model is served), track the best epoch.
            let mut stop = false;
            if !val_idx.is_empty() {
                let val_loss = engine.validation_loss(self, &val_idx);
                match &best {
                    Some(b) if val_loss >= b.val_loss => {
                        if epoch - b.epoch >= patience {
                            stop = true;
                        }
                    }
                    _ => {
                        best = Some(BestEpoch {
                            val_loss,
                            epoch,
                            weights: self.snapshot_weights(),
                        });
                    }
                }
            }

            let done = epoch + 1;
            if !stop
                && checkpoint_every > 0
                && done.is_multiple_of(checkpoint_every)
                && done < self.cfg.epochs
            {
                on_checkpoint(&Seq2SeqTrainState {
                    model: self.clone(),
                    epochs_done: done,
                    n_samples: n,
                    val_fraction,
                    patience,
                    epoch_losses: epoch_losses.clone(),
                    best: best.clone(),
                });
            }
            if stop {
                break;
            }
        }

        // Whether training ran out of epochs or stopped early, serve the
        // best validated weights when a validation slice exists.
        if let Some(b) = best {
            self.restore_weights(&b.weights);
        }
        epoch_losses
    }

    /// Clone every weight tensor, in [`Self::for_each_param`] order.
    fn snapshot_weights(&self) -> Vec<Vec<f64>> {
        let mut ws = Vec::with_capacity(self.param_count());
        self.for_each_param_ref(|p| ws.push(p.w.clone()));
        ws
    }

    fn restore_weights(&mut self, ws: &[Vec<f64>]) {
        assert_eq!(
            ws.len(),
            self.param_count(),
            "weight snapshot shape mismatch"
        );
        let mut it = ws.iter();
        self.for_each_param(|p| {
            let w = it.next().expect("length checked above");
            assert_eq!(w.len(), p.w.len(), "weight tensor shape mismatch");
            p.w.clone_from(w);
        });
    }
}

/// The recurrent state and step buffers of the lane being decoded;
/// [`Seq2Seq::predict_batch`] resets the state between lanes.
struct DecodeState {
    /// Hidden state of every layer, `hidden` apart.
    h: Vec<f64>,
    /// Cell state of every layer, `hidden` apart.
    c: Vec<f64>,
    /// `[x; h_prev]` of the current layer; room for the widest input.
    xh: Vec<f64>,
    /// Gate activations, new cell state and `tanh(c)` of the current layer.
    acts: Vec<f64>,
    c_new: Vec<f64>,
    tanh_c: Vec<f64>,
}

impl DecodeState {
    /// Advance the stacked `layers` one step on input `x`: each layer reads
    /// the new hidden state of the one below and its own previous state.
    fn step(&mut self, layers: &[LstmLayer], x: &[f64]) {
        for (l, cell) in layers.iter().enumerate() {
            let (hd, in_dim) = (cell.hidden, cell.input_dim);
            let (below, h) = self.h.split_at_mut(l * hd);
            let h = &mut h[..hd];
            let c = &mut self.c[l * hd..][..hd];
            let xh = &mut self.xh[..in_dim + hd];
            xh[..in_dim].copy_from_slice(if l == 0 { x } else { &below[(l - 1) * hd..] });
            xh[in_dim..].copy_from_slice(h);
            cell.step_forward(xh, c, &mut self.acts, &mut self.c_new, &mut self.tanh_c, h);
            c.copy_from_slice(&self.c_new);
        }
    }
}

/// Deterministic interleaved train/validation split: every `k`-th sample
/// (k ≈ 1 / `val_fraction`, at least 2) goes to validation. Returns all
/// samples as training data when early stopping is disabled or the set is
/// too small to split.
fn split_validation(n: usize, val_fraction: f64, patience: usize) -> (Vec<usize>, Vec<usize>) {
    if val_fraction <= 0.0 || patience == 0 || n < 4 {
        return ((0..n).collect(), Vec::new());
    }
    let k = ((1.0 / val_fraction).round() as usize).max(2);
    let (mut train, mut val) = (Vec::new(), Vec::new());
    for i in 0..n {
        if i.is_multiple_of(k) {
            val.push(i);
        } else {
            train.push(i);
        }
    }
    if train.is_empty() || val.is_empty() {
        return ((0..n).collect(), Vec::new());
    }
    (train, val)
}

/// What the epoch loop asks of a gradient engine.
trait BatchEngine {
    /// The training set: input sequences and their standardized targets.
    fn data(&self) -> (&[Vec<Vec<f64>>], &[Vec<f64>]);

    /// One optimizer step on the minibatch `batch` (positions in
    /// `train_idx`): draw its teacher-forcing decisions from `rng`,
    /// accumulate its gradients, clip and apply Adam. Returns the summed
    /// per-sample loss.
    fn step(
        &mut self,
        model: &mut Seq2Seq,
        batch: &[usize],
        train_idx: &[usize],
        rng: &mut StdRng,
    ) -> f64;

    /// Mean autoregressive MSE of `model` over the samples `val_idx`.
    fn validation_loss(&mut self, model: &Seq2Seq, val_idx: &[usize]) -> f64;
}

/// Samples per lane block: the lanes of a block run forward and backward
/// in parallel, then their gradients are added in order before the next
/// block reuses the buffers. Bounds the buffers at any batch size.
const LANE_BLOCK: usize = 16;

/// Lane-parallel minibatch training, bit-identical to running BPTT one
/// sample at a time.
///
/// Within a minibatch every sample sees the same weights; samples interact
/// only through the gradient accumulators, and IEEE addition is ordered.
/// So each lane runs one sample's forward and backward into its own
/// buffers — no weight gradient touched — and only then are the
/// contributions `b.g[r] += dz[r]`, `W.g[r][c] += dz[r]·xh[c]` and the
/// head's added in the per-sample order: sample ascending, then step
/// descending. Workers share out the lanes of a block, then the rows of
/// every gradient tensor; each row has one owner, so the order per element
/// holds for any worker count.
///
/// All buffers are sized once per fit and dropped with it; the workers
/// allocate nothing.
struct Lanes<'d> {
    inputs: &'d [Vec<Vec<f64>>],
    targets: &'d [Vec<f64>],
    /// Threads per minibatch (the calling thread included).
    workers: usize,
    geo: Geometry,
    /// One slot per lane of a block.
    lanes: Vec<RwLock<Lane>>,
    /// One per worker.
    scratch: Vec<Scratch>,
    /// Teacher-forcing decisions of the minibatch, `horizon` per sample.
    forced: Vec<bool>,
    /// The model's gradient tensors while a minibatch runs, in
    /// [`Seq2Seq::for_each_param`] order; empty between minibatches.
    grads: Vec<Vec<f64>>,
}

/// Buffer geometry shared by every lane of a fit. A lane's steps are its
/// encoder steps followed by the decoder's; step-layer `s·layers + l` holds
/// layer `l` at step `s`.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    layers: usize,
    hidden: usize,
    horizon: usize,
    /// Room for the widest `[x; h]` of any layer.
    xh_stride: usize,
}

/// What one lane hands to the ordered accumulation.
struct Lane {
    /// `[x; h_prev]` of every step-layer, `xh_stride` apart.
    xh: Vec<f64>,
    /// Pre-activation gradients of every step-layer, `4·hidden` apart.
    dz: Vec<f64>,
    /// Top-layer hidden state of every decoder step.
    h_top: Vec<f64>,
    /// The decoder's outputs, replaced by `dL/dy` once the loss is known.
    dy: Vec<f64>,
    /// Encoder steps of the sample.
    enc_len: usize,
    /// The sample's MSE.
    loss: f64,
}

/// A worker's forward caches and gradient flows, reused lane after lane.
struct Scratch {
    /// Gate activations `i|f|g|o` of every step-layer.
    acts: Vec<f64>,
    /// Cell state entering every step-layer (one step more than `acts`).
    c: Vec<f64>,
    /// `tanh(c)` of every step-layer.
    tanh_c: Vec<f64>,
    /// Hidden state just computed.
    h: Vec<f64>,
    /// Gradient into each layer's hidden / cell state from the next step.
    dh: Vec<f64>,
    dc: Vec<f64>,
    /// Total gradient into the current layer's hidden output.
    dh_in: Vec<f64>,
    /// `Wᵀ·dz` of the current layer.
    dxh: Vec<f64>,
}

/// One worker's share of the gradient accumulators.
struct GradShard<'g> {
    /// Rows of every LSTM tensor this worker adds to.
    rows: Range<usize>,
    /// `(W.g rows, b.g rows)` per LSTM layer, encoder layers first.
    layers: Vec<(&'g mut [f64], &'g mut [f64])>,
    /// `(w_out.g, b_out.g)`, added to by worker 0.
    head: Option<(&'g mut [f64], &'g mut [f64])>,
}

/// What every worker of one minibatch shares.
struct Batch<'a> {
    model: &'a Seq2Seq,
    inputs: &'a [Vec<Vec<f64>>],
    targets: &'a [Vec<f64>],
    /// The minibatch, as positions in `train_idx`.
    batch: &'a [usize],
    train_idx: &'a [usize],
    forced: &'a [bool],
    lanes: &'a [RwLock<Lane>],
    geo: Geometry,
    barrier: Barrier,
    /// Next unclaimed lane of the current block.
    next_lane: AtomicUsize,
}

impl<'d> Lanes<'d> {
    fn new(
        cfg: &Seq2SeqConfig,
        inputs: &'d [Vec<Vec<f64>>],
        targets: &'d [Vec<f64>],
        workers: usize,
    ) -> Self {
        // Shapes are checked before any worker runs: a worker that panicked
        // mid-block would leave the others waiting at its barrier.
        for (xs, ys) in inputs.iter().zip(targets) {
            assert_eq!(ys.len(), cfg.horizon, "target length mismatch");
            for x in xs {
                assert_eq!(x.len(), cfg.input_dim, "input dim mismatch");
            }
        }
        let (layers, hd, k) = (cfg.layers, cfg.hidden, cfg.horizon);
        let geo = Geometry {
            layers,
            hidden: hd,
            horizon: k,
            xh_stride: cfg.input_dim.max(hd).max(1) + hd,
        };
        let slots = (inputs.iter().map(Vec::len).max().unwrap_or(0) + k) * layers;
        let n_lanes = LANE_BLOCK.min(cfg.batch_size).max(1);
        let workers = workers.clamp(1, n_lanes);
        let lane = || Lane {
            xh: vec![0.0; slots * geo.xh_stride],
            dz: vec![0.0; slots * 4 * hd],
            h_top: vec![0.0; k * hd],
            dy: vec![0.0; k],
            enc_len: 0,
            loss: 0.0,
        };
        let scratch = || Scratch {
            acts: vec![0.0; slots * 4 * hd],
            c: vec![0.0; (slots + layers) * hd],
            tanh_c: vec![0.0; slots * hd],
            h: vec![0.0; hd],
            dh: vec![0.0; layers * hd],
            dc: vec![0.0; layers * hd],
            dh_in: vec![0.0; hd],
            dxh: vec![0.0; geo.xh_stride],
        };
        Lanes {
            inputs,
            targets,
            workers,
            geo,
            lanes: (0..n_lanes).map(|_| RwLock::new(lane())).collect(),
            scratch: (0..workers).map(|_| scratch()).collect(),
            forced: vec![false; cfg.batch_size * k],
            grads: Vec::with_capacity(4 * layers + 2),
        }
    }

    /// Zero the model's gradients and accumulate the minibatch's into them,
    /// bit-identically to the per-sample loop; returns the summed loss.
    fn gradients(
        &mut self,
        model: &mut Seq2Seq,
        batch: &[usize],
        train_idx: &[usize],
        rng: &mut StdRng,
    ) -> f64 {
        let k = self.geo.horizon;
        let p = model.cfg.teacher_forcing;
        // The per-sample loop drew `horizon` values per sample as its
        // decoder ran, sample after sample: the same stream, drawn up front.
        let forced = &mut self.forced[..batch.len() * k];
        for f in forced.iter_mut() {
            *f = rng.gen::<f64>() < p;
        }
        model.zero_grads();
        // The gradient tensors leave the model for the minibatch, so the
        // weights can be shared read-only while each worker owns its rows.
        model.for_each_param(|p| self.grads.push(std::mem::take(&mut p.g)));
        let workers = self.workers.min(batch.len());
        let shards = shard_grads(&mut self.grads, 4 * self.geo.hidden, workers);
        let ctx = Batch {
            model,
            inputs: self.inputs,
            targets: self.targets,
            batch,
            train_idx,
            forced: &self.forced,
            lanes: &self.lanes,
            geo: self.geo,
            barrier: Barrier::new(workers),
            next_lane: AtomicUsize::new(0),
        };
        let loss = std::thread::scope(|s| {
            let mut shards = shards.into_iter();
            let mut scratch = self.scratch.iter_mut();
            let own = (shards.next(), scratch.next());
            for (w, (shard, sc)) in shards.zip(scratch).enumerate() {
                let ctx = &ctx;
                s.spawn(move || ctx.work(w + 1, shard, sc));
            }
            match own {
                (Some(shard), Some(sc)) => ctx.work(0, shard, sc),
                _ => unreachable!("at least one worker"),
            }
        });
        let mut grads = self.grads.drain(..);
        model.for_each_param(|p| p.g = grads.next().expect("one tensor per parameter"));
        loss
    }
}

impl BatchEngine for Lanes<'_> {
    fn data(&self) -> (&[Vec<Vec<f64>>], &[Vec<f64>]) {
        (self.inputs, self.targets)
    }

    fn step(
        &mut self,
        model: &mut Seq2Seq,
        batch: &[usize],
        train_idx: &[usize],
        rng: &mut StdRng,
    ) -> f64 {
        let loss = self.gradients(model, batch, train_idx, rng);
        model.clip_and_step(1.0 / batch.len() as f64);
        loss
    }

    /// Scores the held-out samples with one [`Seq2Seq::predict_batch`]
    /// call and sums the per-sample MSEs in `val_idx` order.
    fn validation_loss(&mut self, model: &Seq2Seq, val_idx: &[usize]) -> f64 {
        let horizon = model.cfg.horizon as f64;
        let seqs: Vec<&[Vec<f64>]> = val_idx.iter().map(|&i| self.inputs[i].as_slice()).collect();
        let preds = model
            .predict_batch(&seqs)
            .expect("cannot predict from an empty sequence");
        let mut loss = 0.0;
        for (pred, &i) in preds.iter().zip(val_idx) {
            loss += pred
                .iter()
                .zip(&self.targets[i])
                .map(|(p, y)| (p - y) * (p - y))
                .sum::<f64>()
                / horizon;
        }
        loss / val_idx.len() as f64
    }
}

/// Split the gradient tensors (in [`Seq2Seq::for_each_param`] order) into
/// `n` shards: shard `w` owns rows `[w·rows/n, (w+1)·rows/n)` of every LSTM
/// tensor, shard 0 also the output head.
fn shard_grads(grads: &mut [Vec<f64>], rows: usize, n: usize) -> Vec<GradShard<'_>> {
    let (lstm, head) = grads.split_at_mut(grads.len() - 2);
    let mut shards: Vec<GradShard<'_>> = (0..n)
        .map(|w| GradShard {
            rows: w * rows / n..(w + 1) * rows / n,
            layers: Vec::with_capacity(lstm.len() / 2),
            head: None,
        })
        .collect();
    for pair in lstm.chunks_exact_mut(2) {
        let [wg, bg] = pair else {
            unreachable!("chunks of two")
        };
        let cols = wg.len().checked_div(rows).unwrap_or(0);
        let (mut wg, mut bg) = (wg.as_mut_slice(), bg.as_mut_slice());
        for shard in &mut shards {
            let len = shard.rows.len();
            let (w_rows, w_rest) = std::mem::take(&mut wg).split_at_mut(len * cols);
            let (b_rows, b_rest) = std::mem::take(&mut bg).split_at_mut(len);
            (wg, bg) = (w_rest, b_rest);
            shard.layers.push((w_rows, b_rows));
        }
    }
    let [w_out, b_out] = head else {
        unreachable!("the head is two tensors")
    };
    shards[0].head = Some((w_out, b_out));
    shards
}

impl Batch<'_> {
    /// Worker `w`'s part of the minibatch, block by block: run lanes until
    /// none is left, wait for the others, then add every lane's gradients to
    /// its rows.
    /// Returns the summed sample loss (worker 0; 0 elsewhere).
    fn work(&self, w: usize, mut shard: GradShard<'_>, sc: &mut Scratch) -> f64 {
        let k = self.geo.horizon;
        let mut loss = 0.0;
        for (b, block) in self.batch.chunks(self.lanes.len()).enumerate() {
            // Lanes are claimed one at a time, so a worker that starts late
            // or runs slow takes fewer; any worker may run any lane.
            let first = b * self.lanes.len();
            loop {
                let j = self.next_lane.fetch_add(1, Ordering::Relaxed);
                let (Some(lane), Some(&o)) = (self.lanes.get(j), block.get(j)) else {
                    break;
                };
                let i = self.train_idx[o];
                let mut buf = lane.write().expect("no lane worker panicked");
                self.model.run_lane(
                    &self.inputs[i],
                    &self.targets[i],
                    &self.forced[(first + j) * k..][..k],
                    &self.geo,
                    &mut buf,
                    sc,
                );
            }
            self.barrier.wait();
            for lane in &self.lanes[..block.len()] {
                let buf = lane.read().expect("no lane worker panicked");
                if w == 0 {
                    loss += buf.loss;
                }
                self.model.accumulate_lane(&buf, &self.geo, &mut shard);
            }
            if w == 0 {
                // Every worker is past its last claim and none claims again
                // before the barrier below, which orders this reset before
                // the next block's claims. The counter publishes no data
                // (lanes are handed over through their locks), so the
                // claims and the reset are `Relaxed`.
                self.next_lane.store(0, Ordering::Relaxed);
            }
            self.barrier.wait();
        }
        loss
    }
}

impl Seq2Seq {
    /// Forward and backward of one training sample into `lane`: the
    /// per-sample BPTT minus the weight-gradient updates, which
    /// [`Self::accumulate_lane`] adds later in minibatch order. Every value
    /// is computed with the reference arithmetic and operand order.
    fn run_lane(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        forced: &[bool],
        geo: &Geometry,
        lane: &mut Lane,
        sc: &mut Scratch,
    ) {
        let (layers, hd, stride) = (geo.layers, geo.hidden, geo.xh_stride);
        let t_enc = xs.len();
        let steps = t_enc + geo.horizon;
        let layer = |s: usize, l: usize| {
            if s < t_enc {
                &self.enc[l]
            } else {
                &self.dec[l]
            }
        };
        lane.enc_len = t_enc;

        // Forward. Step-layer (s, l) reads `[input; h_prev]` from its xh
        // slot and writes its h into the input of (s, l + 1) and the
        // recurrent half of (s + 1, l); the encoder's last step hands its
        // states to the decoder's first exactly like any other step.
        sc.c[..layers * hd].fill(0.0);
        let mut prev = 0.0f64; // decoder start token
        for s in 0..steps {
            for l in 0..layers {
                let cell = layer(s, l);
                let in_dim = cell.input_dim;
                let sl = s * layers + l;
                let xh = &mut lane.xh[sl * stride..][..in_dim + hd];
                if l == 0 {
                    match xs.get(s) {
                        Some(x) => xh[..in_dim].copy_from_slice(x),
                        None => xh[0] = prev,
                    }
                }
                if s == 0 {
                    xh[in_dim..].fill(0.0);
                }
                let (c_in, c_out) = sc.c.split_at_mut((s + 1) * layers * hd);
                cell.step_forward(
                    xh,
                    &c_in[sl * hd..][..hd],
                    &mut sc.acts[sl * 4 * hd..][..4 * hd],
                    &mut c_out[l * hd..][..hd],
                    &mut sc.tanh_c[sl * hd..][..hd],
                    &mut sc.h,
                );
                if l + 1 < layers {
                    lane.xh[(sl + 1) * stride..][..hd].copy_from_slice(&sc.h);
                }
                if s + 1 < steps {
                    let at = (sl + layers) * stride + layer(s + 1, l).input_dim;
                    lane.xh[at..][..hd].copy_from_slice(&sc.h);
                }
            }
            if s >= t_enc {
                let t = s - t_enc;
                let h_top = &mut lane.h_top[t * hd..][..hd];
                h_top.copy_from_slice(&sc.h);
                let y: f64 = self.b_out.w[0]
                    + self
                        .w_out
                        .w
                        .iter()
                        .zip(h_top.iter())
                        .map(|(w, h)| w * h)
                        .sum::<f64>();
                lane.dy[t] = y;
                // Next decoder input: teacher-forced truth or own output.
                prev = if forced[t] { ys[t] } else { y };
            }
        }

        let k = geo.horizon as f64;
        lane.loss = lane
            .dy
            .iter()
            .zip(ys)
            .map(|(o, y)| (o - y) * (o - y))
            .sum::<f64>()
            / k;
        // dL/dy_t = 2 (y_t − t_t) / k
        for (d, y) in lane.dy.iter_mut().zip(ys) {
            *d = 2.0 * (*d - y) / k;
        }

        // Backward through decoder then encoder steps, top layer down. The
        // decoder's feedback edge is detached, so layer 0 needs no input
        // gradient.
        sc.dh.fill(0.0);
        sc.dc.fill(0.0);
        for s in (0..steps).rev() {
            for l in (0..layers).rev() {
                let cell = layer(s, l);
                let in_dim = cell.input_dim;
                let sl = s * layers + l;
                let dh_next = &sc.dh[l * hd..][..hd];
                let dh: &[f64] = if l + 1 < layers {
                    // The input gradient of the layer above plus the
                    // recurrent gradient from step s + 1.
                    for ((d, &a), &b) in sc.dh_in.iter_mut().zip(&sc.dxh[..hd]).zip(dh_next) {
                        *d = a + b;
                    }
                    &sc.dh_in
                } else if s >= t_enc {
                    let dy = lane.dy[s - t_enc];
                    for ((d, &a), &w) in sc.dh_in.iter_mut().zip(dh_next).zip(&self.w_out.w) {
                        *d = a + dy * w;
                    }
                    &sc.dh_in
                } else {
                    // The encoder's top layer has nothing above it. The
                    // per-sample loop added a +0.0 vector here, which is
                    // exact: `dh_next` is +0.0 or a sum seeded with +0.0,
                    // so never −0.0, the one value `+ 0.0` would change.
                    dh_next
                };
                cell.step_backward(
                    dh,
                    &mut sc.dc[l * hd..][..hd],
                    &sc.acts[sl * 4 * hd..][..4 * hd],
                    &sc.c[sl * hd..][..hd],
                    &sc.tanh_c[sl * hd..][..hd],
                    &mut lane.dz[sl * 4 * hd..][..4 * hd],
                    &mut sc.dxh,
                    if l == 0 { in_dim } else { 0 },
                );
                sc.dh[l * hd..][..hd].copy_from_slice(&sc.dxh[in_dim..in_dim + hd]);
            }
        }
    }

    /// Add one lane's weight gradients to the rows `shard` owns, each LSTM
    /// tensor over its steps descending, then the output head's: the order
    /// in which the per-sample loop added them.
    fn accumulate_lane(&self, lane: &Lane, geo: &Geometry, shard: &mut GradShard<'_>) {
        let (layers, hd) = (geo.layers, geo.hidden);
        let rows = shard.rows.clone();
        for (li, (wg, bg)) in shard.layers.iter_mut().enumerate() {
            let (cell, l, steps) = if li < layers {
                (&self.enc[li], li, 0..lane.enc_len)
            } else {
                let l = li - layers;
                (&self.dec[l], l, lane.enc_len..lane.enc_len + geo.horizon)
            };
            let cols = cell.input_dim + hd;
            for s in steps.rev() {
                let sl = s * layers + l;
                accumulate_step(
                    wg,
                    bg,
                    &lane.dz[sl * 4 * hd..][rows.clone()],
                    &lane.xh[sl * geo.xh_stride..][..cols],
                );
            }
        }
        if let Some((w_out, b_out)) = &mut shard.head {
            for t in (0..geo.horizon).rev() {
                let dy = lane.dy[t];
                b_out[0] += dy;
                for (g, &h) in w_out.iter_mut().zip(&lane.h_top[t * hd..][..hd]) {
                    *g += dy * h;
                }
            }
        }
    }
}

/// The best validated epoch seen so far (early stopping bookkeeping).
#[derive(Debug, Clone)]
struct BestEpoch {
    val_loss: f64,
    epoch: usize,
    /// Weight tensors in `for_each_param` order.
    weights: Vec<Vec<f64>>,
}

/// A mid-training Seq2Seq snapshot: the model **with** its Adam moments
/// and step counter, plus the epoch bookkeeping needed to resume
/// bit-identically (see [`Seq2Seq::train_resumable`]).
#[derive(Debug, Clone)]
pub struct Seq2SeqTrainState {
    model: Seq2Seq,
    epochs_done: usize,
    n_samples: usize,
    val_fraction: f64,
    patience: usize,
    epoch_losses: Vec<f64>,
    best: Option<BestEpoch>,
}

impl Seq2SeqTrainState {
    /// Epochs completed when this snapshot was taken.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// True when this snapshot can resume a run of `model` over `n_samples`
    /// sequences with the given early-stopping settings — the exact
    /// preconditions [`Seq2Seq::train_resumable`] asserts, exposed so
    /// callers can degrade to a cold start instead of panicking on a stale
    /// checkpoint.
    pub fn resumes(
        &self,
        model: &Seq2Seq,
        n_samples: usize,
        val_fraction: f64,
        patience: usize,
    ) -> bool {
        self.model.cfg == model.cfg
            && self.n_samples == n_samples
            && self.val_fraction.to_bits() == val_fraction.to_bits()
            && self.patience == patience
    }

    /// Serialize the full training state. Unlike [`Seq2Seq::encode`] this
    /// includes the Adam moments and step counter — a resumed optimizer
    /// must continue exactly where it left off, not restart cold.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.model.encode(w);
        self.model.for_each_param_ref(|p| {
            w.put_f64s(&p.m);
            w.put_f64s(&p.v);
        });
        w.put_u64(self.model.adam.t);
        w.put_len(self.epochs_done);
        w.put_len(self.n_samples);
        w.put_f64(self.val_fraction);
        w.put_len(self.patience);
        w.put_f64s(&self.epoch_losses);
        match &self.best {
            None => w.put_u8(0),
            Some(b) => {
                w.put_u8(1);
                w.put_f64(b.val_loss);
                w.put_len(b.epoch);
                w.put_len(b.weights.len());
                for t in &b.weights {
                    w.put_f64s(t);
                }
            }
        }
    }

    /// Inverse of [`Self::encode`]. Every tensor length is validated
    /// against the decoded architecture.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut model = Seq2Seq::decode(r)?;
        let n_params = model.param_count();
        let mut shapes = Vec::with_capacity(n_params);
        model.for_each_param_ref(|p| shapes.push(p.w.len()));
        let mut moments = Vec::with_capacity(n_params);
        for &len in &shapes {
            let m = r.f64s()?;
            let v = r.f64s()?;
            if m.len() != len || v.len() != len {
                return Err(CodecError::Invalid(format!(
                    "Adam moment tensor of {} / {} values, expected {len}",
                    m.len(),
                    v.len()
                )));
            }
            moments.push((m, v));
        }
        let mut it = moments.into_iter();
        model.for_each_param(|p| {
            let (m, v) = it.next().expect("count checked above");
            p.m = m;
            p.v = v;
        });
        model.adam.t = r.u64()?;
        let epochs_done = r.len()?;
        let n_samples = r.len()?;
        let val_fraction = r.f64()?;
        let patience = r.len()?;
        let epoch_losses = r.f64s()?;
        let best = match r.u8()? {
            0 => None,
            1 => {
                let val_loss = r.f64()?;
                let epoch = r.len()?;
                let n_tensors = r.len()?;
                if n_tensors != n_params {
                    return Err(CodecError::Invalid(format!(
                        "best-epoch snapshot of {n_tensors} tensors, expected {n_params}"
                    )));
                }
                let mut weights = Vec::with_capacity(n_params);
                for &len in &shapes {
                    let t = r.f64s()?;
                    if t.len() != len {
                        return Err(CodecError::Invalid(format!(
                            "best-epoch tensor of {} values, expected {len}",
                            t.len()
                        )));
                    }
                    weights.push(t);
                }
                Some(BestEpoch {
                    val_loss,
                    epoch,
                    weights,
                })
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "best-epoch presence",
                    tag,
                })
            }
        };
        Ok(Seq2SeqTrainState {
            model,
            epochs_done,
            n_samples,
            val_fraction,
            patience,
            epoch_losses,
            best,
        })
    }
}

/// The per-sample BPTT the lane-parallel trainer replaced, kept as the
/// bit-identity oracle for the tests.
#[cfg(test)]
pub(super) mod reference {
    use super::{BatchEngine, Seq2Seq};
    use crate::nn::lstm::reference::StepCache;
    use rand::rngs::StdRng;
    use rand::Rng;

    pub(super) struct DecoderTrace {
        /// caches[t][layer]
        caches: Vec<Vec<StepCache>>,
        /// Top-layer hidden state at each step.
        h_top: Vec<Vec<f64>>,
        /// Emitted outputs.
        outputs: Vec<f64>,
    }

    impl Seq2Seq {
        /// Encode an input sequence; returns per-layer (h, c) finals plus all
        /// caches (needed only for training).
        #[allow(clippy::type_complexity)]
        fn run_encoder(
            &self,
            xs: &[Vec<f64>],
        ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<StepCache>>) {
            let hdim = self.cfg.hidden;
            let mut h: Vec<Vec<f64>> = vec![vec![0.0; hdim]; self.cfg.layers];
            let mut c: Vec<Vec<f64>> = vec![vec![0.0; hdim]; self.cfg.layers];
            let mut caches: Vec<Vec<StepCache>> = Vec::with_capacity(xs.len());
            for x in xs {
                let mut input = x.clone();
                let mut step_caches = Vec::with_capacity(self.cfg.layers);
                for (l, layer) in self.enc.iter().enumerate() {
                    let (hn, cn, cache) = layer.forward(&input, &h[l], &c[l]);
                    input = hn.clone();
                    h[l] = hn;
                    c[l] = cn;
                    step_caches.push(cache);
                }
                caches.push(step_caches);
            }
            (h, c, caches)
        }

        /// Run the decoder from encoder states. During training,
        /// `teacher: Some(targets)` supplies ground truth for forced steps.
        fn run_decoder(
            &self,
            mut h: Vec<Vec<f64>>,
            mut c: Vec<Vec<f64>>,
            teacher: Option<(&[f64], &mut StdRng, f64)>,
        ) -> (DecoderTrace, Vec<bool>) {
            let mut trace = DecoderTrace {
                caches: Vec::with_capacity(self.cfg.horizon),
                h_top: Vec::with_capacity(self.cfg.horizon),
                outputs: Vec::with_capacity(self.cfg.horizon),
            };
            let mut forced = Vec::with_capacity(self.cfg.horizon);
            let mut prev = 0.0f64; // start token
            let mut teacher = teacher;
            for t in 0..self.cfg.horizon {
                let mut input = vec![prev];
                let mut step_caches = Vec::with_capacity(self.cfg.layers);
                for (l, layer) in self.dec.iter().enumerate() {
                    let (hn, cn, cache) = layer.forward(&input, &h[l], &c[l]);
                    input = hn.clone();
                    h[l] = hn;
                    c[l] = cn;
                    step_caches.push(cache);
                }
                let h_top = h[self.cfg.layers - 1].clone();
                let y: f64 = self.b_out.w[0]
                    + self
                        .w_out
                        .w
                        .iter()
                        .zip(&h_top)
                        .map(|(w, h)| w * h)
                        .sum::<f64>();
                trace.caches.push(step_caches);
                trace.h_top.push(h_top);
                trace.outputs.push(y);

                // Next decoder input: teacher-forced truth or own output.
                prev = if let Some((targets, rng, p)) = &mut teacher {
                    if rng.gen::<f64>() < *p {
                        forced.push(true);
                        targets[t]
                    } else {
                        forced.push(false);
                        y
                    }
                } else {
                    forced.push(false);
                    y
                };
            }
            (trace, forced)
        }

        /// Reference single-sequence prediction.
        pub(crate) fn predict_reference(&self, xs: &[Vec<f64>]) -> Vec<f64> {
            assert!(!xs.is_empty(), "cannot predict from an empty sequence");
            let (h, c, _) = self.run_encoder(xs);
            let (trace, _) = self.run_decoder(h, c, None);
            trace.outputs
        }

        /// Forward + backward on one sample; accumulates gradients and returns
        /// the MSE loss.
        pub(crate) fn loss_and_grad(
            &mut self,
            xs: &[Vec<f64>],
            ys: &[f64],
            rng: &mut StdRng,
        ) -> f64 {
            assert_eq!(ys.len(), self.cfg.horizon, "target length mismatch");
            let layers = self.cfg.layers;
            let hdim = self.cfg.hidden;

            let (h_enc, c_enc, enc_caches) = self.run_encoder(xs);
            let tf = self.cfg.teacher_forcing;
            let (trace, _forced) = self.run_decoder(h_enc, c_enc, Some((ys, rng, tf)));

            let k = self.cfg.horizon as f64;
            let loss: f64 = trace
                .outputs
                .iter()
                .zip(ys)
                .map(|(o, y)| (o - y) * (o - y))
                .sum::<f64>()
                / k;

            // ---- Backward through the decoder ----
            // dL/dy_t = 2 (y_t − t_t) / k
            let mut dh_next: Vec<Vec<f64>> = vec![vec![0.0; hdim]; layers];
            let mut dc_next: Vec<Vec<f64>> = vec![vec![0.0; hdim]; layers];
            for t in (0..self.cfg.horizon).rev() {
                let dy = 2.0 * (trace.outputs[t] - ys[t]) / k;
                // Output head grads.
                self.b_out.g[0] += dy;
                let mut dh_top = dh_next[layers - 1].clone();
                for (j, dh) in dh_top.iter_mut().enumerate() {
                    self.w_out.g[j] += dy * trace.h_top[t][j];
                    *dh += dy * self.w_out.w[j];
                }
                // Through the stacked layers, top to bottom.
                let mut dh_layer = dh_top;
                for l in (0..layers).rev() {
                    let dc_layer = dc_next[l].clone();
                    let (dx, dh_prev, dc_prev) =
                        self.dec[l].backward(&dh_layer, &dc_layer, &trace.caches[t][l]);
                    dh_next[l] = dh_prev;
                    dc_next[l] = dc_prev;
                    // dx flows into the layer below's hidden output at this step
                    // (for l > 0); at l == 0 the feedback edge is detached.
                    if l > 0 {
                        dh_layer = dx.iter().zip(&dh_next[l - 1]).map(|(a, b)| a + b).collect();
                    }
                }
            }

            // ---- Backward through the encoder ----
            // Decoder's initial states were the encoder's finals.
            let mut dh = dh_next;
            let mut dc = dc_next;
            for t in (0..xs.len()).rev() {
                let mut dh_from_above: Vec<f64> = vec![0.0; hdim];
                for l in (0..layers).rev() {
                    let dh_total: Vec<f64> = dh[l]
                        .iter()
                        .zip(&dh_from_above)
                        .map(|(a, b)| a + b)
                        .collect();
                    let (dx, dh_prev, dc_prev) =
                        self.enc[l].backward(&dh_total, &dc[l], &enc_caches[t][l]);
                    dh[l] = dh_prev;
                    dc[l] = dc_prev;
                    dh_from_above = if l > 0 { dx } else { vec![0.0; hdim] };
                }
            }
            loss
        }
    }

    /// The per-sample training loop as a [`BatchEngine`].
    pub(crate) struct Reference<'d> {
        pub(crate) inputs: &'d [Vec<Vec<f64>>],
        pub(crate) targets: &'d [Vec<f64>],
    }

    impl BatchEngine for Reference<'_> {
        fn data(&self) -> (&[Vec<Vec<f64>>], &[Vec<f64>]) {
            (self.inputs, self.targets)
        }

        fn step(
            &mut self,
            model: &mut Seq2Seq,
            batch: &[usize],
            train_idx: &[usize],
            rng: &mut StdRng,
        ) -> f64 {
            model.zero_grads();
            let mut batch_loss = 0.0;
            for &o in batch {
                let i = train_idx[o];
                batch_loss += model.loss_and_grad(&self.inputs[i], &self.targets[i], rng);
            }
            model.clip_and_step(1.0 / batch.len() as f64);
            batch_loss
        }

        fn validation_loss(&mut self, model: &Seq2Seq, val_idx: &[usize]) -> f64 {
            let mut val_loss = 0.0;
            for &i in val_idx {
                let pred = model.predict_reference(&self.inputs[i]);
                val_loss += pred
                    .iter()
                    .zip(&self.targets[i])
                    .map(|(p, y)| (p - y) * (p - y))
                    .sum::<f64>()
                    / model.cfg.horizon as f64;
            }
            val_loss /= val_idx.len() as f64;
            val_loss
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;

    fn tiny_cfg() -> Seq2SeqConfig {
        Seq2SeqConfig {
            input_dim: 2,
            hidden: 4,
            layers: 2,
            horizon: 3,
            epochs: 1,
            batch_size: 4,
            lr: 1e-2,
            teacher_forcing: 1.0, // deterministic path for grad checks
            clip_norm: 1e9,
            seed: 7,
        }
    }

    #[test]
    fn predict_returns_horizon_values() {
        let m = Seq2Seq::new(tiny_cfg());
        let xs = vec![vec![0.1, 0.2], vec![0.3, -0.1], vec![0.0, 0.5]];
        assert_eq!(m.predict(&xs).len(), 3);
    }

    #[test]
    fn prediction_is_deterministic() {
        let m = Seq2Seq::new(tiny_cfg());
        let xs = vec![vec![0.1, 0.2], vec![0.3, -0.1]];
        assert_eq!(m.predict(&xs), m.predict(&xs));
    }

    #[test]
    fn predict_batch_bit_matches_single_lane_predict() {
        let mut signed = Seq2Seq::new(tiny_cfg());
        signed.enc[0].b.w[0] = -0.0;
        signed.b_out.w[0] = -0.0;
        // Lanes of lengths 1–6, with signed zeros among the inputs.
        let seqs: Vec<Vec<Vec<f64>>> = (0..20)
            .map(|b| {
                (0..=(b % 6))
                    .map(|t| match (b + t) % 5 {
                        0 => vec![-0.0, 0.0],
                        1 => vec![0.0, -0.0],
                        _ => {
                            let s = (b * 7 + t) as f64;
                            vec![(s * 0.31).sin(), (s * 0.17).cos()]
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f64>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in [Seq2Seq::new(tiny_cfg()), signed] {
            for width in [1usize, 2, 3, 8, 9, 17] {
                for chunk in refs.chunks(width) {
                    let batched = m.predict_batch(chunk).unwrap();
                    assert_eq!(batched.len(), chunk.len());
                    for (lane, seq) in chunk.iter().enumerate() {
                        assert_eq!(
                            bits(&batched[lane]),
                            bits(&m.predict_reference(seq)),
                            "lane {lane} of a width-{width} batch diverged from the reference"
                        );
                    }
                }
            }
        }
        // Any empty lane poisons the whole batch into a typed None.
        let m = Seq2Seq::new(tiny_cfg());
        let with_empty: Vec<&[Vec<f64>]> = vec![&seqs[0], &[]];
        assert_eq!(m.predict_batch(&with_empty), None);
        assert_eq!(m.predict_batch(&[]), Some(Vec::new()));
    }

    #[test]
    #[should_panic]
    fn predict_batch_rejects_a_row_of_the_wrong_width() {
        let m = Seq2Seq::new(tiny_cfg());
        let short: &[Vec<f64>] = &[vec![0.1, 0.2], vec![0.3]];
        m.predict_batch(&[short]);
    }

    #[test]
    fn codec_round_trip_is_bit_identical() {
        let mut m = Seq2Seq::new(tiny_cfg());
        // A trained model has non-initial weights — round-trip those.
        let inputs: Vec<Vec<Vec<f64>>> = (0..8)
            .map(|s| {
                (0..4)
                    .map(|t| vec![(s as f64 + t as f64 * 0.5).sin(), (t as f64).cos()])
                    .collect()
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..3).map(|t| ((s + t) as f64 * 0.25).sin()).collect())
            .collect();
        m.train(&inputs, &targets);

        let mut w = ByteWriter::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = Seq2Seq::decode(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.config(), m.config());
        let xs = vec![vec![0.4, -0.2], vec![0.1, 0.9], vec![-0.3, 0.0]];
        let a = m.predict(&xs);
        let b = restored.predict(&xs);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "decoded model must predict bit-identically"
        );

        // Every truncation must error, never panic.
        for cut in (0..bytes.len()).step_by(41) {
            let mut r = ByteReader::new(&bytes[..cut]);
            let outcome = Seq2Seq::decode(&mut r).and_then(|_| r.finish());
            assert!(outcome.is_err(), "truncation at {cut} bytes must fail");
        }
    }

    /// Gradients of one sample through the lane path, left in `m`'s
    /// accumulators; returns the sample's loss.
    fn lane_gradients(m: &mut Seq2Seq, xs: &[Vec<f64>], ys: &[f64], workers: usize) -> f64 {
        let (inputs, targets) = (vec![xs.to_vec()], vec![ys.to_vec()]);
        let mut lanes = Lanes::new(&m.cfg, &inputs, &targets, workers);
        // With tf = 1.0 the path is deterministic regardless of RNG.
        let mut rng = StdRng::seed_from_u64(99);
        lanes.gradients(m, &[0], &[0], &mut rng)
    }

    /// Full-model finite-difference gradient check of the lane path, with
    /// teacher forcing = 1 (eliminates sampling randomness from the loss).
    #[test]
    fn gradient_check_end_to_end() {
        let cfg = tiny_cfg();
        let mut m = Seq2Seq::new(cfg);
        let xs = vec![vec![0.2, -0.4], vec![0.5, 0.1]];
        let ys = vec![0.3, -0.2, 0.8];

        // The loss of a clone, so probing never touches `m`'s gradients.
        let loss_of = |m: &Seq2Seq| lane_gradients(&mut m.clone(), &xs, &ys, 1);
        lane_gradients(&mut m, &xs, &ys, 2);

        let eps = 1e-6;
        let check = |numeric: f64, analytic: f64, what: &str| {
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "{what}: numeric {numeric} vs analytic {analytic}"
            );
        };
        // Encoder layer-0 weights (tests BPTT through the enc/dec boundary).
        for &idx in &[0usize, 5, 17, 30] {
            let orig = m.enc[0].w.w[idx];
            m.enc[0].w.w[idx] = orig + eps;
            let lp = loss_of(&m);
            m.enc[0].w.w[idx] = orig - eps;
            let lm = loss_of(&m);
            m.enc[0].w.w[idx] = orig;
            check(
                (lp - lm) / (2.0 * eps),
                m.enc[0].w.g[idx],
                &format!("enc w[{idx}]"),
            );
        }
        // Encoder layer-1 biases.
        for &idx in &[0usize, 6, 13] {
            let orig = m.enc[1].b.w[idx];
            m.enc[1].b.w[idx] = orig + eps;
            let lp = loss_of(&m);
            m.enc[1].b.w[idx] = orig - eps;
            let lm = loss_of(&m);
            m.enc[1].b.w[idx] = orig;
            check(
                (lp - lm) / (2.0 * eps),
                m.enc[1].b.g[idx],
                &format!("enc b[{idx}]"),
            );
        }
        // Decoder layer-1 weights.
        for &idx in &[0usize, 9, 25] {
            let orig = m.dec[1].w.w[idx];
            m.dec[1].w.w[idx] = orig + eps;
            let lp = loss_of(&m);
            m.dec[1].w.w[idx] = orig - eps;
            let lm = loss_of(&m);
            m.dec[1].w.w[idx] = orig;
            check(
                (lp - lm) / (2.0 * eps),
                m.dec[1].w.g[idx],
                &format!("dec w[{idx}]"),
            );
        }
        // Output head.
        for &idx in &[0usize, 3] {
            let orig = m.w_out.w[idx];
            m.w_out.w[idx] = orig + eps;
            let lp = loss_of(&m);
            m.w_out.w[idx] = orig - eps;
            let lm = loss_of(&m);
            m.w_out.w[idx] = orig;
            check(
                (lp - lm) / (2.0 * eps),
                m.w_out.g[idx],
                &format!("w_out[{idx}]"),
            );
        }
        let orig = m.b_out.w[0];
        m.b_out.w[0] = orig + eps;
        let lp = loss_of(&m);
        m.b_out.w[0] = orig - eps;
        let lm = loss_of(&m);
        m.b_out.w[0] = orig;
        check((lp - lm) / (2.0 * eps), m.b_out.g[0], "b_out");
    }

    /// Ragged sequences (1–11 steps) of 3 features, with exact zeros, −0.0
    /// and an all-zero history among them, and targets of every sign.
    fn ragged_task(n: usize) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
        let inputs = (0..n)
            .map(|s| {
                (0..1 + s * 7 % 11)
                    .map(|t| match (s + t) % 5 {
                        0 => vec![0.0, -0.0, 0.0],
                        1 if s % 3 == 0 => vec![-0.0, -0.0, -0.0],
                        _ => {
                            let v = (s * 13 + t * 7) as f64;
                            vec![(v * 0.37).sin(), -0.0, (v * 0.11).cos() - 0.5]
                        }
                    })
                    .collect()
            })
            .collect();
        let targets = (0..n)
            .map(|s| (0..3).map(|t| ((s * 3 + t) as f64 * 0.41).sin()).collect())
            .collect();
        (inputs, targets)
    }

    /// Everything a fit leaves behind, as bits: the model file, the epoch
    /// losses and every checkpoint's encoded state.
    type FitBits = (Vec<u8>, Vec<u64>, Vec<Vec<u8>>);

    fn fit_bits(
        cfg: Seq2SeqConfig,
        engine: &mut impl BatchEngine,
        early_stop: (f64, usize),
        resume: Option<Seq2SeqTrainState>,
        checkpoints: &mut Vec<Seq2SeqTrainState>,
    ) -> FitBits {
        let mut m = Seq2Seq::new(cfg);
        let mut states = Vec::new();
        let losses = m.run_epochs(engine, early_stop.0, early_stop.1, resume, 1, |st| {
            let mut w = ByteWriter::new();
            st.encode(&mut w);
            states.push(w.into_bytes());
            checkpoints.push(st.clone());
        });
        let losses = losses.iter().map(|l| l.to_bits()).collect();
        (model_bytes(&m), losses, states)
    }

    /// The lane-parallel trainer is the per-sample reference, bit for bit:
    /// for 1, 2 and 3 workers, minibatches smaller than, equal to and
    /// larger than a lane block, early stopping on and off, and resumed
    /// from every epoch's checkpoint.
    #[test]
    fn lane_training_bit_matches_per_sample_reference() {
        let (inputs, targets) = ragged_task(90);
        for (batch_size, hidden, early_stop) in [
            (1, 3, (0.0, 0)),
            (7, 5, (0.25, 1)),
            (64, 5, (0.0, 0)),
            (64, 4, (0.2, 2)),
        ] {
            let cfg = Seq2SeqConfig {
                input_dim: 3,
                hidden,
                layers: 2,
                horizon: 3,
                epochs: if batch_size == 1 { 2 } else { 4 },
                batch_size,
                lr: 2e-2,
                teacher_forcing: 0.5,
                clip_norm: 1.0,
                seed: 5,
            };
            let what = format!("batch {batch_size}, hidden {hidden}, early stop {early_stop:?}");
            let mut reference = Reference {
                inputs: &inputs,
                targets: &targets,
            };
            let mut checkpoints = Vec::new();
            let want = fit_bits(cfg, &mut reference, early_stop, None, &mut checkpoints);
            for workers in 1..=3 {
                let mut lanes = Lanes::new(&cfg, &inputs, &targets, workers);
                let got = fit_bits(cfg, &mut lanes, early_stop, None, &mut Vec::new());
                assert!(got.0 == want.0, "{what}, {workers} workers: model differs");
                assert_eq!(got.1, want.1, "{what}, {workers} workers: epoch losses");
                assert!(
                    got.2 == want.2,
                    "{what}, {workers} workers: checkpoints differ"
                );
            }
            for st in checkpoints {
                let epochs = st.epochs_done();
                let mut lanes = Lanes::new(&cfg, &inputs, &targets, 2);
                let got = fit_bits(cfg, &mut lanes, early_stop, Some(st), &mut Vec::new());
                assert!(
                    got.0 == want.0,
                    "{what}: resume from epoch {epochs} differs"
                );
                assert_eq!(got.1, want.1, "{what}: resume from epoch {epochs}");
            }
        }
    }

    fn sine_task(n: usize) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for s in 0..n {
            let t0 = s as f64 * 0.37;
            let hist: Vec<Vec<f64>> = (0..6).map(|i| vec![(t0 + i as f64 * 0.5).sin()]).collect();
            let fut: Vec<f64> = (6..9).map(|i| (t0 + i as f64 * 0.5).sin()).collect();
            inputs.push(hist);
            targets.push(fut);
        }
        (inputs, targets)
    }

    fn model_bytes(m: &Seq2Seq) -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 6,
            layers: 2,
            horizon: 3,
            epochs: 9,
            batch_size: 8,
            lr: 5e-3,
            teacher_forcing: 0.6, // partial forcing: the RNG stream matters
            clip_norm: 5.0,
            seed: 11,
        };
        let (inputs, targets) = sine_task(24);
        let mut uninterrupted = Seq2Seq::new(cfg);
        uninterrupted.train(&inputs, &targets);
        let want = model_bytes(&uninterrupted);

        let mut checkpoints = Vec::new();
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, 0.0, 0, None, 2, |st| {
            checkpoints.push(st.clone());
        });
        assert_eq!(model_bytes(&probe), want, "checkpointing must not perturb");
        assert_eq!(checkpoints.len(), 4, "9 epochs / every 2 → 4 checkpoints");
        for st in checkpoints {
            let epochs = st.epochs_done();
            let mut resumed = Seq2Seq::new(cfg);
            resumed.train_resumable(&inputs, &targets, 0.0, 0, Some(st), 0, |_| {});
            assert_eq!(
                model_bytes(&resumed),
                want,
                "resume from epoch {epochs} diverged"
            );
        }
    }

    #[test]
    fn train_state_codec_round_trips_and_resumes_bit_identically() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 5,
            layers: 1,
            horizon: 3,
            epochs: 6,
            batch_size: 8,
            lr: 5e-3,
            teacher_forcing: 0.5,
            clip_norm: 5.0,
            seed: 4,
        };
        let (inputs, targets) = sine_task(20);
        let mut uninterrupted = Seq2Seq::new(cfg);
        uninterrupted.train(&inputs, &targets);
        let want = model_bytes(&uninterrupted);

        let mut saved = None;
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, 0.0, 0, None, 3, |st| {
            saved = Some(st.clone());
        });
        let st = saved.unwrap();
        let mut w = ByteWriter::new();
        st.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = Seq2SeqTrainState::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.epochs_done(), st.epochs_done());

        // The state that crossed the byte boundary resumes identically —
        // Adam moments and step counter included.
        let mut resumed = Seq2Seq::new(cfg);
        resumed.train_resumable(&inputs, &targets, 0.0, 0, Some(decoded), 0, |_| {});
        assert_eq!(model_bytes(&resumed), want);

        // Truncated states fail cleanly.
        for cut in (0..bytes.len()).step_by(37).chain([bytes.len() - 1]) {
            let mut r = ByteReader::new(&bytes[..cut]);
            let outcome = Seq2SeqTrainState::decode(&mut r).and_then(|_| r.finish());
            assert!(outcome.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn early_stopping_restores_best_epoch_and_remains_resumable() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 8,
            layers: 1,
            horizon: 3,
            epochs: 14,
            batch_size: 8,
            lr: 1e-2,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 2,
        };
        let (inputs, targets) = sine_task(28);
        let (val_fraction, patience) = (0.25, 2);

        let mut plain = Seq2Seq::new(cfg);
        let losses =
            plain.train_resumable(&inputs, &targets, val_fraction, patience, None, 0, |_| {});
        assert!(!losses.is_empty());
        let want = model_bytes(&plain);

        // The restored weights really are a validated snapshot: re-scoring
        // the held-out slice beats (or ties) every later epoch by
        // construction, so at minimum the final weights must reproduce the
        // best recorded validation loss.
        let (train_idx, val_idx) = split_validation(inputs.len(), val_fraction, patience);
        assert!(!val_idx.is_empty() && !train_idx.is_empty());
        assert!(val_idx.len() < train_idx.len());

        // Early stopping composes with checkpoint/resume bit-identically.
        let mut checkpoints = Vec::new();
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, val_fraction, patience, None, 3, |st| {
            checkpoints.push(st.clone());
        });
        assert_eq!(model_bytes(&probe), want);
        for st in checkpoints {
            let epochs = st.epochs_done();
            let mut resumed = Seq2Seq::new(cfg);
            resumed.train_resumable(
                &inputs,
                &targets,
                val_fraction,
                patience,
                Some(st),
                0,
                |_| {},
            );
            assert_eq!(
                model_bytes(&resumed),
                want,
                "early-stopped resume from epoch {epochs} diverged"
            );
        }
    }

    #[test]
    fn validation_split_is_deterministic_and_guarded() {
        assert_eq!(split_validation(10, 0.0, 3).1.len(), 0);
        assert_eq!(split_validation(10, 0.25, 0).1.len(), 0);
        assert_eq!(split_validation(3, 0.25, 3).1.len(), 0);
        let (train, val) = split_validation(12, 0.25, 2);
        assert_eq!(val, vec![0, 4, 8]);
        assert_eq!(train.len(), 9);
        // Fractions above one half still leave training data (k >= 2).
        let (train, val) = split_validation(10, 0.9, 2);
        assert!(!train.is_empty() && !val.is_empty());
    }

    #[test]
    fn training_reduces_loss_on_learnable_sequence() {
        // Predict the continuation of a noiseless sine from its history.
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 12,
            layers: 2,
            horizon: 4,
            epochs: 25,
            batch_size: 16,
            lr: 5e-3,
            teacher_forcing: 0.8,
            clip_norm: 5.0,
            seed: 3,
        };
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for s in 0..96 {
            let t0 = s as f64 * 0.37;
            let hist: Vec<Vec<f64>> = (0..8).map(|i| vec![(t0 + i as f64 * 0.5).sin()]).collect();
            let fut: Vec<f64> = (8..12).map(|i| (t0 + i as f64 * 0.5).sin()).collect();
            inputs.push(hist);
            targets.push(fut);
        }
        let mut m = Seq2Seq::new(cfg);
        let losses = m.train(&inputs, &targets);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(
            last < first * 0.35,
            "loss did not drop enough: {first} → {last}"
        );
        // And predictions beat the trivial zero predictor on a held-out phase.
        let hist: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![(100.0 + i as f64 * 0.5).sin()])
            .collect();
        let truth: Vec<f64> = (8..12).map(|i| (100.0f64 + i as f64 * 0.5).sin()).collect();
        let pred = m.predict(&hist);
        let model_mse: f64 = pred
            .iter()
            .zip(&truth)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / 4.0;
        let zero_mse: f64 = truth.iter().map(|t| t * t).sum::<f64>() / 4.0;
        assert!(model_mse < zero_mse, "model {model_mse} vs zero {zero_mse}");
    }
}
