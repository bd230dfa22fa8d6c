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
use crate::team::{self, Team};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
        assert!(cfg.batch_size >= 1, "batch_size must be positive");
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
        if cfg.input_dim == 0
            || cfg.hidden == 0
            || cfg.layers == 0
            || cfg.horizon == 0
            || cfg.batch_size == 0
        {
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
    /// Minibatches are trained lane-parallel on one team of up to
    /// `available_parallelism()` workers, kept for the whole fit; the
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
        let workers = team::size(LANE_BLOCK.min(self.cfg.batch_size));
        Lanes::fit(self, inputs, targets, workers, |lanes| {
            run_epochs(
                lanes,
                val_fraction,
                patience,
                resume,
                checkpoint_every,
                on_checkpoint,
            )
        })
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

/// The epoch loop behind [`Seq2Seq::train_resumable`]: shuffling, early
/// stopping, checkpoints and resume, with the model, the minibatch
/// gradients and the validation scores reached through `engine`.
fn run_epochs(
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
    let cfg = engine.with_model(|m| m.cfg);

    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let mut order: Vec<usize> = (0..train_idx.len()).collect();
    let draws_per_epoch = train_idx.len() * cfg.horizon;

    let (mut epoch_losses, mut best, start_epoch) = match resume {
        None => (Vec::with_capacity(cfg.epochs), None, 0),
        Some(st) => {
            assert_eq!(st.model.cfg, cfg, "checkpoint config mismatch on resume");
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
            engine.with_model(|m| *m = st.model);
            (st.epoch_losses, st.best, st.epochs_done)
        }
    };

    for epoch in start_epoch..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            epoch_loss += engine.step(batch, &train_idx, &mut rng);
        }
        epoch_losses.push(epoch_loss / train_idx.len() as f64);

        // Early stopping: score the held-out slice autoregressively
        // (the way the model is served), track the best epoch.
        let mut stop = false;
        if !val_idx.is_empty() {
            let val_loss = engine.validation_loss(&val_idx);
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
                        weights: engine.with_model(|m| m.snapshot_weights()),
                    });
                }
            }
        }

        let done = epoch + 1;
        if !stop
            && checkpoint_every > 0
            && done.is_multiple_of(checkpoint_every)
            && done < cfg.epochs
        {
            on_checkpoint(&Seq2SeqTrainState {
                model: engine.with_model(|m| m.clone()),
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
        engine.with_model(|m| m.restore_weights(&b.weights));
    }
    epoch_losses
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

    /// Run `f` on the model being trained, between optimizer steps.
    fn with_model<R>(&mut self, f: impl FnOnce(&mut Seq2Seq) -> R) -> R;

    /// One optimizer step on the minibatch `batch` (positions in
    /// `train_idx`): draw its teacher-forcing decisions from `rng`,
    /// accumulate its gradients, clip and apply Adam. Returns the summed
    /// per-sample loss.
    fn step(&mut self, batch: &[usize], train_idx: &[usize], rng: &mut StdRng) -> f64;

    /// Mean autoregressive MSE of the model over the samples `val_idx`.
    fn validation_loss(&mut self, val_idx: &[usize]) -> f64;
}

/// Samples per lane block: the lanes of a block run forward and backward
/// in parallel, and the next job adds their gradients in order. Bounds the
/// buffers at any batch size.
const LANE_BLOCK: usize = 16;

/// Gradient rows per accumulation unit, the grain at which workers share
/// out the ordered accumulation. A unit rereads its lanes' `[x; h]` at
/// every step, half of them from the other core's cache, so finer units
/// cost more in all: at hidden 16, 16-row units accumulated ≈30–45% slower
/// than whole 64-row tensors.
const UNIT_ROWS: usize = 64;

/// Lane-parallel minibatch training on one worker team per fit,
/// bit-identical to running BPTT one sample at a time.
///
/// Within a minibatch every sample sees the same weights; samples interact
/// only through the gradient accumulators, and IEEE addition is ordered.
/// So each lane runs one sample's forward and backward into its own
/// buffers — no weight gradient touched — and only then are the
/// contributions `b.g[r] += dz[r]`, `W.g[r][c] += dz[r]·xh[c]` and the
/// head's added in the per-sample order: sample ascending, then step
/// descending. The accumulators are cut into units (up to 64 rows of one LSTM
/// tensor, or the head), and whichever worker claims a unit adds every lane
/// of a block to it in that order, so the order per element holds for any
/// worker count.
///
/// The caller posts one job per lane block: add the block before (run by
/// the previous job, in the other half of the double-buffered lane slots)
/// to the units, then run this block's lanes. A worker that runs out of
/// units goes straight on to lanes, and a descheduled worker's share is
/// left to the others instead of holding up a barrier. The caller writes
/// the minibatch's draws and runs clipping and Adam between jobs, under
/// the write lock of the state that the workers read during them.
///
/// All buffers are sized once per fit and dropped with it; training jobs
/// allocate nothing.
struct Lanes<'a, 'd, 'm> {
    fit: &'a Fit<'d, 'm>,
    team: &'a Team<'a, Scratch, Job>,
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

/// A claimable share of the minibatch's gradient.
enum Unit {
    /// Rows `rows` of `W.g` and `b.g` of LSTM layer `layer`, encoder layers
    /// first.
    Rows {
        layer: usize,
        rows: Range<usize>,
        w: Vec<f64>,
        b: Vec<f64>,
    },
    /// The output head's `w_out.g` and `b_out.g`, and the summed sample
    /// loss.
    Head { w: Vec<f64>, b: f64, loss: f64 },
}

/// A job the caller posts to a fit's team.
#[derive(Clone)]
enum Job {
    /// Add the lanes of minibatch positions `add` (the block before, run by
    /// the previous job) to every unit, then run the lanes of positions
    /// `run`.
    Block {
        add: Range<usize>,
        run: Range<usize>,
    },
    /// Decode the held-out samples, a lane block per claim.
    Validate,
}

/// What a fit's workers share.
struct Fit<'d, 'm> {
    inputs: &'d [Vec<Vec<f64>>],
    targets: &'d [Vec<f64>],
    geo: Geometry,
    /// Lanes per block.
    block: usize,
    state: RwLock<Shared<'m>>,
    /// Two blocks of lane slots: minibatch position `p` runs in slot
    /// `p % (2·block)`, so a block's lanes never overwrite the block that
    /// is being added beside them.
    lanes: Vec<RwLock<Lane>>,
    /// The gradient accumulators, cut into units.
    units: Vec<Mutex<Unit>>,
    /// The next unclaimed lane (or held-out block) and unit of the posted
    /// job. The counters publish no data (lanes and units are handed over
    /// through their locks), so claims are `Relaxed`; the caller resets
    /// them before posting a job, and the post orders the reset before
    /// every claim.
    next_lane: AtomicUsize,
    next_unit: AtomicUsize,
    /// Per-sample validation MSEs, as `f64` bits, by held-out position.
    mse: Vec<AtomicU64>,
}

/// The caller's half of a fit: written between jobs, read during them.
struct Shared<'m> {
    model: &'m mut Seq2Seq,
    /// The samples the posted jobs run: the minibatch's, or the held-out
    /// slice.
    samples: Vec<usize>,
    /// Teacher-forcing decisions of the minibatch, `horizon` per sample.
    forced: Vec<bool>,
}

/// Claim the next of `n` shares from `counter`.
fn claim(counter: &AtomicUsize, n: usize) -> Option<usize> {
    let i = counter.fetch_add(1, Ordering::Relaxed);
    (i < n).then_some(i)
}

impl<'d> Lanes<'_, 'd, '_> {
    /// Run `body` with an engine that trains `model` on `(inputs, targets)`
    /// on one team of `workers` for the whole fit. The helpers are joined
    /// before this returns.
    fn fit<R>(
        model: &mut Seq2Seq,
        inputs: &'d [Vec<Vec<f64>>],
        targets: &'d [Vec<f64>],
        workers: usize,
        body: impl FnOnce(&mut Lanes<'_, 'd, '_>) -> R,
    ) -> R {
        let cfg = model.cfg;
        // Shapes are checked before the team starts, so a bad sample fails
        // here with its own message rather than as a helper's panic.
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
        let block = LANE_BLOCK.min(cfg.batch_size);
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
        let mut units = Vec::new();
        for (layer, cell) in model.enc.iter().chain(&model.dec).enumerate() {
            let cols = cell.input_dim + hd;
            for lo in (0..4 * hd).step_by(UNIT_ROWS) {
                let rows = lo..(lo + UNIT_ROWS).min(4 * hd);
                units.push(Unit::Rows {
                    layer,
                    w: vec![0.0; rows.len() * cols],
                    b: vec![0.0; rows.len()],
                    rows,
                });
            }
        }
        units.push(Unit::Head {
            w: vec![0.0; hd],
            b: 0.0,
            loss: 0.0,
        });
        let fit = Fit {
            inputs,
            targets,
            geo,
            block,
            state: RwLock::new(Shared {
                model,
                samples: Vec::with_capacity(inputs.len()),
                forced: Vec::with_capacity(cfg.batch_size * k),
            }),
            lanes: (0..2 * block).map(|_| RwLock::new(lane())).collect(),
            units: units.into_iter().map(Mutex::new).collect(),
            next_lane: AtomicUsize::new(0),
            next_unit: AtomicUsize::new(0),
            mse: inputs.iter().map(|_| AtomicU64::new(0)).collect(),
        };
        let helpers = |sc: &mut Scratch, job: &Job| fit.work(sc, job, &fit.read());
        let shards = (0..workers).map(|_| scratch()).collect();
        Team::scope(shards, &helpers, |team| {
            body(&mut Lanes { fit: &fit, team })
        })
    }

    /// Post `job` and return when every share of it has run. The caller's
    /// own shares borrow its read guard `st`.
    fn post(&self, job: &Job, st: &Shared<'_>) {
        self.fit.next_lane.store(0, Ordering::Relaxed);
        self.fit.next_unit.store(0, Ordering::Relaxed);
        self.team.run(job, |sc, job| self.fit.work(sc, job, st));
    }

    /// Set the model's gradients to the minibatch's, bit-identically to the
    /// per-sample loop; returns the summed loss.
    fn gradients(&mut self, batch: &[usize], train_idx: &[usize], rng: &mut StdRng) -> f64 {
        let fit = self.fit;
        {
            let mut st = fit.write();
            let p = st.model.cfg.teacher_forcing;
            st.samples.clear();
            st.samples.extend(batch.iter().map(|&o| train_idx[o]));
            // The per-sample loop drew `horizon` values per sample as its
            // decoder ran, sample after sample: the same stream, drawn up
            // front.
            st.forced.clear();
            st.forced
                .extend((0..batch.len() * fit.geo.horizon).map(|_| rng.gen::<f64>() < p));
        }
        {
            let st = fit.read();
            let n = batch.len();
            let mut add = 0..0;
            for lo in (0..n).step_by(fit.block).chain([n]) {
                let run = lo..(lo + fit.block).min(n);
                self.post(
                    &Job::Block {
                        add,
                        run: run.clone(),
                    },
                    &st,
                );
                add = run;
            }
        }
        fit.write().model.load_gradients(&fit.units)
    }
}

impl<'m> Fit<'_, 'm> {
    fn read(&self) -> RwLockReadGuard<'_, Shared<'m>> {
        self.state.read().expect("no fit worker panicked")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Shared<'m>> {
        self.state.write().expect("no fit worker panicked")
    }

    /// A worker's part of `job` on its scratch `sc`. Lanes, units and
    /// held-out blocks are claimed one at a time, so a worker that starts
    /// late or runs slow takes fewer, and whichever worker runs a share
    /// computes the same values.
    fn work(&self, sc: &mut Scratch, job: &Job, st: &Shared<'_>) {
        let model: &Seq2Seq = st.model;
        let k = self.geo.horizon;
        let slot = |p: usize| &self.lanes[p % self.lanes.len()];
        match job {
            Job::Block { add, run } => {
                let units = if add.is_empty() { 0 } else { self.units.len() };
                while let Some(u) = claim(&self.next_unit, units) {
                    let mut unit = self.units[u].lock().expect("no unit worker panicked");
                    if add.start == 0 {
                        // The minibatch's first block: start from +0.0, as
                        // the per-sample loop's `zero_grads` did.
                        unit.zero();
                    }
                    for p in add.clone() {
                        let lane = slot(p).read().expect("no lane worker panicked");
                        model.accumulate_lane(&lane, &self.geo, &mut unit);
                    }
                }
                while let Some(j) = claim(&self.next_lane, run.len()) {
                    let p = run.start + j;
                    let i = st.samples[p];
                    model.run_lane(
                        &self.inputs[i],
                        &self.targets[i],
                        &st.forced[p * k..][..k],
                        &self.geo,
                        &mut slot(p).write().expect("no lane worker panicked"),
                        sc,
                    );
                }
            }
            Job::Validate => {
                let held_out = &st.samples;
                while let Some(c) = claim(&self.next_lane, held_out.len().div_ceil(self.block)) {
                    let lo = c * self.block;
                    let chunk = &held_out[lo..(lo + self.block).min(held_out.len())];
                    let seqs: Vec<&[Vec<f64>]> =
                        chunk.iter().map(|&i| self.inputs[i].as_slice()).collect();
                    let preds = model
                        .predict_batch(&seqs)
                        .expect("cannot predict from an empty sequence");
                    for ((pred, &i), mse) in preds.iter().zip(chunk).zip(&self.mse[lo..]) {
                        let sq = pred
                            .iter()
                            .zip(&self.targets[i])
                            .map(|(p, y)| (p - y) * (p - y))
                            .sum::<f64>();
                        mse.store((sq / k as f64).to_bits(), Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

impl Unit {
    fn zero(&mut self) {
        match self {
            Unit::Rows { w, b, .. } => {
                w.fill(0.0);
                b.fill(0.0);
            }
            Unit::Head { w, b, loss } => {
                w.fill(0.0);
                *b = 0.0;
                *loss = 0.0;
            }
        }
    }
}

impl BatchEngine for Lanes<'_, '_, '_> {
    fn data(&self) -> (&[Vec<Vec<f64>>], &[Vec<f64>]) {
        (self.fit.inputs, self.fit.targets)
    }

    fn with_model<R>(&mut self, f: impl FnOnce(&mut Seq2Seq) -> R) -> R {
        f(self.fit.write().model)
    }

    fn step(&mut self, batch: &[usize], train_idx: &[usize], rng: &mut StdRng) -> f64 {
        let loss = self.gradients(batch, train_idx, rng);
        self.fit
            .write()
            .model
            .clip_and_step(1.0 / batch.len() as f64);
        loss
    }

    /// Decodes the held-out samples across the team, a lane block per
    /// [`Seq2Seq::predict_batch`] call, and sums the per-sample MSEs in
    /// `val_idx` order.
    fn validation_loss(&mut self, val_idx: &[usize]) -> f64 {
        let fit = self.fit;
        {
            let mut st = fit.write();
            st.samples.clear();
            st.samples.extend_from_slice(val_idx);
        }
        self.post(&Job::Validate, &fit.read());
        let mut loss = 0.0;
        for mse in &fit.mse[..val_idx.len()] {
            loss += f64::from_bits(mse.load(Ordering::Relaxed));
        }
        loss / val_idx.len() as f64
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

    /// Add one lane's contributions to `unit`: its rows of one LSTM tensor
    /// over the lane's steps descending, or the output head's and the
    /// lane's loss: the order in which the per-sample loop added them.
    fn accumulate_lane(&self, lane: &Lane, geo: &Geometry, unit: &mut Unit) {
        let (layers, hd) = (geo.layers, geo.hidden);
        match unit {
            Unit::Rows { layer, rows, w, b } => {
                let (cell, l, steps) = if *layer < layers {
                    (&self.enc[*layer], *layer, 0..lane.enc_len)
                } else {
                    let l = *layer - layers;
                    (&self.dec[l], l, lane.enc_len..lane.enc_len + geo.horizon)
                };
                let cols = cell.input_dim + hd;
                for s in steps.rev() {
                    let sl = s * layers + l;
                    accumulate_step(
                        w,
                        b,
                        &lane.dz[sl * 4 * hd..][rows.clone()],
                        &lane.xh[sl * geo.xh_stride..][..cols],
                    );
                }
            }
            Unit::Head { w, b, loss } => {
                *loss += lane.loss;
                for t in (0..geo.horizon).rev() {
                    let dy = lane.dy[t];
                    *b += dy;
                    for (g, &h) in w.iter_mut().zip(&lane.h_top[t * hd..][..hd]) {
                        *g += dy * h;
                    }
                }
            }
        }
    }

    /// Copy the units' sums into the gradient tensors, which they cover;
    /// returns the minibatch's summed loss.
    fn load_gradients(&mut self, units: &[Mutex<Unit>]) -> f64 {
        let (layers, hd) = (self.cfg.layers, self.cfg.hidden);
        let mut loss = 0.0;
        for unit in units {
            match &*unit.lock().expect("no unit worker panicked") {
                Unit::Rows { layer, rows, w, b } => {
                    let cell = match layer.checked_sub(layers) {
                        None => &mut self.enc[*layer],
                        Some(l) => &mut self.dec[l],
                    };
                    let cols = cell.input_dim + hd;
                    cell.w.g[rows.start * cols..rows.end * cols].copy_from_slice(w);
                    cell.b.g[rows.clone()].copy_from_slice(b);
                }
                Unit::Head { w, b, loss: sum } => {
                    self.w_out.g.copy_from_slice(w);
                    self.b_out.g[0] = *b;
                    loss = *sum;
                }
            }
        }
        loss
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
        pub(crate) fn zero_grads(&mut self) {
            for l in self.enc.iter_mut().chain(self.dec.iter_mut()) {
                l.w.zero_grad();
                l.b.zero_grad();
            }
            self.w_out.zero_grad();
            self.b_out.zero_grad();
        }

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
        pub(crate) model: &'d mut Seq2Seq,
        pub(crate) inputs: &'d [Vec<Vec<f64>>],
        pub(crate) targets: &'d [Vec<f64>],
    }

    impl BatchEngine for Reference<'_> {
        fn data(&self) -> (&[Vec<Vec<f64>>], &[Vec<f64>]) {
            (self.inputs, self.targets)
        }

        fn with_model<R>(&mut self, f: impl FnOnce(&mut Seq2Seq) -> R) -> R {
            f(self.model)
        }

        fn step(&mut self, batch: &[usize], train_idx: &[usize], rng: &mut StdRng) -> f64 {
            let model = &mut *self.model;
            model.zero_grads();
            let mut batch_loss = 0.0;
            for &o in batch {
                let i = train_idx[o];
                batch_loss += model.loss_and_grad(&self.inputs[i], &self.targets[i], rng);
            }
            model.clip_and_step(1.0 / batch.len() as f64);
            batch_loss
        }

        fn validation_loss(&mut self, val_idx: &[usize]) -> f64 {
            let mut val_loss = 0.0;
            for &i in val_idx {
                let pred = self.model.predict_reference(&self.inputs[i]);
                val_loss += pred
                    .iter()
                    .zip(&self.targets[i])
                    .map(|(p, y)| (p - y) * (p - y))
                    .sum::<f64>()
                    / self.model.cfg.horizon as f64;
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

    #[test]
    fn degenerate_architectures_are_rejected_on_decode() {
        let mut w = ByteWriter::new();
        Seq2Seq::new(tiny_cfg()).encode(&mut w);
        let model = w.into_bytes();
        let mut w = ByteWriter::new();
        Seq2SeqTrainState {
            model: Seq2Seq::new(tiny_cfg()),
            epochs_done: 1,
            n_samples: 8,
            val_fraction: 0.0,
            patience: 0,
            epoch_losses: vec![0.5],
            best: None,
        }
        .encode(&mut w);
        let state = w.into_bytes();
        // Both start with the architecture's length fields, four bytes
        // each: input_dim, hidden, layers, horizon, epochs, batch_size.
        for (field, at) in [
            ("input_dim", 0),
            ("hidden", 4),
            ("layers", 8),
            ("horizon", 12),
            ("batch_size", 20),
        ] {
            let zeroed = |bytes: &[u8]| {
                let mut bytes = bytes.to_vec();
                bytes[at..at + 4].fill(0);
                bytes
            };
            assert!(
                matches!(
                    Seq2Seq::decode(&mut ByteReader::new(&zeroed(&model))),
                    Err(CodecError::Invalid(_))
                ),
                "{field} = 0 must not decode as a model"
            );
            assert!(
                matches!(
                    Seq2SeqTrainState::decode(&mut ByteReader::new(&zeroed(&state))),
                    Err(CodecError::Invalid(_))
                ),
                "{field} = 0 must not decode as a checkpoint"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn a_zero_batch_size_is_refused_at_construction() {
        Seq2Seq::new(Seq2SeqConfig {
            batch_size: 0,
            ..tiny_cfg()
        });
    }

    /// Gradients of one sample through the lane path on a team of
    /// `workers`, left in `m`'s accumulators; returns the sample's loss.
    fn lane_gradients(m: &mut Seq2Seq, xs: &[Vec<f64>], ys: &[f64], workers: usize) -> f64 {
        let (inputs, targets) = (vec![xs.to_vec()], vec![ys.to_vec()]);
        // With tf = 1.0 the path is deterministic regardless of RNG.
        let mut rng = StdRng::seed_from_u64(99);
        Lanes::fit(m, &inputs, &targets, workers, |lanes| {
            lanes.gradients(&[0], &[0], &mut rng)
        })
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

    /// Fit `cfg` on `task` with the lane trainer on a team of `workers`, or
    /// with the per-sample reference when `workers` is `None`.
    fn fit_bits(
        cfg: Seq2SeqConfig,
        task: &(Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>),
        workers: Option<usize>,
        early_stop: (f64, usize),
        resume: Option<Seq2SeqTrainState>,
        checkpoints: &mut Vec<Seq2SeqTrainState>,
    ) -> FitBits {
        let (inputs, targets) = task;
        let mut m = Seq2Seq::new(cfg);
        let mut states = Vec::new();
        let on_checkpoint = |st: &Seq2SeqTrainState| {
            let mut w = ByteWriter::new();
            st.encode(&mut w);
            states.push(w.into_bytes());
            checkpoints.push(st.clone());
        };
        let (val_fraction, patience) = early_stop;
        let losses = match workers {
            None => {
                let mut reference = Reference {
                    model: &mut m,
                    inputs,
                    targets,
                };
                run_epochs(
                    &mut reference,
                    val_fraction,
                    patience,
                    resume,
                    1,
                    on_checkpoint,
                )
            }
            Some(workers) => Lanes::fit(&mut m, inputs, targets, workers, |lanes| {
                run_epochs(lanes, val_fraction, patience, resume, 1, on_checkpoint)
            }),
        };
        let losses = losses.iter().map(|l| l.to_bits()).collect();
        (model_bytes(&m), losses, states)
    }

    /// The lane-parallel trainer is the per-sample reference, bit for bit:
    /// for teams of 1, 2, 3, 4 and 9 workers (at hidden 3, more workers
    /// than accumulation units; at hidden 17, two units per tensor),
    /// minibatches smaller than, equal to and larger than a lane block, a
    /// last minibatch shorter than the team, early stopping on and off,
    /// and resumed from every epoch's checkpoint.
    #[test]
    fn lane_training_bit_matches_per_sample_reference() {
        let task = ragged_task(90);
        for (batch_size, hidden, early_stop) in [
            (1, 3, (0.0, 0)),
            (7, 5, (0.25, 1)),
            (22, 3, (0.0, 0)),
            (64, 5, (0.0, 0)),
            (64, 4, (0.2, 2)),
            (40, 17, (0.0, 0)),
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
            let mut checkpoints = Vec::new();
            let want = fit_bits(cfg, &task, None, early_stop, None, &mut checkpoints);
            for workers in [1, 2, 3, 4, 9] {
                let got = fit_bits(cfg, &task, Some(workers), early_stop, None, &mut Vec::new());
                assert!(got.0 == want.0, "{what}, {workers} workers: model differs");
                assert_eq!(got.1, want.1, "{what}, {workers} workers: epoch losses");
                assert!(
                    got.2 == want.2,
                    "{what}, {workers} workers: checkpoints differ"
                );
            }
            for st in checkpoints {
                let epochs = st.epochs_done();
                let got = fit_bits(cfg, &task, Some(2), early_stop, Some(st), &mut Vec::new());
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
