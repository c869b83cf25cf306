package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Network couples a layer stack with a loss and optimizer and provides the
// training loop used by every experiment in the paper reproduction.
type Network struct {
	Stack *Sequential
	Loss  Loss
	Opt   Optimizer

	params        []*Param // cached parameter list; Params() walks the tree once
	paramsVersion int      // Stack.Version() the cache was built at
}

// NewNetwork constructs a Network.
func NewNetwork(stack *Sequential, loss Loss, opt Optimizer) *Network {
	return &Network{Stack: stack, Loss: loss, Opt: opt}
}

// Params returns the stack's parameters, cached so the per-step optimizer
// update does not rebuild the slice tree. The cache tracks top-level
// Stack.Add calls; mutating nested containers mid-training is not
// supported.
func (n *Network) Params() []*Param {
	if n.params == nil || n.paramsVersion != n.Stack.Version() {
		n.params = n.Stack.Params()
		n.paramsVersion = n.Stack.Version()
	}
	return n.params
}

// TrainBatch runs one optimization step on a batch and returns its loss.
func (n *Network) TrainBatch(x *tensor.Tensor, labels []int) float64 {
	out := n.Stack.Forward(x, true)
	loss := n.Loss.Forward(out, labels)
	n.Stack.Backward(n.Loss.Backward())
	n.Opt.Step(n.Params())
	return loss
}

// EvalLoss computes the mean loss over (x, labels) without training.
func (n *Network) EvalLoss(x *tensor.Tensor, labels []int) float64 {
	out := n.Stack.Forward(x, false)
	return n.Loss.Forward(out, labels)
}

// Predict returns the raw network output (logits) in inference mode.
//
// The returned tensor is a reused layer buffer: it stays valid until the
// next call into this network (Predict, EvalLoss, TrainBatch, ...). Clone
// it to hold the values longer.
func (n *Network) Predict(x *tensor.Tensor) *tensor.Tensor {
	return n.Stack.Forward(x, false)
}

// PredictClasses returns the argmax class per row, evaluating in chunks of
// batchSize to bound memory.
func (n *Network) PredictClasses(x *tensor.Tensor, batchSize int) []int {
	rows := x.Dim(0)
	if batchSize <= 0 || batchSize > rows {
		batchSize = rows
	}
	out := make([]int, 0, rows)
	for lo := 0; lo < rows; lo += batchSize {
		hi := lo + batchSize
		if hi > rows {
			hi = rows
		}
		chunk := sliceBatch(x, lo, hi)
		logits := n.Predict(chunk)
		out = append(out, logits.ArgmaxRow()...)
	}
	return out
}

// sliceBatch returns a zero-copy view of rows [lo, hi) of a rank-2 or
// rank-3 tensor. Batch rows are contiguous along the leading axis, so
// evaluation loops can feed chunks straight from the dataset tensor with no
// gather. Layers only read their inputs, so sharing storage with the
// dataset is safe; TestPredictClassesDoesNotMutateInput pins that contract.
func sliceBatch(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	switch x.Rank() {
	case 2, 3:
		return x.ViewRows(lo, hi)
	default:
		panic(fmt.Sprintf("nn: sliceBatch on rank-%d tensor", x.Rank()))
	}
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TestLoss  float64
	TrainAcc  float64
	TestAcc   float64
}

// FitConfig controls Network.Fit.
type FitConfig struct {
	Epochs    int
	BatchSize int
	Shuffle   bool
	RNG       *rand.Rand
	// TestX/TestLabels, when non-nil, are evaluated after each epoch.
	TestX      *tensor.Tensor
	TestLabels []int
	// Verbose, when non-nil, receives per-epoch stats.
	Verbose func(EpochStats)
	// EvalEvery controls how often test metrics are computed (default 1 =
	// every epoch). Train accuracy is computed from the training predictions
	// at the same cadence.
	EvalEvery int
	// Schedule scales the optimizer's learning rate per epoch (nil keeps
	// the base rate).
	Schedule LRSchedule
	// Patience stops training after this many consecutive epochs without
	// test-loss improvement (0 disables). Requires TestX.
	Patience int
}

// Fit trains the network for cfg.Epochs over (x, labels) and returns
// per-epoch statistics. Inputs may be rank-2 or rank-3 (batch-first). It
// releases tensor.Scratch's pooled tensors on return.
func (n *Network) Fit(x *tensor.Tensor, labels []int, cfg FitConfig) []EpochStats {
	rows := x.Dim(0)
	if cfg.BatchSize <= 0 || cfg.BatchSize > rows {
		cfg.BatchSize = rows
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	// Work on flattened rank-2 view for row shuffling, restore shape per
	// batch.
	var t, c int
	rank3 := x.Rank() == 3
	if rank3 {
		t, c = x.Dim(1), x.Dim(2)
	}
	flat := x
	if rank3 {
		flat = x.Reshape(rows, t*c)
	}

	stats := make([]EpochStats, 0, cfg.Epochs)
	bestTestLoss := math.Inf(1)
	sinceBest := 0
	// Per-batch gather buffers and view header, reused across batches and
	// epochs.
	var bx, feedHdr *tensor.Tensor
	by := make([]int, 0, cfg.BatchSize)
	for ep := 1; ep <= cfg.Epochs; ep++ {
		if cfg.Schedule != nil {
			if s, ok := n.Opt.(scalable); ok {
				s.setLRScale(cfg.Schedule.Factor(ep, cfg.Epochs))
			}
		}
		if cfg.Shuffle && cfg.RNG != nil {
			shuffleOrder(cfg.RNG, order)
		}
		totalLoss, batches := 0.0, 0
		for lo := 0; lo < rows; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > rows {
				hi = rows
			}
			by = gatherBatchInto(&bx, by[:0], flat, labels, order[lo:hi])
			feed := bx
			if rank3 {
				feedHdr = bx.ReshapeInto(feedHdr, hi-lo, t, c)
				feed = feedHdr
			}
			totalLoss += n.TrainBatch(feed, by)
			batches++
		}
		st := EpochStats{Epoch: ep, TrainLoss: totalLoss / float64(batches)}
		if ep%cfg.EvalEvery == 0 || ep == cfg.Epochs {
			if cfg.TestX != nil {
				st.TestLoss = n.evalLossBatched(cfg.TestX, cfg.TestLabels, cfg.BatchSize)
				st.TestAcc = accuracyOf(n.PredictClasses(cfg.TestX, cfg.BatchSize), cfg.TestLabels)
			}
			st.TrainAcc = accuracyOf(n.PredictClasses(x, cfg.BatchSize), labels)
		}
		if cfg.Verbose != nil {
			cfg.Verbose(st)
		}
		stats = append(stats, st)

		if cfg.Patience > 0 && cfg.TestX != nil {
			// Early stopping tracks test loss at the evaluation cadence.
			if ep%cfg.EvalEvery == 0 || ep == cfg.Epochs {
				if st.TestLoss < bestTestLoss-1e-9 {
					bestTestLoss = st.TestLoss
					sinceBest = 0
				} else {
					sinceBest++
					if sinceBest >= cfg.Patience {
						break
					}
				}
			}
		}
	}
	// A schedule scales the LR per epoch; restore the base rate so the
	// final epoch's decay does not leak into later Fit/PartialFit calls on
	// this network.
	if cfg.Schedule != nil {
		if s, ok := n.Opt.(scalable); ok {
			s.setLRScale(1)
		}
	}
	// Training's scratch peak is dead once it returns; a process that
	// goes on to serve or wait should not keep it pooled.
	tensor.Scratch.Release()
	return stats
}

// PartialFit resumes training from the network's current weights — the
// warm-start entry point for online adaptation. Where the usual retraining
// recipe rebuilds the stack (reinitializing every parameter) and calls
// Fit, PartialFit trains the live network in place: no parameter is
// reinitialized, and optimizer state (RMSprop/Adam moment caches)
// accumulated by earlier Fit or PartialFit calls on this network carries
// over, so successive calls over a sliding window implement incremental
// training rather than a sequence of cold starts. Schedules passed in cfg
// scale the LR within this call only; the base rate is restored for the
// next call.
func (n *Network) PartialFit(x *tensor.Tensor, labels []int, cfg FitConfig) []EpochStats {
	return n.Fit(x, labels, cfg)
}

// evalLossBatched computes mean loss over the dataset in batches, weighted
// by batch size.
func (n *Network) evalLossBatched(x *tensor.Tensor, labels []int, batchSize int) float64 {
	rows := x.Dim(0)
	if batchSize <= 0 || batchSize > rows {
		batchSize = rows
	}
	total, count := 0.0, 0
	for lo := 0; lo < rows; lo += batchSize {
		hi := lo + batchSize
		if hi > rows {
			hi = rows
		}
		chunk := sliceBatch(x, lo, hi)
		total += n.EvalLoss(chunk, labels[lo:hi]) * float64(hi-lo)
		count += hi - lo
	}
	return total / float64(count)
}

func accuracyOf(pred, labels []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

func shuffleOrder(rng *rand.Rand, order []int) {
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

// gatherBatchInto copies the selected rows (and labels) into reusable
// buffers: *bx is grown/resized in place, and the gathered labels are
// appended to by and returned (callers must use the returned slice).
func gatherBatchInto(bx **tensor.Tensor, by []int, flat *tensor.Tensor, labels []int, idx []int) []int {
	cols := flat.Dim(1)
	dst := ensure(bx, len(idx), cols)
	tensor.GatherRowsInto(dst, flat, idx)
	for _, r := range idx {
		by = append(by, labels[r])
	}
	return by
}

// NamedTensor is one named float64 array of a network's learned state.
type NamedTensor struct {
	Name  string
	Shape []int
	Data  []float64
}

// State returns a copy of everything a trained network has learned: each
// parameter value in Params order, then each BatchNorm's running mean and
// variance in traversal order. SetState on a network of the same
// architecture restores it exactly.
func (n *Network) State() []NamedTensor {
	var st []NamedTensor
	for _, p := range n.Stack.Params() {
		st = append(st, NamedTensor{p.Name, p.Value.Shape(), append([]float64(nil), p.Value.Data()...)})
	}
	forEachBatchNorm(n.Stack, func(bn *BatchNorm) {
		mean, variance := bn.RunningStats()
		st = append(st, NamedTensor{fmt.Sprintf("bn_mean_%d", bn.C), []int{bn.C}, mean.Data()},
			NamedTensor{fmt.Sprintf("bn_var_%d", bn.C), []int{bn.C}, variance.Data()})
	})
	return st
}

// SetState restores a State. The network must have the same architecture:
// the tensor count, every parameter's shape and every BatchNorm's channel
// count are checked.
func (n *Network) SetState(st []NamedTensor) error {
	params := n.Stack.Params()
	var bns []*BatchNorm
	forEachBatchNorm(n.Stack, func(bn *BatchNorm) { bns = append(bns, bn) })
	if want := len(params) + 2*len(bns); len(st) != want {
		return fmt.Errorf("state has %d tensors, network has %d (%d parameters, %d BatchNorms)", len(st), want, len(params), len(bns))
	}
	for i, p := range params {
		if !slices.Equal(st[i].Shape, p.Value.Shape()) || len(st[i].Data) != p.Value.Len() {
			return fmt.Errorf("parameter %q: state shape %v, network %v", st[i].Name, st[i].Shape, p.Value.Shape())
		}
		copy(p.Value.Data(), st[i].Data)
	}
	for i, bn := range bns {
		mean, variance := st[len(params)+2*i].Data, st[len(params)+2*i+1].Data
		if len(mean) != bn.C || len(variance) != bn.C {
			return fmt.Errorf("BatchNorm %d: state channels %d/%d, network %d", i, len(mean), len(variance), bn.C)
		}
		bn.SetRunningStats(tensor.FromSlice(mean, bn.C), tensor.FromSlice(variance, bn.C))
	}
	return nil
}

// forEachBatchNorm walks the layer tree in deterministic order invoking fn
// on every BatchNorm.
func forEachBatchNorm(l Layer, fn func(*BatchNorm)) {
	switch v := l.(type) {
	case *BatchNorm:
		fn(v)
	case *Sequential:
		for _, c := range v.Layers() {
			forEachBatchNorm(c, fn)
		}
	case *Residual:
		forEachBatchNorm(v.Body, fn)
	case *PreShortcut:
		forEachBatchNorm(v.Head, fn)
		forEachBatchNorm(v.Res, fn)
	}
}
