// Package nn is a from-scratch deep-learning framework: layers with explicit
// forward/backward passes, losses, and gradient-descent optimizers. It
// implements every layer the Pelican paper's networks need — Dense, Conv1D,
// MaxPool1D, GlobalAvgPool1D, BatchNorm, Dropout, GRU, LSTM, activations,
// reshape — plus Sequential and Residual containers.
//
// Data layout conventions:
//   - tabular / dense data: rank-2 tensors (batch, features)
//   - sequence data: rank-3 tensors (batch, timesteps, channels) — "NTC"
//
// Layers cache whatever they need from the last Forward call and consume it
// in Backward; a layer must therefore see Backward at most once per Forward.
// Parameter gradients accumulate into Param.Grad; optimizers zero them after
// each step.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a trainable parameter: its value and the gradient accumulated by
// the most recent backward pass.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter wrapping value with a zeroed gradient of
// the same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable network stage.
//
// Forward computes the layer output for x; train selects training-time
// behaviour (dropout masks, batch statistics). Backward receives dL/d(out)
// and returns dL/d(in), accumulating parameter gradients as a side effect.
// Params returns the trainable parameters (nil for stateless layers).
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Named is implemented by layers that can describe themselves; used in
// network summaries.
type Named interface {
	LayerName() string
}

// ParamCount returns the total number of scalar parameters in params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Len()
	}
	return n
}

// GlobalGradNorm returns the L2 norm of all gradients in params viewed as
// one flat vector.
func GlobalGradNorm(params []*Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. A maxNorm <= 0 disables clipping.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := GlobalGradNorm(params)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// mustRank panics with a descriptive message unless t has the given rank.
func mustRank(layer string, t *tensor.Tensor, rank int) {
	if t.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", layer, rank, t.Shape()))
	}
}
