package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	mask []bool // true where input > 0 in the last forward pass

	out *tensor.Tensor // reused output buffer (valid until next Forward)
	dx  *tensor.Tensor // reused gradient buffer
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

var _ Layer = (*ReLU)(nil)

// Forward implements Layer.
//
//pelican:noalloc
func (l *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := ensureLike(&l.out, x)
	if cap(l.mask) < x.Len() {
		l.mask = make([]bool, x.Len())
	}
	l.mask = l.mask[:x.Len()]
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
			l.mask[i] = true
		} else {
			od[i] = 0
			l.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
//
//pelican:noalloc
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := ensureLike(&l.dx, grad)
	gd, od := grad.Data(), out.Data()
	for i, g := range gd {
		if l.mask[i] {
			od[i] = g
		} else {
			od[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// LayerName implements Named.
func (l *ReLU) LayerName() string { return "ReLU" }

// sigmoid is the logistic function 1/(1+e^-x), the LSTM's gate activation.
func sigmoid(v float64) float64 { return 1.0 / (1.0 + math.Exp(-v)) }

// hardSigmoid is Keras's piecewise-linear sigmoid approximation,
// max(0, min(1, 0.2x + 0.5)) — the recurrent activation the paper's GRU
// uses.
func hardSigmoid(v float64) float64 {
	y := 0.2*v + 0.5
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

// hardSigmoidGrad is the derivative of hardSigmoid: 0.2 inside the linear
// region (-2.5, 2.5), 0 outside.
func hardSigmoidGrad(v float64) float64 {
	if v > -2.5 && v < 2.5 {
		return 0.2
	}
	return 0
}

// softmaxRow computes a numerically-stable softmax in place.
func softmaxRow(row []float64) {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range row {
		e := math.Exp(v - maxV)
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}
