package nn

import (
	"math"

	"repro/internal/tensor"
)

// Tanh is the hyperbolic-tangent activation. No model in the zoo builds it
// and infer.Compile would reject it; it lives here as the smooth
// nonlinearity the gradient checks compose stacks, residuals and
// shortcuts with (ReLU's kink defeats a finite-difference check).
type Tanh struct {
	out *tensor.Tensor // reused output, also the backward cache
	dx  *tensor.Tensor
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (l *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := ensureLike(&l.out, x)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		od[i] = math.Tanh(v)
	}
	return out
}

// Backward implements Layer.
func (l *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := ensureLike(&l.dx, grad)
	gd, od, yd := grad.Data(), out.Data(), l.out.Data()
	for i, g := range gd {
		od[i] = g * (1 - yd[i]*yd[i])
	}
	return out
}

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// LayerName implements Named.
func (l *Tanh) LayerName() string { return "Tanh" }
