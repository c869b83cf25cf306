package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer: y = xW + b for rank-2 inputs
// (batch, in) producing (batch, out).
type Dense struct {
	In, Out int
	w       *Param // (in, out)
	b       *Param // (out)
	useBias bool

	x   *tensor.Tensor // cached input
	out *tensor.Tensor // reused output buffer (valid until next Forward)
	dx  *tensor.Tensor // reused input-gradient buffer
}

// NewDense constructs a Dense layer with Glorot-uniform weights and zero
// bias, matching Keras defaults.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		In: in, Out: out,
		w:       NewParam(fmt.Sprintf("dense_w_%dx%d", in, out), tensor.GlorotUniform(rng, in, out, in, out)),
		b:       NewParam(fmt.Sprintf("dense_b_%d", out), tensor.New(out)),
		useBias: true,
	}
}

var _ Layer = (*Dense)(nil)

// Forward implements Layer.
//
//pelican:noalloc
func (l *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank("Dense", x, 2)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Dense expects %d input features, got shape %v", l.In, x.Shape()))
	}
	l.x = x
	out := ensure(&l.out, x.Dim(0), l.Out)
	tensor.MatMulInto(out, x, l.w.Value)
	if l.useBias {
		out.AddRowVec(l.b.Value)
	}
	return out
}

// Backward implements Layer.
//
//pelican:noalloc
func (l *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	mustRank("Dense.Backward", grad, 2)
	// dW += xᵀ @ grad
	dw := tensor.Scratch.Get(l.In, l.Out)
	tensor.MatMulTransAInto(dw, l.x, grad)
	l.w.Grad.Axpy(1, dw)
	tensor.Scratch.Put(dw)
	if l.useBias {
		db := tensor.Scratch.Get(l.Out)
		tensor.SumRowsInto(db, grad)
		l.b.Grad.Axpy(1, db)
		tensor.Scratch.Put(db)
	}
	// dx = grad @ Wᵀ
	dx := ensure(&l.dx, grad.Dim(0), l.In)
	tensor.MatMulTransBInto(dx, grad, l.w.Value)
	return dx
}

// Params implements Layer.
func (l *Dense) Params() []*Param {
	if l.useBias {
		return []*Param{l.w, l.b}
	}
	return []*Param{l.w}
}

// LayerName implements Named.
func (l *Dense) LayerName() string { return fmt.Sprintf("Dense(%d→%d)", l.In, l.Out) }
