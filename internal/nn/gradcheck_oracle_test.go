package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// GradCheckResult reports the worst relative error found by CheckGradients,
// split by where it occurred.
type GradCheckResult struct {
	MaxInputErr float64
	MaxParamErr float64
	WorstParam  string
}

// CheckGradients verifies a layer's analytic gradients against central
// finite differences.
//
// It forms the scalar objective L = Σ (Forward(x) ⊙ R) for a fixed random
// projection R (which must have the layer's output shape), computes
// analytic input and parameter gradients via Backward, then compares each
// against (L(θ+ε) − L(θ−ε)) / 2ε. Layers with many parameters are
// subsampled via stride to keep tests fast.
//
// The layer is always run with train=trainMode; layers whose training
// forward pass is stochastic (Dropout) must be checked in eval mode or with
// a pinned mask.
func CheckGradients(layer Layer, x, r *tensor.Tensor, trainMode bool, eps float64, stride int) GradCheckResult {
	if stride < 1 {
		stride = 1
	}
	loss := func() float64 {
		out := layer.Forward(x, trainMode)
		if out.Len() != r.Len() {
			panic(fmt.Sprintf("nn: gradcheck projection has %d elements, output has %d", r.Len(), out.Len()))
		}
		s := 0.0
		od, rd := out.Data(), r.Data()
		for i, v := range od {
			s += v * rd[i]
		}
		return s
	}

	// Analytic pass.
	ZeroGrads(layer.Params())
	_ = loss()
	dx := layer.Backward(r)

	res := GradCheckResult{}

	// Input gradient check.
	xd := x.Data()
	for i := 0; i < len(xd); i += stride {
		orig := xd[i]
		xd[i] = orig + eps
		lp := loss()
		xd[i] = orig - eps
		lm := loss()
		xd[i] = orig
		num := (lp - lm) / (2 * eps)
		if e := relErr(num, dx.Data()[i]); e > res.MaxInputErr {
			res.MaxInputErr = e
		}
	}

	// Parameter gradient check.
	for _, p := range layer.Params() {
		vd := p.Value.Data()
		gd := p.Grad.Data()
		for i := 0; i < len(vd); i += stride {
			orig := vd[i]
			vd[i] = orig + eps
			lp := loss()
			vd[i] = orig - eps
			lm := loss()
			vd[i] = orig
			num := (lp - lm) / (2 * eps)
			if e := relErr(num, gd[i]); e > res.MaxParamErr {
				res.MaxParamErr = e
				res.WorstParam = p.Name
			}
		}
	}
	return res
}

// relErr is a symmetric relative error that degrades gracefully to absolute
// error for tiny magnitudes.
func relErr(a, b float64) float64 {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-6 {
		return diff
	}
	return diff / scale
}

// ZeroGrads clears the gradient of every parameter in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
