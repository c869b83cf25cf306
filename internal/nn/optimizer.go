package nn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and then
// zeroes the gradients.
type Optimizer interface {
	Step(params []*Param)
}

// paramState keys per-parameter optimizer state by the parameter pointer.
type paramState map[*Param]*tensor.Tensor

func (s paramState) get(p *Param) *tensor.Tensor {
	st, ok := s[p]
	if !ok {
		st = tensor.New(p.Value.Shape()...)
		s[p] = st
	}
	return st
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	MaxNorm  float64 // global gradient-norm clip; <= 0 disables

	base     float64 // construction-time LR, captured for schedules
	velocity paramState
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: paramState{}}
}

var _ Optimizer = (*SGD)(nil)

// Step implements Optimizer.
func (o *SGD) Step(params []*Param) {
	ClipGradNorm(params, o.MaxNorm)
	for _, p := range params {
		if o.Momentum > 0 {
			v := o.velocity.get(p)
			vd, gd, wd := v.Data(), p.Grad.Data(), p.Value.Data()
			for i := range vd {
				vd[i] = o.Momentum*vd[i] - o.LR*gd[i]
				wd[i] += vd[i]
			}
		} else {
			p.Value.Axpy(-o.LR, p.Grad)
		}
		p.ZeroGrad()
	}
}

// RMSprop is the optimizer the paper trains every network with (§V-C,
// Table I: learning rate 0.01). It divides the gradient by a running
// average of its recent magnitude.
type RMSprop struct {
	LR      float64
	Rho     float64
	Eps     float64
	MaxNorm float64 // global gradient-norm clip; <= 0 disables

	base  float64 // construction-time LR, captured for schedules
	cache paramState
}

// NewRMSprop constructs an RMSprop optimizer with Keras defaults
// (rho 0.9, eps 1e-7).
func NewRMSprop(lr float64) *RMSprop {
	return &RMSprop{LR: lr, Rho: 0.9, Eps: 1e-7, cache: paramState{}}
}

var _ Optimizer = (*RMSprop)(nil)

// Step implements Optimizer.
func (o *RMSprop) Step(params []*Param) {
	ClipGradNorm(params, o.MaxNorm)
	for _, p := range params {
		c := o.cache.get(p)
		cd, gd, wd := c.Data(), p.Grad.Data(), p.Value.Data()
		for i := range cd {
			g := gd[i]
			cd[i] = o.Rho*cd[i] + (1-o.Rho)*g*g
			wd[i] -= o.LR * g / (math.Sqrt(cd[i]) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// Adam is the adaptive-moment optimizer, provided for ablations.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	MaxNorm float64

	base float64 // construction-time LR, captured for schedules
	m, v paramState
	t    int
}

// NewAdam constructs an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, m: paramState{}, v: paramState{}}
}

var _ Optimizer = (*Adam)(nil)

// Step implements Optimizer.
func (o *Adam) Step(params []*Param) {
	ClipGradNorm(params, o.MaxNorm)
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m.get(p)
		v := o.v.get(p)
		md, vd, gd, wd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		for i := range md {
			g := gd[i]
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			wd[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
		p.ZeroGrad()
	}
}
