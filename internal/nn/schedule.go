package nn

import (
	"math"
)

// LRSchedule maps an epoch (1-based) to a learning-rate multiplier applied
// to the optimizer's base rate. Schedules let the scaled experiment
// profiles converge in few epochs without touching the paper's Table I
// base rate.
type LRSchedule interface {
	// Factor returns the multiplier for the given epoch and total epochs.
	Factor(epoch, totalEpochs int) float64
}

// CosineDecay anneals the rate from 1 to Floor over the full run.
type CosineDecay struct {
	Floor float64
}

// Factor implements LRSchedule.
func (c CosineDecay) Factor(epoch, totalEpochs int) float64 {
	if totalEpochs <= 1 {
		return 1
	}
	progress := float64(epoch-1) / float64(totalEpochs-1)
	return c.Floor + (1-c.Floor)*0.5*(1+math.Cos(math.Pi*progress))
}

// scalable is implemented by optimizers whose base rate a schedule can
// adjust between epochs.
type scalable interface {
	setLRScale(f float64)
}

// The built-in optimizers store their base rate at construction and apply
// the schedule factor multiplicatively.

func (o *SGD) setLRScale(f float64)     { o.LR = o.baseLR() * f }
func (o *RMSprop) setLRScale(f float64) { o.LR = o.baseLR() * f }
func (o *Adam) setLRScale(f float64)    { o.LR = o.baseLR() * f }

// baseLR lazily captures the construction-time rate.
func (o *SGD) baseLR() float64 {
	if o.base == 0 {
		o.base = o.LR
	}
	return o.base
}

func (o *RMSprop) baseLR() float64 {
	if o.base == 0 {
		o.base = o.LR
	}
	return o.base
}

func (o *Adam) baseLR() float64 {
	if o.base == 0 {
		o.base = o.LR
	}
	return o.base
}
