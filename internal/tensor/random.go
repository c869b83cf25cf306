package tensor

import (
	"math"
	"math/rand"
)

// RandUniform fills a new tensor of the given shape with samples drawn
// uniformly from [lo, hi) using rng. A nil rng draws nothing and leaves
// the tensor zero: a layer built only to have its weights overwritten
// skips the draw.
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	if rng == nil {
		return t
	}
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*rng.Float64()
	}
	return t
}

// RandNormal fills a new tensor of the given shape with samples from
// N(mean, std²) using rng.
func RandNormal(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + std*rng.NormFloat64()
	}
	return t
}

// GlorotUniform initializes a new tensor with the Glorot/Xavier uniform
// scheme: U(-l, l) with l = sqrt(6 / (fanIn + fanOut)). This is Keras's
// default Dense/Conv initializer, which the paper's implementation uses.
// A nil rng yields zeros, as in RandUniform.
func GlorotUniform(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, -limit, limit, shape...)
}
