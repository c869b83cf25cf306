package models

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestNilRNGBuildIsRestoredBitIdentically guards the artifact load path,
// which builds with a nil weight rng and then overwrites every weight. For
// every registered model:
//   - Build(nil, …) draws nothing: each parameter a seeded build draws is
//     zero, and each constant one (BatchNorm scale, LSTM forget bias)
//     equals the seeded build's;
//   - restored from one state, a nil-built and a seeded network hold a
//     bit-identical State and give bit-identical Predict and compiled-plan
//     output.
//
// A layer constructor that ignores a nil rng panics or breaks one of these.
func TestNilRNGBuildIsRestoredBitIdentically(t *testing.T) {
	const features, classes, rows = 8, 3, 5
	cfg := smallCfg()
	x := tensor.RandNormal(rand.New(rand.NewSource(3)), 0, 1, rows, 1, features)
	x32 := make([]float32, x.Len())
	for i, v := range x.Data() {
		x32[i] = float32(v)
	}
	for _, name := range Names() {
		spec, _ := Lookup(name)
		build := func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork(spec.Build(rng, rand.New(rand.NewSource(2)), cfg, features, classes),
				nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
		}
		seeded := build(rand.New(rand.NewSource(1)))
		other := build(rand.New(rand.NewSource(7)))
		bare := build(nil)

		sp, op, bp := seeded.Stack.Params(), other.Stack.Params(), bare.Stack.Params()
		for i, p := range bp {
			drawn := !slices.Equal(sp[i].Value.Data(), op[i].Value.Data())
			for j, v := range p.Value.Data() {
				if drawn && v != 0 || !drawn && v != sp[i].Value.Data()[j] {
					t.Fatalf("%s: parameter %q[%d] = %g in a nil-rng build (drawn by a seeded one: %v)", name, p.Name, j, v, drawn)
				}
			}
		}

		// One state that no initialiser produces, with positive variances.
		st := other.State()
		for i := range st {
			for j := range st[i].Data {
				if strings.HasPrefix(st[i].Name, "bn_var") {
					st[i].Data[j] = 0.5 + float64((5*i+j)%7)/8
				} else {
					st[i].Data[j] = float64((7*i+3*j)%17-8) / 16
				}
			}
		}
		for _, n := range []*nn.Network{seeded, bare} {
			if err := n.SetState(st); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		ss, bs := seeded.State(), bare.State()
		for i := range ss {
			if ss[i].Name != bs[i].Name || !sameBits(ss[i].Data, bs[i].Data) {
				t.Fatalf("%s: restored state tensor %d (%s) differs between nil-rng and seeded builds", name, i, ss[i].Name)
			}
		}
		if !sameBits(seeded.Predict(x).Data(), bare.Predict(x).Data()) {
			t.Fatalf("%s: Predict differs between nil-rng and seeded builds", name)
		}

		var out [2][]float32
		for i, n := range []*nn.Network{seeded, bare} {
			plan, err := infer.Compile(n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[i] = plan.NewEngine().Forward(x32, rows)
		}
		sOut, bOut := out[0], out[1]
		for i := range sOut {
			if math.Float32bits(sOut[i]) != math.Float32bits(bOut[i]) {
				t.Fatalf("%s: compiled engine logit %d differs: seeded %g, nil-rng %g", name, i, sOut[i], bOut[i])
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
