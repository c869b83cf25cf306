package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// lstmStep caches one timestep's intermediates for backpropagation through
// time. All tensors are workspace checkouts owned by the layer; they stay
// valid through the matching Backward and are reclaimed at the start of the
// next Forward.
type lstmStep struct {
	hPrev *tensor.Tensor
	cPrev *tensor.Tensor
	i     *tensor.Tensor // input gate
	f     *tensor.Tensor // forget gate
	g     *tensor.Tensor // candidate (tanh)
	o     *tensor.Tensor // output gate
	c     *tensor.Tensor // new cell state
	tc    *tensor.Tensor // tanh(c)
}

// LSTM is a long short-term memory layer over (batch, T, inC) inputs with H
// units: the classical baseline the paper compares against (§V-H). Gates use
// the logistic sigmoid; candidate and output use tanh. The forget-gate bias
// is initialized to 1 (Keras unit_forget_bias).
//
// With ReturnSequences the output is (batch, T, H); otherwise the final
// hidden state (batch, H).
type LSTM struct {
	InC, H          int
	ReturnSequences bool

	w *Param // (inC, 4H): [i | f | g | o]
	u *Param // (H, 4H)
	b *Param // (4H)

	x     *tensor.Tensor
	steps []lstmStep
	lastH *tensor.Tensor // final hidden state of the last pass (workspace)

	outSeq *tensor.Tensor // reused sequence output (valid until next Forward)
	dx     *tensor.Tensor // reused gradient buffer
}

// NewLSTM constructs an LSTM with Glorot-uniform input kernel, orthogonal
// recurrent kernel, zero bias except forget gate = 1.
func NewLSTM(rng *rand.Rand, inC, h int, returnSequences bool) *LSTM {
	u := tensor.New(h, 4*h)
	for g := 0; g < 4; g++ {
		q := orthogonalSquare(rng, h, 1)
		for i := 0; i < h; i++ {
			copy(u.Data()[i*4*h+g*h:i*4*h+(g+1)*h], q.Data()[i*h:(i+1)*h])
		}
	}
	b := tensor.New(4 * h)
	for j := h; j < 2*h; j++ {
		b.Data()[j] = 1 // forget gate bias
	}
	return &LSTM{
		InC: inC, H: h, ReturnSequences: returnSequences,
		w: NewParam(fmt.Sprintf("lstm_w_%dx%d", inC, 4*h), tensor.GlorotUniform(rng, inC, h, inC, 4*h)),
		u: NewParam(fmt.Sprintf("lstm_u_%dx%d", h, 4*h), u),
		b: NewParam(fmt.Sprintf("lstm_b_%d", 4*h), b),
	}
}

var _ Layer = (*LSTM)(nil)

// The gate-column helpers (gateColsInto, setGateCols) are shared with the
// GRU: they read the gate count from the matrix width at runtime.

// reclaimSteps returns the previous pass's step caches to the workspace.
// hPrev/cPrev of step i alias h/c of step i−1, so only step 0's initial
// states and the final hidden state are returned separately.
//
//pelican:noalloc
func (l *LSTM) reclaimSteps() {
	for i := range l.steps {
		st := &l.steps[i]
		if i == 0 {
			tensor.Scratch.Put(st.hPrev)
			tensor.Scratch.Put(st.cPrev)
		} else {
			tensor.Scratch.Put(st.hPrev) // h of step i−1
		}
		tensor.Scratch.Put(st.i)
		tensor.Scratch.Put(st.f)
		tensor.Scratch.Put(st.g)
		tensor.Scratch.Put(st.o)
		tensor.Scratch.Put(st.c)
		tensor.Scratch.Put(st.tc)
	}
	l.steps = l.steps[:0]
	if l.lastH != nil {
		tensor.Scratch.Put(l.lastH)
		l.lastH = nil
	}
}

// Forward implements Layer.
//
//pelican:noalloc
func (l *LSTM) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank("LSTM", x, 3)
	if x.Dim(2) != l.InC {
		panic(fmt.Sprintf("nn: LSTM expects %d input channels, got shape %v", l.InC, x.Shape()))
	}
	l.x = x
	b, t := x.Dim(0), x.Dim(1)
	h := l.H
	l.reclaimSteps()
	if cap(l.steps) < t {
		l.steps = make([]lstmStep, 0, t)
	}

	hPrev := tensor.Scratch.GetZeroed(b, h)
	cPrev := tensor.Scratch.GetZeroed(b, h)
	var outSeq *tensor.Tensor
	if l.ReturnSequences {
		outSeq = ensure(&l.outSeq, b, t, h)
	}

	// Step-scoped temporaries, reused across timesteps.
	xt := tensor.Scratch.Get(b, l.InC)
	a := tensor.Scratch.Get(b, 4*h)
	p := tensor.Scratch.Get(b, 4*h)

	xd := x.Data()
	for ti := 0; ti < t; ti++ {
		for bi := 0; bi < b; bi++ {
			copy(xt.Row(bi), xd[(bi*t+ti)*l.InC:(bi*t+ti+1)*l.InC])
		}
		tensor.MatMulInto(a, xt, l.w.Value) // (B, 4H)
		a.AddRowVec(l.b.Value)
		tensor.MatMulInto(p, hPrev, l.u.Value)
		a.Axpy(1, p)

		ig := tensor.Scratch.Get(b, h)
		fg := tensor.Scratch.Get(b, h)
		gg := tensor.Scratch.Get(b, h)
		og := tensor.Scratch.Get(b, h)
		gateColsInto(ig, a, 0, h)
		gateColsInto(fg, a, 1, h)
		gateColsInto(gg, a, 2, h)
		gateColsInto(og, a, 3, h)
		ig.Apply(sigmoid)
		fg.Apply(sigmoid)
		gg.Apply(math.Tanh)
		og.Apply(sigmoid)

		c := tensor.Scratch.Get(b, h)
		cd, fd, cpd, id, gd2 := c.Data(), fg.Data(), cPrev.Data(), ig.Data(), gg.Data()
		for i := range cd {
			cd[i] = fd[i]*cpd[i] + id[i]*gd2[i]
		}
		tc := tensor.Scratch.Get(b, h)
		tcd := tc.Data()
		for i := range tcd {
			tcd[i] = math.Tanh(cd[i])
		}
		hNew := tensor.Scratch.Get(b, h)
		tensor.MulInto(hNew, og, tc)

		l.steps = append(l.steps, lstmStep{hPrev: hPrev, cPrev: cPrev, i: ig, f: fg, g: gg, o: og, c: c, tc: tc})
		if l.ReturnSequences {
			od := outSeq.Data()
			hd := hNew.Data()
			for bi := 0; bi < b; bi++ {
				copy(od[(bi*t+ti)*h:(bi*t+ti+1)*h], hd[bi*h:(bi+1)*h])
			}
		}
		hPrev, cPrev = hNew, c
	}
	tensor.Scratch.Put(xt)
	tensor.Scratch.Put(a)
	tensor.Scratch.Put(p)
	l.lastH = hPrev
	if l.ReturnSequences {
		return outSeq
	}
	return hPrev
}

// Backward implements Layer.
//
//pelican:noalloc
func (l *LSTM) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b, t := l.x.Dim(0), l.x.Dim(1)
	h := l.H
	dx := ensure(&l.dx, b, t, l.InC)
	dh := tensor.Scratch.GetZeroed(b, h)
	dc := tensor.Scratch.GetZeroed(b, h)
	dhPrev := tensor.Scratch.Get(b, h)
	dcPrev := tensor.Scratch.Get(b, h)

	// Step-scoped temporaries, reused across timesteps.
	do := tensor.Scratch.Get(b, h)
	di := tensor.Scratch.Get(b, h)
	df := tensor.Scratch.Get(b, h)
	dg := tensor.Scratch.Get(b, h)
	dai := tensor.Scratch.Get(b, h)
	daf := tensor.Scratch.Get(b, h)
	dag := tensor.Scratch.Get(b, h)
	dao := tensor.Scratch.Get(b, h)
	da := tensor.Scratch.Get(b, 4*h)
	dW := tensor.Scratch.Get(l.InC, 4*h)
	dU := tensor.Scratch.Get(h, 4*h)
	dbVec := tensor.Scratch.Get(4 * h)
	xt := tensor.Scratch.Get(b, l.InC)
	dxt := tensor.Scratch.Get(b, l.InC)

	gd := grad.Data()
	xd, dxd := l.x.Data(), dx.Data()

	for ti := t - 1; ti >= 0; ti-- {
		st := &l.steps[ti]
		if l.ReturnSequences {
			dhd := dh.Data()
			for bi := 0; bi < b; bi++ {
				src := gd[(bi*t+ti)*h : (bi*t+ti+1)*h]
				dst := dhd[bi*h : (bi+1)*h]
				for i, v := range src {
					dst[i] += v
				}
			}
		} else if ti == t-1 {
			dh.Axpy(1, grad)
		}

		// h = o ⊙ tanh(c)
		tensor.MulInto(do, dh, st.tc)
		dhd, od2, tcd, dcd := dh.Data(), st.o.Data(), st.tc.Data(), dc.Data()
		for i := range dcd {
			dcd[i] += dhd[i] * od2[i] * (1 - tcd[i]*tcd[i])
		}

		// c = f ⊙ cPrev + i ⊙ g
		tensor.MulInto(di, dc, st.g)
		tensor.MulInto(df, dc, st.cPrev)
		tensor.MulInto(dg, dc, st.i)
		tensor.MulInto(dcPrev, dc, st.f)

		// Through gate nonlinearities to pre-activations.
		id, fd, gd2, dod := st.i.Data(), st.f.Data(), st.g.Data(), do.Data()
		daid, dafd, dagd, daod := dai.Data(), daf.Data(), dag.Data(), dao.Data()
		did, dfd, dgd := di.Data(), df.Data(), dg.Data()
		for i := range daid {
			daid[i] = did[i] * id[i] * (1 - id[i])
			dafd[i] = dfd[i] * fd[i] * (1 - fd[i])
			dagd[i] = dgd[i] * (1 - gd2[i]*gd2[i])
			daod[i] = dod[i] * od2[i] * (1 - od2[i])
		}

		setGateCols(da, dai, 0, h)
		setGateCols(da, daf, 1, h)
		setGateCols(da, dag, 2, h)
		setGateCols(da, dao, 3, h)

		for bi := 0; bi < b; bi++ {
			copy(xt.Row(bi), xd[(bi*t+ti)*l.InC:(bi*t+ti+1)*l.InC])
		}
		tensor.MatMulTransAInto(dW, xt, da)
		l.w.Grad.Axpy(1, dW)
		tensor.MatMulTransAInto(dU, st.hPrev, da)
		l.u.Grad.Axpy(1, dU)
		tensor.SumRowsInto(dbVec, da)
		l.b.Grad.Axpy(1, dbVec)

		tensor.MatMulTransBInto(dxt, da, l.w.Value)
		for bi := 0; bi < b; bi++ {
			copy(dxd[(bi*t+ti)*l.InC:(bi*t+ti+1)*l.InC], dxt.Row(bi))
		}

		tensor.MatMulTransBInto(dhPrev, da, l.u.Value)
		dh, dhPrev = dhPrev, dh
		dc, dcPrev = dcPrev, dc
	}

	tensor.Scratch.Put(dh)
	tensor.Scratch.Put(dc)
	tensor.Scratch.Put(dhPrev)
	tensor.Scratch.Put(dcPrev)
	tensor.Scratch.Put(do)
	tensor.Scratch.Put(di)
	tensor.Scratch.Put(df)
	tensor.Scratch.Put(dg)
	tensor.Scratch.Put(dai)
	tensor.Scratch.Put(daf)
	tensor.Scratch.Put(dag)
	tensor.Scratch.Put(dao)
	tensor.Scratch.Put(da)
	tensor.Scratch.Put(dW)
	tensor.Scratch.Put(dU)
	tensor.Scratch.Put(dbVec)
	tensor.Scratch.Put(xt)
	tensor.Scratch.Put(dxt)
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.w, l.u, l.b} }

// LayerName implements Named.
func (l *LSTM) LayerName() string {
	return fmt.Sprintf("LSTM(%d→%d, seq=%v)", l.InC, l.H, l.ReturnSequences)
}
