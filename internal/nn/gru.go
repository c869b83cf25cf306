package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// orthogonalSquare returns an n×n matrix with orthonormal rows/columns,
// built by modified Gram–Schmidt on a random normal matrix and scaled by
// gain. Keras initializes recurrent kernels orthogonally; we do the same
// per gate. A nil rng yields the zero matrix (see tensor.RandUniform).
func orthogonalSquare(rng *rand.Rand, n int, gain float64) *tensor.Tensor {
	if rng == nil {
		return tensor.New(n, n)
	}
	m := tensor.RandNormal(rng, 0, 1, n, n)
	d := m.Data()
	for i := 0; i < n; i++ {
		ri := d[i*n : (i+1)*n]
		// Subtract projections onto previous rows.
		for j := 0; j < i; j++ {
			rj := d[j*n : (j+1)*n]
			dot := 0.0
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			for k := range ri {
				ri[k] -= dot * rj[k]
			}
		}
		norm := 0.0
		for _, v := range ri {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			// Degenerate draw; re-randomize this row deterministically.
			for k := range ri {
				ri[k] = rng.NormFloat64()
			}
			i-- // redo orthogonalization for this row
			continue
		}
		for k := range ri {
			ri[k] = ri[k] / norm * gain
		}
	}
	return m
}

// gruStep caches one timestep's intermediate values for backpropagation
// through time. All tensors are workspace checkouts owned by the layer;
// they stay valid through the matching Backward and are reclaimed at the
// start of the next Forward.
type gruStep struct {
	hPrev *tensor.Tensor // (B, H)
	z     *tensor.Tensor // update gate output
	r     *tensor.Tensor // reset gate output
	hc    *tensor.Tensor // candidate (tanh output)
	az    *tensor.Tensor // update gate pre-activation
	ar    *tensor.Tensor // reset gate pre-activation
	rh    *tensor.Tensor // r ⊙ hPrev
	h     *tensor.Tensor // step output
}

// GRU is a gated recurrent unit over (batch, T, inC) inputs with H hidden
// units, using tanh candidate activation and hard-sigmoid gate activation —
// exactly the configuration the paper specifies (§IV.4). The candidate uses
// the reset_after=False formulation tanh(xW + (r⊙h)U + b), the Keras
// default of the paper's era.
//
// With ReturnSequences the output is (batch, T, H); otherwise it is the
// final hidden state (batch, H).
type GRU struct {
	InC, H          int
	ReturnSequences bool

	w *Param // (inC, 3H): [z | r | h]
	u *Param // (H, 3H)
	b *Param // (3H)

	x     *tensor.Tensor
	steps []gruStep

	outSeq *tensor.Tensor // reused sequence output (valid until next Forward)
	dx     *tensor.Tensor // reused gradient buffer
	uh     *tensor.Tensor // gate-2 recurrent kernel, materialized per pass
	uzr    *tensor.Tensor // gate-0/1 recurrent kernels, materialized per pass
}

// NewGRU constructs a GRU with Glorot-uniform input kernel, orthogonal
// recurrent kernel and zero bias (Keras defaults).
func NewGRU(rng *rand.Rand, inC, h int, returnSequences bool) *GRU {
	u := tensor.New(h, 3*h)
	for g := 0; g < 3; g++ {
		q := orthogonalSquare(rng, h, 1)
		for i := 0; i < h; i++ {
			copy(u.Data()[i*3*h+g*h:i*3*h+(g+1)*h], q.Data()[i*h:(i+1)*h])
		}
	}
	return &GRU{
		InC: inC, H: h, ReturnSequences: returnSequences,
		w: NewParam(fmt.Sprintf("gru_w_%dx%d", inC, 3*h), tensor.GlorotUniform(rng, inC, h, inC, 3*h)),
		u: NewParam(fmt.Sprintf("gru_u_%dx%d", h, 3*h), u),
		b: NewParam(fmt.Sprintf("gru_b_%d", 3*h), tensor.New(3*h)),
	}
}

var _ Layer = (*GRU)(nil)

// gateColsInto copies columns [g*H, (g+1)*H) of a (B, 3H) matrix into dst
// (B, H).
func gateColsInto(dst, m *tensor.Tensor, g, h int) {
	b := m.Dim(0)
	md, od := m.Data(), dst.Data()
	w := m.Dim(1)
	for r := 0; r < b; r++ {
		copy(od[r*h:(r+1)*h], md[r*w+g*h:r*w+(g+1)*h])
	}
}

// gateColsSumInto writes dst = a_gate + p_gate where dst is (B, H) and a
// and p are gate-blocked matrices of possibly different widths (a is
// (B, 3H); p is (B, 2H), holding only the z and r blocks) — the fused
// per-gate pre-activation assembly.
func gateColsSumInto(dst, a, p *tensor.Tensor, g, h int) {
	b := a.Dim(0)
	wa, wp := a.Dim(1), p.Dim(1)
	ad, pd, od := a.Data(), p.Data(), dst.Data()
	for r := 0; r < b; r++ {
		arow := ad[r*wa+g*h : r*wa+(g+1)*h]
		prow := pd[r*wp+g*h : r*wp+(g+1)*h]
		orow := od[r*h : (r+1)*h]
		for i := range orow {
			orow[i] = arow[i] + prow[i]
		}
	}
}

// setGateCols overwrites columns [g*H, (g+1)*H) of dst (B, 3H) with src
// (B, H).
func setGateCols(dst *tensor.Tensor, src *tensor.Tensor, g, h int) {
	b := dst.Dim(0)
	w := dst.Dim(1)
	dd, sd := dst.Data(), src.Data()
	for r := 0; r < b; r++ {
		copy(dd[r*w+g*h:r*w+(g+1)*h], sd[r*h:(r+1)*h])
	}
}

// reclaimSteps returns the previous pass's step caches to the workspace.
// Each step owns its gate tensors and its output h; hPrev of step i aliases
// h of step i−1, so only step 0's initial state is returned separately.
//
//pelican:noalloc
func (l *GRU) reclaimSteps() {
	for i := range l.steps {
		st := &l.steps[i]
		if i == 0 {
			tensor.Scratch.Put(st.hPrev)
		}
		tensor.Scratch.Put(st.z)
		tensor.Scratch.Put(st.r)
		tensor.Scratch.Put(st.hc)
		tensor.Scratch.Put(st.az)
		tensor.Scratch.Put(st.ar)
		tensor.Scratch.Put(st.rh)
		tensor.Scratch.Put(st.h)
	}
	l.steps = l.steps[:0]
}

// uGateInto materializes gate g's recurrent kernel as a contiguous (H, H)
// matrix in dst.
//
//pelican:noalloc
func (l *GRU) uGateInto(dst *tensor.Tensor, g int) *tensor.Tensor {
	h := l.H
	ud, od := l.u.Value.Data(), dst.Data()
	for i := 0; i < h; i++ {
		copy(od[i*h:(i+1)*h], ud[i*3*h+g*h:i*3*h+(g+1)*h])
	}
	return dst
}

// Forward implements Layer.
//
//pelican:noalloc
func (l *GRU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank("GRU", x, 3)
	if x.Dim(2) != l.InC {
		panic(fmt.Sprintf("nn: GRU expects %d input channels, got shape %v", l.InC, x.Shape()))
	}
	l.x = x
	b, t := x.Dim(0), x.Dim(1)
	h := l.H
	l.reclaimSteps()
	if cap(l.steps) < t {
		l.steps = make([]gruStep, 0, t)
	}

	// The candidate's recurrent kernel is used every timestep; materialize
	// it once per pass instead of once per step. The z/r gate blocks are
	// the leading 2H columns of each recurrent-kernel row, materialized as
	// one (H, 2H) matrix so the per-step recurrent GEMM skips the unused
	// candidate block (its recurrent path goes through rh @ U_h instead).
	uh := l.uGateInto(ensure(&l.uh, h, h), 2)
	uzr := ensure(&l.uzr, h, 2*h)
	ud, uzrd := l.u.Value.Data(), uzr.Data()
	for i := 0; i < h; i++ {
		copy(uzrd[i*2*h:(i+1)*2*h], ud[i*3*h:i*3*h+2*h])
	}

	hPrev := tensor.Scratch.GetZeroed(b, h)
	var outSeq *tensor.Tensor
	if l.ReturnSequences {
		outSeq = ensure(&l.outSeq, b, t, h)
	}

	// Step-scoped temporaries, reused across timesteps.
	xt := tensor.Scratch.Get(b, l.InC)
	a := tensor.Scratch.Get(b, 3*h)
	p := tensor.Scratch.Get(b, 2*h)
	ah := tensor.Scratch.Get(b, h)
	ahRec := tensor.Scratch.Get(b, h)

	xd := x.Data()
	for ti := 0; ti < t; ti++ {
		// xt is a strided view: rows are b slices at stride t*inC. Copy into
		// a contiguous (B, inC) matrix for GEMM.
		for bi := 0; bi < b; bi++ {
			copy(xt.Row(bi), xd[(bi*t+ti)*l.InC:(bi*t+ti+1)*l.InC])
		}
		tensor.MatMulInto(a, xt, l.w.Value) // (B, 3H)
		a.AddRowVec(l.b.Value)
		// The recurrent GEMMs against the zero initial state are zero: at
		// ti == 0 the products are zeroed instead of computed, so the sums
		// below are unchanged to the bit.
		if ti > 0 {
			tensor.MatMulInto(p, hPrev, uzr) // (B, 2H): z and r gates only
		} else {
			p.Zero()
		}

		az := tensor.Scratch.Get(b, h)
		gateColsSumInto(az, a, p, 0, h)
		ar := tensor.Scratch.Get(b, h)
		gateColsSumInto(ar, a, p, 1, h)

		z := tensor.Scratch.Get(b, h)
		r := tensor.Scratch.Get(b, h)
		azd, ard, zd, rd := az.Data(), ar.Data(), z.Data(), r.Data()
		for i := range zd {
			zd[i] = hardSigmoid(azd[i])
			rd[i] = hardSigmoid(ard[i])
		}

		rh := tensor.Scratch.Get(b, h)
		tensor.MulInto(rh, r, hPrev)
		gateColsInto(ah, a, 2, h)
		// (r⊙hPrev) @ U_h: U_h is the last gate block of the recurrent kernel.
		if ti > 0 {
			tensor.MatMulInto(ahRec, rh, uh)
		} else {
			ahRec.Zero()
		}
		ah.Axpy(1, ahRec)
		hc := tensor.Scratch.Get(b, h)
		ahd, hcd := ah.Data(), hc.Data()
		for i := range hcd {
			hcd[i] = math.Tanh(ahd[i])
		}

		// h = z⊙hPrev + (1−z)⊙hc
		hNew := tensor.Scratch.Get(b, h)
		hd, hpd := hNew.Data(), hPrev.Data()
		for i := range hd {
			hd[i] = zd[i]*hpd[i] + (1-zd[i])*hcd[i]
		}

		l.steps = append(l.steps, gruStep{hPrev: hPrev, z: z, r: r, hc: hc, az: az, ar: ar, rh: rh, h: hNew})
		if l.ReturnSequences {
			od := outSeq.Data()
			for bi := 0; bi < b; bi++ {
				copy(od[(bi*t+ti)*h:(bi*t+ti+1)*h], hd[bi*h:(bi+1)*h])
			}
		}
		hPrev = hNew
	}
	tensor.Scratch.Put(xt)
	tensor.Scratch.Put(a)
	tensor.Scratch.Put(p)
	tensor.Scratch.Put(ah)
	tensor.Scratch.Put(ahRec)
	if l.ReturnSequences {
		return outSeq
	}
	return hPrev
}

// addUGateGrad accumulates a (H, H) gradient into gate g's block of the
// recurrent kernel gradient.
func (l *GRU) addUGateGrad(g int, dU *tensor.Tensor) {
	h := l.H
	gd, dd := l.u.Grad.Data(), dU.Data()
	for i := 0; i < h; i++ {
		row := gd[i*3*h+g*h : i*3*h+(g+1)*h]
		src := dd[i*h : (i+1)*h]
		for j, v := range src {
			row[j] += v
		}
	}
}

// Backward implements Layer.
//
//pelican:noalloc
func (l *GRU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b, t := l.x.Dim(0), l.x.Dim(1)
	h := l.H
	dx := ensure(&l.dx, b, t, l.InC)
	dh := tensor.Scratch.GetZeroed(b, h) // carry into step ti (dL/dh_ti from future steps)
	dhPrev := tensor.Scratch.Get(b, h)

	// Materialized per-gate recurrent kernels. The candidate kernel l.uh was
	// filled by the preceding Forward and l.u.Value cannot have changed since
	// (the optimizer only steps after Backward), so it is reused as-is; the
	// z/r kernels are only needed here and are materialized per pass.
	uz := l.uGateInto(tensor.Scratch.Get(h, h), 0)
	ur := l.uGateInto(tensor.Scratch.Get(h, h), 1)
	uh := l.uh

	// Step-scoped temporaries, reused across timesteps.
	dz := tensor.Scratch.Get(b, h)
	dhc := tensor.Scratch.Get(b, h)
	dah := tensor.Scratch.Get(b, h)
	drh := tensor.Scratch.Get(b, h)
	dr := tensor.Scratch.Get(b, h)
	daz := tensor.Scratch.Get(b, h)
	dar := tensor.Scratch.Get(b, h)
	rec := tensor.Scratch.Get(b, h)
	da := tensor.Scratch.Get(b, 3*h)
	dU := tensor.Scratch.Get(h, h)
	dW := tensor.Scratch.Get(l.InC, 3*h)
	dbVec := tensor.Scratch.Get(3 * h)
	xt := tensor.Scratch.Get(b, l.InC)
	dxt := tensor.Scratch.Get(b, l.InC)

	gd := grad.Data()
	xd, dxd := l.x.Data(), dx.Data()

	for ti := t - 1; ti >= 0; ti-- {
		st := &l.steps[ti]
		// Add upstream gradient for this step's output.
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

		// Gate gradients.
		dzd, dhcd, dhpd := dz.Data(), dhc.Data(), dhPrev.Data()
		dhd, zd, hpd, hcd := dh.Data(), st.z.Data(), st.hPrev.Data(), st.hc.Data()
		for i := range dhd {
			dzd[i] = dhd[i] * (hpd[i] - hcd[i])
			dhcd[i] = dhd[i] * (1 - zd[i])
			dhpd[i] = dhd[i] * zd[i]
		}

		// Candidate pre-activation.
		dahd := dah.Data()
		for i := range dahd {
			dahd[i] = dhcd[i] * (1 - hcd[i]*hcd[i])
		}
		// At ti == 0, hPrev is the zero initial state: rh, dr and every
		// recurrent kernel gradient are zero, and dhPrev is dh₀, which
		// nothing reads. The six recurrent GEMMs run only for ti > 0.
		if ti > 0 {
			// drh = dah @ U_hᵀ ; dU_h += rhᵀ @ dah
			tensor.MatMulTransBInto(drh, dah, uh)
			tensor.MatMulTransAInto(dU, st.rh, dah)
			l.addUGateGrad(2, dU)

			tensor.MulInto(dr, drh, st.hPrev)
			// dhPrev += drh ⊙ r
			drhd, rd := drh.Data(), st.r.Data()
			for i := range dhpd {
				dhpd[i] += drhd[i] * rd[i]
			}
		} else {
			dr.Zero()
		}

		// Gate pre-activations through hard sigmoid.
		dazd, dard := daz.Data(), dar.Data()
		azd, ard, drd := st.az.Data(), st.ar.Data(), dr.Data()
		for i := range dazd {
			dazd[i] = dzd[i] * hardSigmoidGrad(azd[i])
			dard[i] = drd[i] * hardSigmoidGrad(ard[i])
		}

		// Assemble (B, 3H) pre-activation gradient da = [daz | dar | dah].
		setGateCols(da, daz, 0, h)
		setGateCols(da, dar, 1, h)
		setGateCols(da, dah, 2, h)

		// Input kernel and bias gradients; dx_t = da @ Wᵀ.
		for bi := 0; bi < b; bi++ {
			copy(xt.Row(bi), xd[(bi*t+ti)*l.InC:(bi*t+ti+1)*l.InC])
		}
		tensor.MatMulTransAInto(dW, xt, da)
		l.w.Grad.Axpy(1, dW)
		tensor.SumRowsInto(dbVec, da)
		l.b.Grad.Axpy(1, dbVec)

		tensor.MatMulTransBInto(dxt, da, l.w.Value)
		for bi := 0; bi < b; bi++ {
			copy(dxd[(bi*t+ti)*l.InC:(bi*t+ti+1)*l.InC], dxt.Row(bi))
		}

		// Recurrent contributions to dhPrev from the z and r gates, and
		// recurrent kernel gradients for those gates. Note the candidate
		// gate's recurrent path went through rh (handled above).
		if ti > 0 {
			tensor.MatMulTransBInto(rec, daz, uz)
			dhPrev.Axpy(1, rec)
			tensor.MatMulTransAInto(dU, st.hPrev, daz)
			l.addUGateGrad(0, dU)

			tensor.MatMulTransBInto(rec, dar, ur)
			dhPrev.Axpy(1, rec)
			tensor.MatMulTransAInto(dU, st.hPrev, dar)
			l.addUGateGrad(1, dU)
		}

		dh, dhPrev = dhPrev, dh
	}

	tensor.Scratch.Put(dh)
	tensor.Scratch.Put(dhPrev)
	tensor.Scratch.Put(uz)
	tensor.Scratch.Put(ur)
	tensor.Scratch.Put(dz)
	tensor.Scratch.Put(dhc)
	tensor.Scratch.Put(dah)
	tensor.Scratch.Put(drh)
	tensor.Scratch.Put(dr)
	tensor.Scratch.Put(daz)
	tensor.Scratch.Put(dar)
	tensor.Scratch.Put(rec)
	tensor.Scratch.Put(da)
	tensor.Scratch.Put(dU)
	tensor.Scratch.Put(dW)
	tensor.Scratch.Put(dbVec)
	tensor.Scratch.Put(xt)
	tensor.Scratch.Put(dxt)
	return dx
}

// Params implements Layer.
func (l *GRU) Params() []*Param { return []*Param{l.w, l.u, l.b} }

// LayerName implements Named.
func (l *GRU) LayerName() string {
	return fmt.Sprintf("GRU(%d→%d, seq=%v)", l.InC, l.H, l.ReturnSequences)
}
