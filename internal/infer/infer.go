// Package infer is a compiled float32 inference engine for trained
// networks: nn layer stacks are lowered once (Compile) into a flat []step
// plan over float32 weights packed at compile time into the GEMM's
// 32-column panels (tensor.PackPanelsF32), and serving scores through the
// plan thereafter instead of walking the float64 training graph.
//
// Lowering specializes for the serving input shape (batch, 1, features) —
// every flow record is a single timestep, so rank-3 (B, 1, C) activations
// are plain (B, C) matrices throughout. That single fact buys most of the
// plan's compression:
//
//   - BatchNorm (inference mode) is a per-channel affine y = x·scale+shift;
//     when it immediately precedes a layer whose input transform is a GEMM
//     (Dense, Conv1D, GRU, LSTM) it folds into that layer's weights and
//     bias and vanishes from the plan. The only BNs that survive as affine
//     steps are the ones whose output feeds a residual shortcut as well.
//   - Conv1D at T=1 has exactly one contributing kernel tap, so it lowers
//     to a single GEMM over that tap's (inC, outC) slab.
//   - GRU/LSTM at T=1 start from zero state: the recurrent kernel never
//     contributes, the GRU reset gate and the LSTM forget gate are dead,
//     and the input transform packs down to the 2-of-3 / 3-of-4 live gate
//     blocks — one narrowed GEMM plus a fused gate-combine pass.
//   - MaxPool1D, GlobalAvgPool1D, Reshape, Flatten and Dropout are
//     identities at T=1 and emit nothing.
//   - Bias adds and ReLU run in the GEMM epilogue (tensor.GemmBiasActF32),
//     never as separate passes over the activation tensor.
//
// A Plan is immutable and shared; each replica runs it through its own
// Engine, which owns one pre-sized float32 arena and allocates nothing per
// call in steady state.
package infer

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// op is a step opcode.
type op uint8

const (
	// opGemm: buf[dst] = act(buf[src] @ w + bias).
	opGemm op = iota
	// opAffine: buf[dst][r][c] = buf[src][r][c]·scale[c] + shift[c].
	opAffine
	// opAdd: buf[dst] = buf[src] + buf[src2] (equal widths).
	opAdd
	// opGRUGate: buf[src] is (B, 2H) pre-activations [z | h~];
	// buf[dst][r][j] = (1 − hardsig(z_j))·tanh(h~_j).
	opGRUGate
	// opLSTMGate: buf[src] is (B, 3H) pre-activations [i | g | o];
	// buf[dst][r][j] = sig(o_j)·tanh(sig(i_j)·tanh(g_j)).
	opLSTMGate
	// opRelu: buf[dst] = max(0, buf[src]) — a standalone ReLU that could
	// not fuse into a GEMM epilogue.
	opRelu
)

// step is one compiled instruction. src/src2/dst index Plan.widths; the
// weight and bias slices are owned by the Plan and never written after
// Compile.
type step struct {
	op   op
	src  int
	src2 int
	dst  int

	w    []float32 // opGemm: (widths[src], widths[dst]) in tensor.PackPanelsF32's 32-column panels
	bias []float32 // opGemm: length widths[dst], nil for no bias
	act  tensor.Act

	scale, shift []float32 // opAffine
}

// Plan is a compiled, immutable inference program: the step list, the
// per-row width of every intermediate buffer, and all weights pre-packed
// as float32. Plans are safe for concurrent use; run them through
// per-replica Engines.
type Plan struct {
	features int
	classes  int
	widths   []int // per-row width of each buffer; buffer 0 is the input
	steps    []step
}

// Compile lowers a trained network into a float32 inference plan. The plan
// is specialized for single-timestep inputs (batch, 1, features) — the
// serving shape every registry model consumes. Layers or configurations
// the lowering cannot express return an error (nothing is partially
// compiled).
func Compile(net *nn.Network) (*Plan, error) { return CompileStack(net.Stack) }

// CompileStack is Compile for a bare layer stack.
func CompileStack(stack *nn.Sequential) (*Plan, error) {
	features, err := inputWidth(stack)
	if err != nil {
		return nil, err
	}
	c := &compiler{p: &Plan{features: features}}
	c.cur = c.newBuf(features)
	if err := c.lowerSeq(stack.Layers()); err != nil {
		return nil, err
	}
	if len(c.p.steps) == 0 {
		return nil, fmt.Errorf("infer: stack lowered to an empty plan")
	}
	c.p.classes = c.p.widths[c.cur]
	c.p.compactBuffers()
	return c.p, nil
}

// compactBuffers recycles intermediate buffers by liveness: lowering
// emits one fresh buffer per step (SSA-like), but once a value's last
// reader has run its storage can back a later step's output. On
// Residual-41 this shrinks the arena from ~50 buffers to the handful
// live at once (the ping-pong pair plus pinned shortcut values), keeping
// the activation working set cache-resident on this memory-bound
// workload. Buffer 0 (the input) is never recycled — Engine.In callers
// may Run the same fill repeatedly.
func (p *Plan) compactBuffers() {
	n := len(p.widths)
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for i := range p.steps {
		s := &p.steps[i]
		lastUse[s.src] = i
		if s.op == opAdd {
			lastUse[s.src2] = i
		}
	}
	diesAt := make([][]int, len(p.steps))
	for l := 1; l < n; l++ { // buffer 0 stays pinned
		if i := lastUse[l]; i >= 0 {
			diesAt[i] = append(diesAt[i], l)
		}
	}

	free := map[int][]int{} // width → dead physical buffer ids
	var phys []int          // physical buffer widths
	mapTo := make([]int, n) // logical → physical
	alloc := func(w int) int {
		if lst := free[w]; len(lst) > 0 {
			id := lst[len(lst)-1]
			free[w] = lst[:len(lst)-1]
			return id
		}
		phys = append(phys, w)
		return len(phys) - 1
	}
	mapTo[0] = alloc(p.widths[0])
	for i := range p.steps {
		s := &p.steps[i]
		s.src = mapTo[s.src]
		if s.op == opAdd {
			s.src2 = mapTo[s.src2]
		}
		// The output buffer is allocated before this step's dead values are
		// released, so a step's dst can never alias a buffer it still reads.
		d := alloc(p.widths[s.dst])
		mapTo[s.dst] = d
		s.dst = d
		for _, l := range diesAt[i] {
			free[p.widths[l]] = append(free[p.widths[l]], mapTo[l])
		}
	}
	p.widths = phys
}

// Features returns the input width the plan consumes.
func (p *Plan) Features() int { return p.features }

// Classes returns the output (logit) width the plan produces.
func (p *Plan) Classes() int { return p.classes }

// Steps returns the number of compiled steps.
func (p *Plan) Steps() int { return len(p.steps) }

// WeightBytes returns the total bytes of packed weights, biases and affine
// constants the plan streams per forward pass.
func (p *Plan) WeightBytes() int64 {
	var n int64
	for i := range p.steps {
		s := &p.steps[i]
		n += int64(len(s.w)+len(s.bias)+len(s.scale)+len(s.shift)) * 4
	}
	return n
}

// ActivationBytes returns the activation bytes streamed per forward pass
// at the given batch size: every step's operand reads plus output write.
func (p *Plan) ActivationBytes(rows int) int64 {
	var w int64
	for i := range p.steps {
		s := &p.steps[i]
		w += int64(p.widths[s.src]) + int64(p.widths[s.dst])
		if s.op == opAdd {
			w += int64(p.widths[s.src2])
		}
	}
	return w * int64(rows) * 4
}

// compiler accumulates the plan while walking the layer tree.
type compiler struct {
	p   *Plan
	cur int // buffer holding the current value
}

// newBuf registers a buffer of the given per-row width and returns its id.
func (c *compiler) newBuf(width int) int {
	c.p.widths = append(c.p.widths, width)
	return len(c.p.widths) - 1
}

// width returns the current value's per-row width.
func (c *compiler) width() int { return c.p.widths[c.cur] }

// inputWidth infers the model's input feature width from the first
// width-bearing layer in the stack.
func inputWidth(l nn.Layer) (int, error) {
	switch v := l.(type) {
	case *nn.BatchNorm:
		return v.C, nil
	case *nn.Conv1D:
		return v.InC, nil
	case *nn.Dense:
		return v.In, nil
	case *nn.GRU:
		return v.InC, nil
	case *nn.LSTM:
		return v.InC, nil
	case *nn.Sequential:
		for _, ch := range v.Layers() {
			if w, err := inputWidth(ch); err == nil {
				return w, nil
			}
		}
	case *nn.Residual:
		return inputWidth(v.Body)
	case *nn.PreShortcut:
		if w, err := inputWidth(v.Head); err == nil {
			return w, nil
		}
		return inputWidth(v.Res)
	}
	return 0, fmt.Errorf("infer: cannot infer input width from %T", l)
}

// bnAffine extracts a BatchNorm's inference-mode per-channel affine:
// y = x·scale + shift with scale = γ/√(var+ε), shift = β − mean·scale.
// Computed in float64; narrowing happens at pack time.
func bnAffine(l *nn.BatchNorm) (scale, shift []float64) {
	params := l.Params() // [gamma, beta]
	gamma, beta := params[0].Value.Data(), params[1].Value.Data()
	mean, variance := l.RunningStats()
	md, vd := mean.Data(), variance.Data()
	scale = make([]float64, l.C)
	shift = make([]float64, l.C)
	for i := 0; i < l.C; i++ {
		scale[i] = gamma[i] / math.Sqrt(vd[i]+l.Eps)
		shift[i] = beta[i] - md[i]*scale[i]
	}
	return scale, shift
}

// foldAffineIntoGEMM rewrites a GEMM y = xW + b so that it consumes the
// raw input of a preceding per-channel affine x' = x·scale + shift:
// W'[i][j] = scale[i]·W[i][j] and b'[j] = b[j] + Σ_i shift[i]·W[i][j].
// w is row-major (k, n) and is modified in place; the returned bias is a
// fresh slice (b may be nil for a bias-free GEMM). All math is float64 —
// the fold is exact; only the final pack narrows to float32.
func foldAffineIntoGEMM(scale, shift, w, b []float64, k, n int) []float64 {
	bias := make([]float64, n)
	copy(bias, b)
	for i := 0; i < k; i++ {
		row := w[i*n : (i+1)*n]
		s, sh := scale[i], shift[i]
		for j := range row {
			bias[j] += sh * row[j]
			row[j] *= s
		}
	}
	return bias
}

// packF32 narrows a float64 slice to a fresh float32 slice.
func packF32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// emitGemm appends a GEMM step consuming the current buffer. w and b are
// float64 working copies (w row-major k×n, b may be nil); scale/shift,
// when non-nil, are a preceding BatchNorm's affine folded in first. The
// step holds w narrowed to float32 in the GEMM's panel layout.
func (c *compiler) emitGemm(w, b, scale, shift []float64, k, n int, act tensor.Act) {
	if scale != nil {
		b = foldAffineIntoGEMM(scale, shift, w, b, k, n)
	}
	dst := c.newBuf(n)
	var bias []float32
	if b != nil {
		bias = packF32(b)
	}
	c.p.steps = append(c.p.steps, step{op: opGemm, src: c.cur, dst: dst, w: tensor.PackPanelsF32(w, k, n), bias: bias, act: act})
	c.cur = dst
}

// lowerSeq lowers a Sequential's child list. It owns the index so it can
// peephole: BatchNorm folds into a directly-following GEMM layer, and a
// ReLU directly after a Conv1D/Dense fuses into that GEMM's epilogue.
func (c *compiler) lowerSeq(layers []nn.Layer) error {
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.BatchNorm:
			if err := c.checkWidth("BatchNorm", l.C); err != nil {
				return err
			}
			scale, shift := bnAffine(l)
			if i+1 < len(layers) {
				if consumed, err := c.lowerGemmLayer(layers, i+1, scale, shift); err != nil {
					return err
				} else if consumed > 0 {
					i += consumed
					continue
				}
			}
			dst := c.newBuf(l.C)
			c.p.steps = append(c.p.steps, step{op: opAffine, src: c.cur, dst: dst, scale: packF32(scale), shift: packF32(shift)})
			c.cur = dst

		case *nn.Dense, *nn.Conv1D, *nn.GRU, *nn.LSTM:
			consumed, err := c.lowerGemmLayer(layers, i, nil, nil)
			if err != nil {
				return err
			}
			i += consumed - 1

		case *nn.ReLU:
			// Not directly after a Conv1D/Dense (those fuse the ReLU into
			// their GEMM epilogue): one dedicated clamp pass.
			dst := c.newBuf(c.width())
			c.p.steps = append(c.p.steps, step{op: opRelu, src: c.cur, dst: dst})
			c.cur = dst

		case *nn.MaxPool1D:
			// T=1: ceil(1/pool) = 1 output step over a single input step.
			if l.Pool < 1 {
				return fmt.Errorf("infer: MaxPool1D pool %d", l.Pool)
			}
		case *nn.GlobalAvgPool1D, *nn.Reshape, *nn.Flatten, *nn.Dropout:
			// Identities at T=1 (mean/flatten over one timestep; dropout is
			// inference-off).

		case *nn.Sequential:
			if err := c.lowerSeq(l.Layers()); err != nil {
				return err
			}
		case *nn.Residual:
			if err := c.lowerResidual(l); err != nil {
				return err
			}
		case *nn.PreShortcut:
			// The Head's output feeds both the body and the shortcut add, so
			// it cannot fold into the body's first GEMM; it stays an explicit
			// step whose buffer the add re-reads.
			if err := c.lowerSeq([]nn.Layer{l.Head}); err != nil {
				return err
			}
			if err := c.lowerResidual(l.Res); err != nil {
				return err
			}

		default:
			return fmt.Errorf("infer: unsupported layer %T", layers[i])
		}
	}
	return nil
}

// lowerResidual lowers out = body(cur) + cur.
func (c *compiler) lowerResidual(r *nn.Residual) error {
	short := c.cur
	if err := c.lowerSeq([]nn.Layer{r.Body}); err != nil {
		return err
	}
	if c.width() != c.p.widths[short] {
		return fmt.Errorf("infer: residual body changed width %d → %d", c.p.widths[short], c.width())
	}
	dst := c.newBuf(c.width())
	c.p.steps = append(c.p.steps, step{op: opAdd, src: c.cur, src2: short, dst: dst})
	c.cur = dst
	return nil
}

// checkWidth verifies the current value's width matches what a layer
// expects.
func (c *compiler) checkWidth(name string, want int) error {
	if c.width() != want {
		return fmt.Errorf("infer: %s expects width %d, current value has width %d", name, want, c.width())
	}
	return nil
}

// lowerGemmLayer lowers layers[i] when it is one of the GEMM-backed layers
// (Dense, Conv1D, GRU, LSTM), folding in the optional preceding BatchNorm
// affine and fusing a directly-following ReLU where the layer's output is
// the raw GEMM result (Dense, Conv1D). It returns how many layers it
// consumed starting at i (0 when layers[i] is not GEMM-backed).
func (c *compiler) lowerGemmLayer(layers []nn.Layer, i int, scale, shift []float64) (int, error) {
	reluNext := func() bool {
		if i+1 < len(layers) {
			_, ok := layers[i+1].(*nn.ReLU)
			return ok
		}
		return false
	}
	switch l := layers[i].(type) {
	case *nn.Dense:
		if err := c.checkWidth("Dense", l.In); err != nil {
			return 0, err
		}
		params := l.Params() // [w] or [w, b]
		w := cloneData(params[0].Value)
		var b []float64
		if len(params) > 1 {
			b = cloneData(params[1].Value)
		}
		act, consumed := tensor.ActNone, 1
		if reluNext() {
			act, consumed = tensor.ActReLU, 2
		}
		c.emitGemm(w, b, scale, shift, l.In, l.Out, act)
		return consumed, nil

	case *nn.Conv1D:
		if err := c.checkWidth("Conv1D", l.InC); err != nil {
			return 0, err
		}
		tap, err := convTapT1(l)
		if err != nil {
			return 0, err
		}
		params := l.Params() // [w (K,inC,outC), b]
		wd := params[0].Value.Data()
		sz := l.InC * l.OutC
		w := make([]float64, sz)
		copy(w, wd[tap*sz:(tap+1)*sz])
		b := cloneData(params[1].Value)
		act, consumed := tensor.ActNone, 1
		if reluNext() {
			act, consumed = tensor.ActReLU, 2
		}
		c.emitGemm(w, b, scale, shift, l.InC, l.OutC, act)
		return consumed, nil

	case *nn.GRU:
		if err := c.checkWidth("GRU", l.InC); err != nil {
			return 0, err
		}
		// Zero initial state: the reset gate and the whole recurrent kernel
		// are dead; only the z and candidate blocks of the input kernel
		// survive, packed to (inC, 2H): h = (1 − hardsig(a_z))·tanh(a_h).
		params := l.Params() // [w (inC,3H), u, b (3H)]
		w := packGateCols(params[0].Value.Data(), l.InC, l.H, 3, []int{0, 2})
		b := packGateVec(params[2].Value.Data(), l.H, []int{0, 2})
		c.emitGemm(w, b, scale, shift, l.InC, 2*l.H, tensor.ActNone)
		dst := c.newBuf(l.H)
		c.p.steps = append(c.p.steps, step{op: opGRUGate, src: c.cur, dst: dst})
		c.cur = dst
		return 1, nil

	case *nn.LSTM:
		if err := c.checkWidth("LSTM", l.InC); err != nil {
			return 0, err
		}
		// Zero initial state: the forget gate multiplies cPrev = 0 and the
		// recurrent kernel never fires. Pack [i | g | o] to (inC, 3H):
		// h = sig(a_o)·tanh(sig(a_i)·tanh(a_g)).
		params := l.Params() // [w (inC,4H), u, b (4H)]
		w := packGateCols(params[0].Value.Data(), l.InC, l.H, 4, []int{0, 2, 3})
		b := packGateVec(params[2].Value.Data(), l.H, []int{0, 2, 3})
		c.emitGemm(w, b, scale, shift, l.InC, 3*l.H, tensor.ActNone)
		dst := c.newBuf(l.H)
		c.p.steps = append(c.p.steps, step{op: opLSTMGate, src: c.cur, dst: dst})
		c.cur = dst
		return 1, nil
	}
	return 0, nil
}

// convTapT1 returns the single kernel tap that contributes at sequence
// length 1, or an error when the configuration has no full-coverage tap.
func convTapT1(l *nn.Conv1D) (int, error) {
	switch l.Pad {
	case nn.PaddingSame:
		// Output step 0 reads input step k − (K−1)/2; the only in-range tap
		// is k = (K−1)/2.
		return (l.K - 1) / 2, nil
	case nn.PaddingValid:
		if l.K != 1 {
			return 0, fmt.Errorf("infer: Conv1D valid padding with K=%d has no output at T=1", l.K)
		}
		return 0, nil
	}
	return 0, fmt.Errorf("infer: Conv1D has unknown padding %v", l.Pad)
}

// packGateCols extracts the listed gate-column blocks of a (k, gates·h)
// row-major matrix into a fresh (k, len(sel)·h) float64 matrix.
func packGateCols(src []float64, k, h, gates int, sel []int) []float64 {
	out := make([]float64, k*len(sel)*h)
	w := gates * h
	ow := len(sel) * h
	for i := 0; i < k; i++ {
		for s, g := range sel {
			copy(out[i*ow+s*h:i*ow+(s+1)*h], src[i*w+g*h:i*w+(g+1)*h])
		}
	}
	return out
}

// packGateVec extracts the listed gate blocks of a (gates·h) vector.
func packGateVec(src []float64, h int, sel []int) []float64 {
	out := make([]float64, len(sel)*h)
	for s, g := range sel {
		copy(out[s*h:(s+1)*h], src[g*h:(g+1)*h])
	}
	return out
}

// cloneData copies a tensor's flat data.
func cloneData(t *tensor.Tensor) []float64 {
	out := make([]float64, t.Len())
	copy(out, t.Data())
	return out
}

// Engine executes a Plan with a single pre-sized float32 arena. It is not
// safe for concurrent use; give each replica its own Engine (they share
// the immutable Plan and its weights).
type Engine struct {
	plan    *Plan
	rowsCap int
	inRows  int // rows written by the last In call
	arena   []float32
	bufOff  []int
}

// NewEngine returns an executor for the plan, sized lazily on first use.
func (p *Plan) NewEngine() *Engine {
	return &Engine{plan: p, bufOff: make([]int, len(p.widths))}
}

// Plan returns the engine's compiled plan.
func (e *Engine) Plan() *Plan { return e.plan }

// grow ensures the arena holds every buffer at the given batch capacity.
//
//pelican:noalloc
func (e *Engine) grow(rows int) {
	if rows <= e.rowsCap {
		return
	}
	e.rowsCap = rows
	off := 0
	for i, w := range e.plan.widths {
		e.bufOff[i] = off
		off += w * rows
	}
	if cap(e.arena) < off {
		e.arena = make([]float32, off)
	}
	e.arena = e.arena[:off]
}

// buf returns buffer i's slice for the given row count.
//
//pelican:noalloc
func (e *Engine) buf(i, rows int) []float32 {
	w := e.plan.widths[i]
	return e.arena[e.bufOff[i] : e.bufOff[i]+w*rows]
}

// In returns the input buffer for rows records (rows × Features()
// float32s), growing the arena if needed. Fill it, then call Run with at
// most the same row count. The input buffer is preserved across Run
// calls, so one fill may be scored repeatedly.
//
//pelican:noalloc
func (e *Engine) In(rows int) []float32 {
	e.grow(rows)
	e.inRows = rows
	return e.buf(0, rows)
}

// Run executes the plan over the input written via In and returns the
// logits (rows × Classes()), valid until the next In/Run/Forward call.
// rows must not exceed the preceding In's row count: growing the arena
// inside Run would reallocate it and silently drop the written input, so
// that is a panic instead of a wrong answer.
//
//pelican:noalloc
func (e *Engine) Run(rows int) []float32 {
	if rows > e.inRows {
		panic(fmt.Sprintf("infer: Run(%d) exceeds the %d rows written via In", rows, e.inRows))
	}
	out := 0
	for i := range e.plan.steps {
		s := &e.plan.steps[i]
		src := e.buf(s.src, rows)
		dst := e.buf(s.dst, rows)
		switch s.op {
		case opGemm:
			tensor.GemmBiasActF32(dst, src, s.w, s.bias, rows, e.plan.widths[s.src], e.plan.widths[s.dst], s.act)
		case opAffine:
			runAffine(dst, src, s.scale, s.shift)
		case opRelu:
			for j, v := range src {
				if v > 0 {
					dst[j] = v
				} else {
					dst[j] = 0
				}
			}
		case opAdd:
			src2 := e.buf(s.src2, rows)
			for j, v := range src {
				dst[j] = v + src2[j]
			}
		case opGRUGate:
			tensor.GRUGateF32(dst, src, e.plan.widths[s.dst])
		case opLSTMGate:
			runLSTMGate(dst, src, e.plan.widths[s.dst])
		}
		out = s.dst
	}
	return e.buf(out, rows)
}

// Forward copies x (rows × Features()) into the input buffer and runs the
// plan — the convenience entry; hot paths write via In and call Run.
func (e *Engine) Forward(x []float32, rows int) []float32 {
	copy(e.In(rows), x[:rows*e.plan.features])
	return e.Run(rows)
}

//pelican:noalloc
func runAffine(dst, src, scale, shift []float32) {
	w := len(scale)
	for r := 0; r*w < len(src); r++ {
		srow := src[r*w : (r+1)*w]
		drow := dst[r*w : (r+1)*w]
		for j, v := range srow {
			drow[j] = v*scale[j] + shift[j]
		}
	}
}

// runLSTMGate combines packed (B, 3H) LSTM pre-activations [i | g | o]
// into (B, H) hidden states for zero initial state:
// h = sig(o)·tanh(sig(i)·tanh(g)).
//
//pelican:noalloc
func runLSTMGate(dst, src []float32, h int) {
	for r := 0; r*3*h < len(src); r++ {
		arow := src[r*3*h : (r+1)*3*h]
		drow := dst[r*h : (r+1)*h]
		for j := 0; j < h; j++ {
			c := sigmoid32(arow[j]) * tensor.TanhF32(arow[h+j])
			drow[j] = sigmoid32(arow[2*h+j]) * tensor.TanhF32(c)
		}
	}
}

// sigmoid32 is the logistic function through tensor.TanhF32, by the
// identity σ(x) = (1 + tanh(x/2))/2.
//
//pelican:noalloc
func sigmoid32(v float32) float32 { return 0.5*tensor.TanhF32(0.5*v) + 0.5 }
