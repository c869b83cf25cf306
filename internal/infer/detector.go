package infer

import (
	"sync"

	"repro/internal/data"
	"repro/internal/nids"
)

// Detector scores flow records through a compiled float32 plan — the one
// engine every product path (serving, pelican-nids, the adapt gate) scores
// a trained model with. Methods are safe for concurrent use: record
// encoding runs on pooled caller-owned slabs outside any lock, and only
// the engine pass (whose arena is shared) is serialized behind a mutex.
// Replicas share the immutable Plan; each Detector owns its Engine.
type Detector struct {
	name string
	pipe *data.Pipeline

	mu  sync.Mutex // serializes engine passes only
	eng *Engine

	slabs sync.Pool // *encodeSlab, one checked out per call
}

// encodeSlab is one concurrent caller's staging area: a reusable float64
// encode row plus the float32 batch matrix handed to the engine.
type encodeSlab struct {
	row []float64
	x   []float32
}

// NewDetector builds a detector scoring through plan with the given
// preprocessing pipeline. name is reported as the detector name
// (conventionally the model name).
func NewDetector(name string, pipe *data.Pipeline, plan *Plan) *Detector {
	return &Detector{name: name, pipe: pipe, eng: plan.NewEngine()}
}

var _ nids.BatchDetector = (*Detector)(nil)

// Name implements nids.Detector.
func (d *Detector) Name() string { return d.name }

// Detect implements nids.Detector.
func (d *Detector) Detect(rec *data.Record) nids.Verdict {
	var v [1]nids.Verdict
	d.DetectBatch([]*data.Record{rec}, v[:])
	return v[0]
}

// DetectBatch implements nids.BatchDetector: records are encoded and
// narrowed to float32 on a pooled slab before the lock is taken, then the
// whole batch runs through the compiled plan in one pass.
//
//pelican:noalloc
func (d *Detector) DetectBatch(recs []*data.Record, verdicts []nids.Verdict) {
	rows := len(recs)
	if rows == 0 {
		return
	}
	f := d.pipe.Width()
	s, _ := d.slabs.Get().(*encodeSlab)
	if s == nil {
		s = &encodeSlab{row: make([]float64, f)}
	}
	if cap(s.x) < rows*f {
		s.x = make([]float32, rows*f)
	}
	x := s.x[:rows*f]
	for i, rec := range recs {
		d.pipe.ApplyInto(rec, s.row)
		dst := x[i*f : (i+1)*f]
		for j, v := range s.row {
			dst[j] = float32(v)
		}
	}

	d.mu.Lock()
	logits := d.eng.Forward(x, rows)
	// The argmax readout also runs under the lock: logits is the engine's
	// arena, which the next pass overwrites.
	classes := d.eng.Plan().Classes()
	for i := 0; i < rows; i++ {
		row := logits[i*classes : (i+1)*classes]
		cls := 0
		for c := 1; c < len(row); c++ {
			if row[c] > row[cls] {
				cls = c
			}
		}
		verdicts[i] = nids.Verdict{IsAttack: cls != 0, Class: cls, Score: float64(row[cls])}
	}
	d.mu.Unlock()
	d.slabs.Put(s)
}
