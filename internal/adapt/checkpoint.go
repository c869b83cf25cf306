package adapt

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/store"
	"repro/internal/wire"
)

// Checkpointing persists the adaptation loop's streaming state — the
// four drift monitors' windows, the sliding flow buffer, and the retrain
// counter — so a restarted sidecar resumes its drift window exactly
// where the dead process left it, with no re-warming gap during which
// real drift would go unnoticed. The retraining network itself is NOT
// checkpointed: it warm-starts from the deployed artifact, which is the
// durable truth for weights.
//
// File format: a wire file record. A wire.FrameCheckpoint header holds
// the scalar state as JSON; the floats follow bit-exactly, so NaN, ±Inf
// and −0 survive, as one wire.FrameTensor per monitor and then one per
// buffered record. Writes go through store.WriteAtomic, so a crash
// mid-save leaves the previous checkpoint intact; any torn or tampered
// file fails a frame CRC or the tensor count and is discarded, never
// half-applied.

// checkpointFormat is the layout version inside the header; bump it on
// incompatible changes.
const checkpointFormat = 2

// ErrCheckpointStale marks a structurally valid checkpoint that belongs
// to a different artifact generation than the loop's: its monitor
// windows describe another model's score distribution, so restoring it
// would alias two normals. Callers start fresh instead.
var ErrCheckpointStale = errors.New("adapt: checkpoint belongs to a different artifact generation")

// checkpointHeader is the JSON payload of a checkpoint's first frame.
type checkpointHeader struct {
	Format   int                 `json:"format"`
	Version  string              `json:"version"` // artifact generation the state describes
	Seen     int64               `json:"seen"`
	Retrains int64               `json:"retrains"`
	Monitors []checkpointMonitor `json:"monitors"`
	Records  []checkpointRecord  `json:"records"`
}

// checkpointMonitor is one drift monitor's integer state; its floats
// (RefMean, RefM2, Sum, SumSq, then the ring) follow as one tensor.
type checkpointMonitor struct {
	Name string `json:"name"`
	MonitorState
}

// checkpointRecord is one buffered flow; its numeric features follow as
// one tensor.
type checkpointRecord struct {
	Categorical []string `json:"cat"`
	Label       int      `json:"label"`     // the record's own label
	BufLabel    int      `json:"buf_label"` // the label the buffer trains on
}

// monitorsByName keys the loop's monitors by their stable signal names —
// the checkpoint's join key across restarts.
func (l *Loop) monitorsByName() map[string]*Monitor {
	return map[string]*Monitor{
		"normal-score": l.normalScoreMon,
		"attack-score": l.attackScoreMon,
		"alert-rate":   l.alertMon,
		"feature-mean": l.featMon,
	}
}

// SaveCheckpoint atomically writes the loop's streaming state to path.
// Safe to call concurrently with Observe and Run: each component is
// snapshotted under its own lock.
func (l *Loop) SaveCheckpoint(path string) error {
	h := checkpointHeader{
		Format:   checkpointFormat,
		Version:  l.Version(),
		Retrains: l.retrains.Load(),
	}
	var tensors []nn.NamedTensor
	for name, m := range l.monitorsByName() {
		st := m.State()
		h.Monitors = append(h.Monitors, checkpointMonitor{name, st})
		f := append([]float64{st.RefMean, st.RefM2, st.Sum, st.SumSq}, st.Ring...)
		tensors = append(tensors, nn.NamedTensor{Name: name, Shape: []int{len(f)}, Data: f})
	}
	recs, labels, seen := l.buf.State()
	h.Seen = seen
	for i, r := range recs {
		h.Records = append(h.Records, checkpointRecord{r.Categorical, r.Label, labels[i]})
		tensors = append(tensors, nn.NamedTensor{Name: "record", Shape: []int{len(r.Numeric)}, Data: r.Numeric})
	}
	var buf bytes.Buffer
	if err := wire.WriteFile(&buf, wire.FrameCheckpoint, h, tensors); err != nil {
		return fmt.Errorf("adapt: encode checkpoint: %w", err)
	}
	return store.WriteAtomic(path, buf.Bytes())
}

// RestoreCheckpoint loads the state saved at path into the loop. It is
// all-or-nothing per component: a bad frame, format version, tensor
// count, or artifact-version mismatch rejects the whole file (the loop
// keeps its fresh state), while per-monitor geometry mismatches skip only
// that monitor. Returns ErrCheckpointStale for a version mismatch and
// wraps os.ErrNotExist when no checkpoint exists, so callers can
// distinguish "first boot" from "corrupt state".
func (l *Loop) RestoreCheckpoint(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("adapt: read checkpoint: %w", err)
	}
	var h checkpointHeader
	tensors, err := wire.ReadFile(bytes.NewReader(b), wire.FrameCheckpoint, &h)
	if err != nil {
		return fmt.Errorf("adapt: decode checkpoint (torn or corrupt file): %w", err)
	}
	if h.Format != checkpointFormat {
		return fmt.Errorf("adapt: checkpoint format %d, want %d", h.Format, checkpointFormat)
	}
	if want := len(h.Monitors) + len(h.Records); len(tensors) != want {
		return fmt.Errorf("adapt: checkpoint holds %d tensors, its header declares %d", len(tensors), want)
	}
	if h.Version != l.Version() {
		return fmt.Errorf("%w (checkpoint %s, deployed %s)", ErrCheckpointStale, h.Version, l.Version())
	}
	recs := make([]data.Record, len(h.Records))
	labels := make([]int, len(h.Records))
	for i, r := range h.Records {
		recs[i] = data.Record{Numeric: tensors[len(h.Monitors)+i].Data, Categorical: r.Categorical, Label: r.Label}
		labels[i] = r.BufLabel
	}
	if err := l.buf.Restore(recs, labels, h.Seen); err != nil {
		return err
	}
	mons := l.monitorsByName()
	for i, cm := range h.Monitors {
		m, ok := mons[cm.Name]
		if !ok {
			continue
		}
		st := cm.MonitorState // a tensor too short for the moments leaves Ring nil: a geometry mismatch
		if f := tensors[i].Data; len(f) >= 4 {
			st.RefMean, st.RefM2, st.Sum, st.SumSq, st.Ring = f[0], f[1], f[2], f[3], f[4:]
		}
		if err := m.RestoreState(st); err != nil {
			// Window geometry changed across the restart: this monitor
			// re-warms from scratch, the others resume.
			l.cfg.Logger.Warn("checkpoint monitor skipped", "signal", cm.Name, "error", err)
		}
	}
	l.retrains.Store(h.Retrains)
	return nil
}
