package adapt

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/flow"
	"repro/internal/nids"
	"repro/internal/synth"
)

// ckptConfig keeps monitor windows small so a test can fill them with a
// few hundred observations.
func ckptConfig(dir string) Config {
	return Config{
		Monitor:     MonitorConfig{RefWindow: 64, Window: 32},
		BufferCap:   128,
		ArtifactDir: dir,
	}
}

// feedLoop pushes n normal-verdict observations through the loop's tap,
// with deterministic score variation so the monitors accumulate real
// state.
func feedLoop(l *Loop, recs []data.Record, n int) {
	for i := 0; i < n; i++ {
		f := &flow.Flow{Record: recs[i%len(recs)], TrueClass: 0}
		v := nids.Verdict{Score: float64(i%10) / 10, Class: 0}
		l.Observe(f, v)
	}
}

// TestCheckpointRoundTrip is the resume proof: a loop with warm drift
// windows checkpoints, a fresh loop restores, and the restored monitors
// are Ready immediately — no re-warming gap during which drift would go
// unwatched — with the buffer, lifetime counters, and drift statistics
// carried over exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 2, 31)
	recs := gen.Generate(128, 99).Records

	l1, err := NewLoop(art, ckptConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	feedLoop(l1, recs, 120) // 64 reference + 32 window, with margin
	if !l1.monitorsByName()["normal-score"].Ready() {
		t.Fatal("test setup: monitor not warm after 120 observations")
	}
	// Floats JSON cannot carry must survive bit-exactly, in a monitor ring
	// and moment and in a buffered record.
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	alert := l1.monitorsByName()["alert-rate"]
	st := alert.State()
	copy(st.Ring, special)
	st.SumSq = math.Inf(1)
	if err := alert.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	odd := recs[0]
	odd.Numeric = append([]float64(nil), odd.Numeric...)
	copy(odd.Numeric, special)
	l1.Buffer().Add(odd, 2)
	path := filepath.Join(t.TempDir(), "adapt.ckpt")
	if err := l1.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	l2, err := NewLoop(art, ckptConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if l2.monitorsByName()["normal-score"].Ready() {
		t.Fatal("fresh loop already warm")
	}
	if err := l2.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if !l2.monitorsByName()["normal-score"].Ready() {
		t.Fatal("restored monitor not Ready: the drift window did not resume")
	}
	if got, want := l2.monitorsByName()["normal-score"].Stat(), l1.monitorsByName()["normal-score"].Stat(); got != want {
		t.Fatalf("restored drift statistic %v, want %v", got, want)
	}
	if got, want := l2.Buffer().Len(), l1.Buffer().Len(); got != want {
		t.Fatalf("restored buffer holds %d flows, want %d", got, want)
	}
	if got, want := l2.Buffer().Seen(), l1.Buffer().Seen(); got != want {
		t.Fatalf("restored lifetime counter %d, want %d", got, want)
	}
	r1, lab1 := l1.Buffer().Snapshot()
	r2, lab2 := l2.Buffer().Snapshot()
	for i := range r1 {
		if lab1[i] != lab2[i] || r1[i].Label != r2[i].Label || !slices.Equal(r1[i].Categorical, r2[i].Categorical) ||
			!sameBits(r1[i].Numeric, r2[i].Numeric) {
			t.Fatalf("restored buffer diverges at flow %d", i)
		}
	}
	for name, m := range l1.monitorsByName() {
		if !sameBits(monitorBits(m.State()), monitorBits(l2.monitorsByName()[name].State())) {
			t.Fatalf("restored monitor %s differs", name)
		}
	}
	// And the restored loop keeps observing without incident.
	feedLoop(l2, recs, 10)
}

// sameBits compares float slices bit for bit (NaN equals NaN, −0 is not 0).
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// monitorBits flattens a monitor state into floats for sameBits.
func monitorBits(st MonitorState) []float64 {
	return append(append([]float64(nil), st.Ring...), st.RefMean, st.RefM2, st.Sum, st.SumSq,
		float64(st.RefN), float64(st.Head), float64(st.N), float64(st.Quiet), float64(st.Trips))
}

// TestCheckpointEveryByteCovered: flipping any single byte of a
// checkpoint, or cutting it at any offset, must fail the restore and
// leave the loop fresh — every byte sits under a frame CRC or a
// frame-structure check.
func TestCheckpointEveryByteCovered(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 1, 35)
	cfg := Config{Monitor: MonitorConfig{RefWindow: 8, Window: 4}, BufferCap: 3, ArtifactDir: t.TempDir()}
	l1, err := NewLoop(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedLoop(l1, gen.Generate(8, 99).Records, 20)
	path := filepath.Join(t.TempDir(), "adapt.ckpt")
	if err := l1.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLoop(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(b []byte) error {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return fresh.RestoreCheckpoint(path)
	}
	for off := range raw {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x01
		if err := restore(bad); err == nil {
			t.Fatalf("byte %d of %d flipped: corrupt checkpoint restored", off, len(raw))
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := restore(raw[:cut]); err == nil {
			t.Fatalf("checkpoint cut at %d of %d bytes restored", cut, len(raw))
		}
	}
	if fresh.Buffer().Len() != 0 || fresh.monitorsByName()["normal-score"].Ready() {
		t.Fatal("a rejected restore mutated the loop")
	}
	if err := restore(raw); err != nil || fresh.Buffer().Len() != l1.Buffer().Len() {
		t.Fatalf("intact checkpoint: %v (buffer %d, want %d)", err, fresh.Buffer().Len(), l1.Buffer().Len())
	}
}

// TestCheckpointCorruptRejected covers the failure modes: a flipped
// byte, a torn tail, and a missing file must all reject cleanly, leaving
// the loop's fresh state untouched.
func TestCheckpointCorruptRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 2, 32)
	recs := gen.Generate(64, 99).Records

	l1, err := NewLoop(art, ckptConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	feedLoop(l1, recs, 120)
	dir := t.TempDir()
	path := filepath.Join(dir, "adapt.ckpt")
	if err := l1.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	fresh := func() *Loop {
		l, err := NewLoop(art, ckptConfig(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	flipped := filepath.Join(dir, "flipped.ckpt")
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(flipped, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := chaos.CorruptFile(flipped); err != nil {
		t.Fatal(err)
	}
	l2 := fresh()
	if err := l2.RestoreCheckpoint(flipped); err == nil {
		t.Fatal("corrupt checkpoint restored")
	}
	if l2.monitorsByName()["normal-score"].Ready() || l2.Buffer().Len() != 0 {
		t.Fatal("failed restore mutated the loop")
	}

	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := chaos.TruncateTail(torn, 40); err != nil {
		t.Fatal(err)
	}
	if err := fresh().RestoreCheckpoint(torn); err == nil {
		t.Fatal("torn checkpoint restored")
	}

	err = fresh().RestoreCheckpoint(filepath.Join(dir, "missing.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: %v, want os.ErrNotExist (first boot must be distinguishable)", err)
	}
}

// TestCheckpointStaleVersionRejected: state saved against one artifact
// generation must not restore into a loop running another — the monitor
// windows describe the old model's score distribution.
func TestCheckpointStaleVersionRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	a1 := trainTinyArtifact(t, gen, 400, 2, 33)
	a2 := trainTinyArtifact(t, gen, 400, 2, 34)
	recs := gen.Generate(64, 99).Records

	l1, err := NewLoop(a1, ckptConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	feedLoop(l1, recs, 120)
	path := filepath.Join(t.TempDir(), "adapt.ckpt")
	if err := l1.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	l2, err := NewLoop(a2, ckptConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.RestoreCheckpoint(path); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("cross-generation restore: %v, want ErrCheckpointStale", err)
	}
	if l2.Buffer().Len() != 0 {
		t.Fatal("stale restore mutated the buffer")
	}
}

// TestMonitorRestoreGeometryMismatch: a checkpoint from a different
// window configuration is rejected per monitor, monitor untouched.
func TestMonitorRestoreGeometryMismatch(t *testing.T) {
	m := NewMonitor(MonitorConfig{RefWindow: 8, Window: 32})
	other := NewMonitor(MonitorConfig{RefWindow: 8, Window: 16})
	for i := 0; i < 30; i++ {
		other.Observe(float64(i))
	}
	if err := m.RestoreState(other.State()); err == nil {
		t.Fatal("window-mismatched state restored")
	}
	if m.Ready() {
		t.Fatal("rejected restore mutated the monitor")
	}
	bad := other.State()
	bad.Ring = make([]float64, 32)
	bad.Head = 99
	if err := m.RestoreState(bad); err == nil {
		t.Fatal("out-of-range head restored")
	}
}

// TestBufferRestoreCapBounded: a checkpoint larger than the buffer's
// capacity keeps only the newest flows — what sliding eviction would
// have left — and the lifetime counter never undercounts the contents.
func TestBufferRestoreCapBounded(t *testing.T) {
	big := NewFlowBuffer(10)
	for i := 0; i < 10; i++ {
		big.Add(data.Record{Label: i}, i)
	}
	recs, labels, seen := big.State()

	small := NewFlowBuffer(4)
	if err := small.Restore(recs, labels, seen); err != nil {
		t.Fatal(err)
	}
	if small.Len() != 4 {
		t.Fatalf("restored %d flows into a cap-4 buffer", small.Len())
	}
	_, gotLabels := small.Snapshot()
	for i, want := range []int{6, 7, 8, 9} {
		if gotLabels[i] != want {
			t.Fatalf("kept labels %v, want the newest [6 7 8 9]", gotLabels)
		}
	}
	if small.Seen() != 10 {
		t.Fatalf("seen = %d, want the checkpointed 10", small.Seen())
	}

	// Eviction resumes correctly at the restored head.
	small.Add(data.Record{Label: 10}, 10)
	_, gotLabels = small.Snapshot()
	for i, want := range []int{7, 8, 9, 10} {
		if gotLabels[i] != want {
			t.Fatalf("post-restore eviction order %v, want [7 8 9 10]", gotLabels)
		}
	}

	if err := small.Restore(recs, labels[:3], seen); err == nil {
		t.Fatal("mismatched records/labels restored")
	}
}
