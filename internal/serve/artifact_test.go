package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// trainTestModel trains a small detector of the given registered model
// and returns its artifact, the trained network and fitted pipeline the
// artifact captured, and a batch of held-back records for verdict
// comparison.
func trainTestModel(t *testing.T, modelName string, seed int64, epochs int) (*Artifact, *nn.Network, *data.Pipeline, []*data.Record) {
	t.Helper()
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(500, seed)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(seed))
	spec, err := models.Lookup(modelName)
	if err != nil {
		t.Fatal(err)
	}
	block := models.BlockConfig{Features: features, Kernel: 10, Pool: 2, Dropout: 0.6}
	stack := spec.Build(rng, rand.New(rand.NewSource(seed+1)), block, features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	x3 := x.Reshape(x.Dim(0), 1, x.Dim(1))
	net.Fit(x3, y, nn.FitConfig{Epochs: epochs, BatchSize: 128, Shuffle: true, RNG: rng})

	a, err := NewArtifact(modelName, block, gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	probe := gen.Generate(64, seed+1000)
	recs := make([]*data.Record, len(probe.Records))
	for i := range probe.Records {
		recs[i] = &probe.Records[i]
	}
	return a, net, pipe, recs
}

// trainTestArtifact is trainTestModel with the trained network compiled
// into the in-process detector — the same float32 engine a server runs,
// lowered from the original network rather than from the artifact.
func trainTestArtifact(t *testing.T, modelName string, seed int64, epochs int) (*Artifact, *infer.Detector, []*data.Record) {
	t.Helper()
	a, net, pipe, recs := trainTestModel(t, modelName, seed, epochs)
	return a, compiledDetector(t, modelName, net, pipe), recs
}

// compiledDetector lowers net into a float32 detector scoring with pipe.
func compiledDetector(t *testing.T, name string, net *nn.Network, pipe *data.Pipeline) *infer.Detector {
	t.Helper()
	plan, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	return infer.NewDetector(name, pipe, plan)
}

// encodeProbe converts records to the (N, 1, F) tensor a network
// consumes.
func encodeProbe(pipe *data.Pipeline, recs []*data.Record) *tensor.Tensor {
	x := tensor.New(len(recs), pipe.Width())
	for i, r := range recs {
		pipe.ApplyInto(r, x.Row(i))
	}
	return x.Reshape(len(recs), 1, pipe.Width())
}

// f64Verdicts scores recs through the float64 network the artifact
// rebuilds — the parity oracle served float32 verdicts are checked
// against: the class is the argmax and the score the winning logit.
func f64Verdicts(t *testing.T, a *Artifact, recs []*data.Record) []nids.Verdict {
	t.Helper()
	net, pipe, err := a.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	if err != nil {
		t.Fatal(err)
	}
	logits := net.Predict(encodeProbe(pipe, recs))
	out := make([]nids.Verdict, len(recs))
	for i, cls := range logits.ArgmaxRow() {
		out[i] = nids.Verdict{IsAttack: cls != 0, Class: cls, Score: logits.Row(i)[cls]}
	}
	return out
}

// TestArtifactPlanCachedAndInferDetectorAgrees pins the plan-aware load
// path: lowering happens once (Plan() returns the same compiled plan to
// every caller — the artifact's weights stay stored once, in float64), and
// a float32 replica built from it produces the float64 network's verdicts
// on a held-back batch.
func TestArtifactPlanCachedAndInferDetectorAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "lunet", 31, 2)
	loaded, err := LoadArtifact(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	p1, err := loaded.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loaded.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Plan() compiled twice; replicas must share one lowering")
	}
	if p1.Features() != loaded.Features() || p1.Classes() != loaded.Classes() {
		t.Fatalf("plan shape %d→%d, artifact %d→%d",
			p1.Features(), p1.Classes(), loaded.Features(), loaded.Classes())
	}

	want := f64Verdicts(t, loaded, recs)
	f32det, err := loaded.NewInferDetector()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]nids.Verdict, len(recs))
	f32det.DetectBatch(recs, got)
	for i := range recs {
		if got[i].Class != want[i].Class || got[i].IsAttack != want[i].IsAttack {
			t.Fatalf("record %d: f32 verdict {class=%d attack=%v}, f64 {class=%d attack=%v}",
				i, got[i].Class, got[i].IsAttack, want[i].Class, want[i].IsAttack)
		}
	}
}

// requireRoundTrip checks that loaded, the artifact a was saved as and
// read back, scores like the network a captured: bit-identical float64
// logits, and identical float32 verdicts from the engine serving runs.
func requireRoundTrip(t *testing.T, loaded *Artifact, net *nn.Network, pipe *data.Pipeline, recs []*data.Record) {
	t.Helper()
	loadedNet, loadedPipe, err := loaded.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	if err != nil {
		t.Fatal(err)
	}
	want := net.Predict(encodeProbe(pipe, recs))
	got := loadedNet.Predict(encodeProbe(loadedPipe, recs))
	if !reflect.DeepEqual(got.Shape(), want.Shape()) {
		t.Fatalf("loaded logits shape %v, original %v", got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("logit %d: loaded network %v, original %v", i, g, w)
		}
	}

	orig := compiledDetector(t, loaded.ModelName, net, pipe)
	det, err := loaded.NewInferDetector()
	if err != nil {
		t.Fatal(err)
	}
	wantV := make([]nids.Verdict, len(recs))
	gotV := make([]nids.Verdict, len(recs))
	orig.DetectBatch(recs, wantV)
	det.DetectBatch(recs, gotV)
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Fatalf("record %d: loaded verdict %+v, original %+v", i, gotV[i], wantV[i])
		}
	}
}

// TestArtifactRoundTripLuNet pins the headline contract: save → load of a
// trained block network keeps its version and yields bit-identical
// logits and identical DetectBatch verdicts on a fixed-seed batch.
func TestArtifactRoundTripLuNet(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, net, pipe, recs := trainTestModel(t, "lunet", 1, 2)

	loaded, err := LoadArtifact(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version() != a.Version() {
		t.Fatalf("version changed across round trip: %s -> %s", a.Version(), loaded.Version())
	}
	requireRoundTrip(t, loaded, net, pipe, recs)
}

// TestArtifactRoundTripResidual runs the same contract on a residual
// (Pelican-style) network so BatchNorm running stats and shortcut layers
// are covered; a 2-block net keeps it fast.
func TestArtifactRoundTripResidual(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, net, pipe, recs := trainTestModel(t, "residual-21", 3, 1)
	loaded, err := LoadArtifact(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireRoundTrip(t, loaded, net, pipe, recs)
}

// mlpArtifactBytes builds a minimal valid artifact file for the error-path
// tests (MLP trains in milliseconds).
func mlpArtifactBytes(t *testing.T) []byte {
	t.Helper()
	a, _, _ := trainTestArtifact(t, "mlp", 7, 1)
	return a.Bytes()
}

// tinyArtifact is a fixed, untrained LuNet over a 4-column schema. Every
// number in it is a small dyadic rational set directly — no training and
// no transcendental math — so its bytes are the same on every platform
// and in every process, and it is small enough to corrupt byte by byte.
func tinyArtifact(tb testing.TB) *Artifact { return fixedArtifact(tb, "lunet") }

// fixedArtifact is tinyArtifact's construction for any registered model.
func fixedArtifact(tb testing.TB, model string) *Artifact {
	tb.Helper()
	schema := data.Schema{
		NumericNames: []string{"bytes", "duration"},
		Categorical:  []data.CategoricalFeature{{Name: "proto", Values: []string{"tcp", "udp"}}},
		ClassNames:   []string{"normal", "attack"},
	}
	block := models.BlockConfig{Features: 4, Kernel: 2, Pool: 2, Dropout: 0.5}
	spec, err := models.Lookup(model)
	if err != nil {
		tb.Fatal(err)
	}
	net := nn.NewNetwork(spec.Build(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), block, 4, 2),
		nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	st := net.State()
	for i := range st {
		for j := range st[i].Data {
			st[i].Data[j] = float64((7*i+3*j)%17-8) / 16
		}
	}
	if err := net.SetState(st); err != nil {
		tb.Fatal(err)
	}
	pipe := &data.Pipeline{Enc: data.NewEncoder(schema), Scaler: &data.Scaler{Mean: []float64{0.5, -1, 0, 0}, Std: []float64{2, 4, 1, 1}}}
	a, err := NewArtifact(model, block, schema, pipe, net)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// TestArtifactBytesCanonical pins the CAS identity contract across
// processes: the encoding is a pure function of the model, so a fixed
// model's version is a constant recorded here — a gob-style encoder whose
// bytes depend on process history could not pass — and a loaded file
// re-encodes to exactly the bytes it was read from, so version ==
// sha(Bytes()) wherever the artifact came from.
func TestArtifactBytesCanonical(t *testing.T) {
	a := tinyArtifact(t)
	const want = "a2b10e65b4e1"
	if a.Version() != want {
		t.Fatalf("tiny artifact version %s, want %s: the .plcn encoding changed", a.Version(), want)
	}
	b := a.Bytes()
	if got := store.Version(b); got != a.Version() {
		t.Fatalf("version %s is not the hash of Bytes() (%s)", a.Version(), got)
	}
	loaded, err := LoadArtifact(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.Bytes(), b) || loaded.Version() != want {
		t.Fatal("a loaded artifact does not re-encode to the bytes it was read from")
	}
}

// TestArtifactEveryByteCovered: flipping any bit pattern into any single
// byte of an artifact, or cutting it at any offset, must fail the load.
// Every byte — header, metadata, scaler and weights — sits under a frame
// CRC or a frame-structure check, so nothing decodes to a different model.
func TestArtifactEveryByteCovered(t *testing.T) {
	raw := tinyArtifact(t).Bytes()
	for off := range raw {
		for _, mask := range []byte{0x01, 0xFF} {
			bad := append([]byte(nil), raw...)
			bad[off] ^= mask
			if _, err := LoadArtifact(bytes.NewReader(bad)); err == nil {
				t.Fatalf("byte %d of %d xor %#x: corrupt artifact loaded", off, len(raw), mask)
			}
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadArtifact(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("artifact cut at %d of %d bytes loaded", cut, len(raw))
		}
	}
}

// FuzzLoadArtifact: arbitrary bytes must load or fail — never panic — and
// an accepted file must be exactly the encoding of what was loaded.
func FuzzLoadArtifact(f *testing.F) {
	raw := tinyArtifact(f).Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	crc := append([]byte(nil), raw...)
	crc[12] ^= 0xFF // the first frame's CRC field
	f.Add(crc)
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := LoadArtifact(bytes.NewReader(b))
		if err != nil {
			return
		}
		if !bytes.Equal(a.Bytes(), b) || a.Version() != store.Version(b) {
			t.Fatal("accepted a file whose re-encode differs from its input")
		}
	})
}

// TestArtifactVersionEveryModel: for every registered model, the version
// LoadArtifact computes while it parses is the store's hash of the whole
// file, however the reader splits it. The versions are pinned: the
// encoding and the hash are unchanged by how the file is read.
func TestArtifactVersionEveryModel(t *testing.T) {
	want := map[string]string{
		"cnn": "a6ad324ff195", "hast-ids": "8cf42a16e5a8", "lstm": "f6545f1d81a0",
		"lunet": "a2b10e65b4e1", "mlp": "809424270f82", "pelican": "17a0a7cd420d",
		"plain-21": "b56efa577088", "plain-41": "fa7f95f68201", "residual-21": "e602c76cd585",
	}
	for _, name := range models.Names() {
		b := fixedArtifact(t, name).Bytes()
		if v := store.Version(b); v != want[name] {
			t.Errorf("%s: version %s, want %s", name, v, want[name])
		}
		for _, r := range []io.Reader{bytes.NewReader(b), iotest.OneByteReader(bytes.NewReader(b)), iotest.HalfReader(bytes.NewReader(b))} {
			a, err := LoadArtifact(r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a.Version() != store.Version(b) || !bytes.Equal(a.Bytes(), b) {
				t.Fatalf("%s: loaded version %s, file hashes to %s", name, a.Version(), store.Version(b))
			}
		}
	}
}

// frameEnds returns the offset just past each frame of a framed file.
func frameEnds(b []byte) []int {
	var ends []int
	for off := 0; off+wire.HeaderSize <= len(b); {
		off += wire.HeaderSize + int(binary.LittleEndian.Uint32(b[off+8:]))
		ends = append(ends, off)
	}
	return ends
}

// TestArtifactLoadErrorClasses pins which error each kind of bad input
// gets. A file that is wrong is "corrupt, truncated or foreign" (or names
// its own defect); a reader that fails is a read error wrapping its cause,
// never a corrupt file, because a corrupt file is quarantined on recovery.
func TestArtifactLoadErrorClasses(t *testing.T) {
	raw := tinyArtifact(t).Bytes()
	ends := frameEnds(raw)
	midTensor := ends[2] + wire.HeaderSize + 3
	const corrupt = "corrupt, truncated or foreign"
	flipped := append([]byte(nil), raw...)
	flipped[midTensor] ^= 0xFF
	cause := errors.New("device gone")
	cases := []struct {
		name string
		r    io.Reader
		msg  string // the error names this
		is   error  // and wraps this, when set
	}{
		{"format 1", strings.NewReader(artifactV1Magic + "\x2a\xff"), "format 1", nil},
		{"cut at a frame boundary", bytes.NewReader(raw[:ends[len(ends)-2]]), "(truncated)", nil},
		{"cut mid-frame", bytes.NewReader(raw[:midTensor]), corrupt, io.ErrUnexpectedEOF},
		{"trailing garbage", io.MultiReader(bytes.NewReader(raw), strings.NewReader("PLWF and more")), corrupt, nil},
		{"flipped byte", bytes.NewReader(flipped), corrupt, wire.ErrChecksum},
		{"read error at once", iotest.ErrReader(cause), "read artifact", cause},
		{"read error mid-tensor", io.MultiReader(bytes.NewReader(raw[:midTensor]), iotest.ErrReader(cause)), "read artifact", cause},
	}
	for _, c := range cases {
		_, err := LoadArtifact(c.r)
		if err == nil || !strings.Contains(err.Error(), c.msg) || c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: error %v, want one naming %q (wrapping %v)", c.name, err, c.msg, c.is)
		}
	}
}

func TestArtifactRejectsBadMagic(t *testing.T) {
	if _, err := LoadArtifact(bytes.NewReader([]byte("definitely not an artifact"))); err == nil {
		t.Fatal("foreign bytes accepted")
	}
	// A format-1 (gob) file is named, not just refused.
	if _, err := LoadArtifact(bytes.NewReader([]byte("PELICANv1\n\x2a\xff"))); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("v1 artifact: %v, want an error naming format 1", err)
	}
}

// TestRecoverQuarantinesFormat1Artifact pins the upgrade path: a state
// dir whose state file references a format-1 (gob) artifact recovers through
// the existing degrade path — the file hashes to its address but does not
// load, so it is quarantined (kept, never deleted), the live slot is
// reported degraded with a reason naming the format, and /readyz is 503.
func TestRecoverQuarantinesFormat1Artifact(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	v, err := st.Put([]byte("PELICANv1\n\x1f\xff the gob payload of an older build"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTopology(st.JournalDir(), store.Topology{Slots: map[string]string{registry.Live: v}}); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	srv, ts := recoverServer(t, durableConfig(st2))
	if rep := srv.Recovery(); len(rep.Degraded) != 1 || rep.Degraded[0].Tag != registry.Live || !strings.Contains(rep.Degraded[0].Reason, "format 1") {
		t.Fatalf("degraded = %+v, want the live slot with a reason naming format 1", rep.Degraded)
	}
	if q := st2.QuarantinedVersions(); len(q) != 1 || q[0] != v {
		t.Fatalf("quarantined = %v, want [%s]", q, v)
	}
	if code, _ := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503 with the live slot degraded", code)
	}
}

func TestArtifactRejectsTruncated(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	raw := mlpArtifactBytes(t)
	for _, frac := range []int{2, 4, 10} {
		if _, err := LoadArtifact(bytes.NewReader(raw[:len(raw)/frac])); err == nil {
			t.Fatalf("truncated artifact (1/%d) accepted", frac)
		}
	}
}

func TestArtifactRejectsCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	raw := mlpArtifactBytes(t)
	// Flip bytes at several depths; every corruption must surface as an
	// error (a frame CRC mismatch), never as a silently-wrong model.
	for _, pos := range []int{len(raw) / 2, len(raw) - 100, len(raw) - 10} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0xff
		if _, err := LoadArtifact(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupt artifact (byte %d flipped) accepted", pos)
		}
	}
}

func TestArtifactRejectsUnknownModel(t *testing.T) {
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	schema := gen.Schema()
	w := schema.EncodedWidth()
	pipe := &data.Pipeline{
		Enc:    data.NewEncoder(schema),
		Scaler: &data.Scaler{Mean: make([]float64, w), Std: make([]float64, w)},
	}
	net := nn.NewNetwork(nn.NewSequential(), nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	if _, err := NewArtifact("transformer-9000", models.BlockConfig{}, schema, pipe, net); err == nil {
		t.Fatal("unregistered model name accepted")
	}
}

// BenchmarkColdStart times a cold start of Residual-41 at the UNSW-NB15
// width (196 encoded features, 10 classes; untrained weights) from the
// artifact's bytes to a first verdict. "load" is LoadArtifact; "new" is
// serve.New on a freshly loaded artifact (which rebuilds the network and
// compiles its inference plan) plus one DetectBatch through its handler.
func BenchmarkColdStart(b *testing.B) {
	gen, err := synth.New(synth.UNSWNB15Config())
	if err != nil {
		b.Fatal(err)
	}
	ds := gen.Generate(200, 1)
	_, _, pipe := data.Preprocess(ds)
	f, k := gen.Schema().EncodedWidth(), gen.Schema().NumClasses()
	block := models.PaperBlockConfig(f)
	net := nn.NewNetwork(models.BuildPelican(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), block, k),
		nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	a, err := NewArtifact("pelican", block, gen.Schema(), pipe, net)
	if err != nil {
		b.Fatal(err)
	}
	raw := a.Bytes()
	recs := make([]*data.Record, 32)
	for i := range recs {
		recs[i] = &ds.Records[i]
	}
	load := func(b *testing.B) *Artifact {
		a, err := LoadArtifact(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		return a
	}

	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			load(b)
		}
	})
	b.Run("new", func(b *testing.B) {
		verdicts := make([]nids.Verdict, len(recs))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := load(b)
			b.StartTimer()
			srv, err := New(a, Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			det := &RemoteDetector{Client: NewClient(ts.URL)}
			det.DetectBatch(recs, verdicts)
			b.StopTimer()
			ts.Close()
			srv.Close()
			if det.Errors() != 0 {
				b.Fatal("first DetectBatch failed")
			}
			b.StartTimer()
		}
	})
}
