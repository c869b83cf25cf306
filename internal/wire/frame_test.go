package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/nn"
)

// frameBytes encodes one frame into a byte slice via FrameWriter.
func frameBytes(ft FrameType, payload []byte) []byte {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Write(ft, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte{0xAB}, 1000),
		bytes.Repeat([]byte("pelican"), 4096),
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	types := []FrameType{FrameHello, FrameSchema, FrameScore, FrameResult, FrameError, FrameGoAway, FrameArtifact, FrameCheckpoint, FrameTensor}
	want := 0
	for i, p := range payloads {
		if err := fw.Write(types[i%len(types)], p); err != nil {
			t.Fatal(err)
		}
		want += HeaderSize + len(p)
	}
	if buf.Len() != want {
		t.Fatalf("stream is %d bytes, want %d (header + payload per frame)", buf.Len(), want)
	}
	fr := NewFrameReader(&buf)
	for i, p := range payloads {
		ft, got, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != types[i%len(types)] {
			t.Fatalf("frame %d: type %d, want %d", i, ft, types[i%len(types)])
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d bytes vs %d)", i, len(got), len(p))
		}
	}
	if _, _, err := fr.Read(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestTruncationAtEveryOffset mirrors the store journal's torn-tail fuzz:
// a stream cut at every possible byte offset must yield either a clean
// io.EOF (cut exactly on a frame boundary) or io.ErrUnexpectedEOF — and
// every successfully decoded prefix frame must be intact. Never a panic,
// never a hang, never garbage accepted.
func TestTruncationAtEveryOffset(t *testing.T) {
	var full bytes.Buffer
	fw := NewFrameWriter(&full)
	payloads := [][]byte{
		[]byte("alpha"),
		{},
		bytes.Repeat([]byte{0x5A}, 300),
		[]byte("tail"),
	}
	boundaries := map[int]bool{0: true}
	for _, p := range payloads {
		if err := fw.Write(FrameScore, p); err != nil {
			t.Fatal(err)
		}
		boundaries[full.Len()] = true
	}
	stream := full.Bytes()
	for cut := 0; cut <= len(stream); cut++ {
		fr := NewFrameReader(bytes.NewReader(stream[:cut]))
		frames := 0
		for {
			_, p, err := fr.Read()
			if err == nil {
				if !bytes.Equal(p, payloads[frames]) {
					t.Fatalf("cut %d: frame %d corrupted", cut, frames)
				}
				frames++
				continue
			}
			if err == io.EOF {
				if !boundaries[cut] {
					t.Fatalf("cut %d: clean EOF mid-frame", cut)
				}
			} else if err == io.ErrUnexpectedEOF {
				if boundaries[cut] {
					t.Fatalf("cut %d: ErrUnexpectedEOF at a frame boundary", cut)
				}
				if !IsProtocolError(err) {
					t.Fatalf("cut %d: truncation not a protocol error", cut)
				}
			} else {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
			break
		}
	}
}

// TestReadKeepsSourceError pins that a failing source is not a malformed
// frame: a read error at the header start, mid-header or mid-payload comes
// back as itself, not as a protocol violation, while the same cuts ending
// cleanly still count as truncation.
func TestReadKeepsSourceError(t *testing.T) {
	frame := frameBytes(FrameScore, []byte("payload"))
	cause := errors.New("connection reset by peer")
	for _, c := range []struct {
		name string
		cut  int
	}{{"header start", 0}, {"mid-header", HeaderSize / 2}, {"mid-payload", HeaderSize + 3}} {
		_, _, err := NewFrameReader(io.MultiReader(bytes.NewReader(frame[:c.cut]), iotest.ErrReader(cause))).Read()
		if !errors.Is(err, cause) || IsProtocolError(err) {
			t.Errorf("%s: read error came back as %v (protocol error: %v), want the cause", c.name, err, IsProtocolError(err))
		}
		if c.cut == 0 {
			continue
		}
		if _, _, err := NewFrameReader(bytes.NewReader(frame[:c.cut])).Read(); err != io.ErrUnexpectedEOF || !IsProtocolError(err) {
			t.Errorf("%s: clean cut came back as %v, want io.ErrUnexpectedEOF as a protocol error", c.name, err)
		}
	}
}

func TestCorruptCRC(t *testing.T) {
	raw := frameBytes(FrameScore, []byte("payload under test"))
	// Flip one bit in every payload byte position in turn; each must
	// surface as ErrChecksum.
	for off := HeaderSize; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		_, _, err := NewFrameReader(bytes.NewReader(mut)).Read()
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("payload bit flip at %d: %v, want ErrChecksum", off, err)
		}
		if !IsProtocolError(err) {
			t.Fatalf("ErrChecksum not a protocol error")
		}
	}
}

func TestHeaderViolations(t *testing.T) {
	good := frameBytes(FrameScore, []byte("x"))
	mutate := func(off int, val byte) []byte {
		m := append([]byte(nil), good...)
		m[off] = val
		return m
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"bad magic", mutate(0, 'X'), ErrBadMagic},
		{"bad version", mutate(4, 99), ErrBadVersion},
		{"zero frame type", mutate(5, 0), ErrUnknownFrame},
		{"frame type past the last registered", mutate(5, byte(FrameTensor)+1), ErrUnknownFrame},
		{"reserved byte 6", mutate(6, 1), ErrBadReserved},
		{"reserved byte 7", mutate(7, 0xFF), ErrBadReserved},
	}
	for _, tc := range cases {
		_, _, err := NewFrameReader(bytes.NewReader(tc.raw)).Read()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if !IsProtocolError(err) {
			t.Errorf("%s: not classified as protocol error", tc.name)
		}
	}
}

// TestOversizedLengthPrefix pins the allocation bound: a hostile length
// prefix past MaxPayload is rejected from the header alone, without
// allocating or reading the claimed payload.
func TestOversizedLengthPrefix(t *testing.T) {
	raw := frameBytes(FrameScore, []byte("x"))[:HeaderSize]
	binary.LittleEndian.PutUint32(raw[8:12], MaxPayload+1)
	_, _, err := NewFrameReader(bytes.NewReader(raw)).Read()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized prefix: %v, want ErrFrameTooBig", err)
	}
	huge := frameBytes(FrameScore, nil)[:HeaderSize]
	binary.LittleEndian.PutUint32(huge[8:12], 0xFFFFFFFF)
	_, _, err = NewFrameReader(bytes.NewReader(huge)).Read()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("4GiB prefix: %v, want ErrFrameTooBig", err)
	}
}

func TestWriterRejectsOversizedPayload(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.Write(FrameScore, make([]byte, MaxPayload+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write: %v, want ErrFrameTooBig", err)
	}
}

// TestGarbageStream feeds interleaved garbage after a valid frame: the
// valid prefix decodes, the garbage surfaces as a protocol error.
func TestGarbageStream(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Write(FrameResult, []byte("good")); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("GARBAGE GARBAGE GARBAGE!")
	fr := NewFrameReader(&buf)
	if _, p, err := fr.Read(); err != nil || string(p) != "good" {
		t.Fatalf("valid prefix frame: %q, %v", p, err)
	}
	_, _, err := fr.Read()
	if err == nil || !IsProtocolError(err) {
		t.Fatalf("garbage tail: %v, want a protocol error", err)
	}
}

// TestReadSteadyStateAllocs pins the pooled-buffer contract: once the
// reader's payload buffer has grown to the workload's frame size,
// decoding allocates nothing.
func TestReadSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x77}, 2048)
	raw := frameBytes(FrameScore, payload)
	r := bytes.NewReader(raw)
	fr := NewFrameReader(r)
	if _, _, err := fr.Read(); err != nil { // warm the payload buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if _, _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("FrameReader.Read allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestWriteSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x33}, 2048)
	var buf bytes.Buffer
	buf.Grow(len(payload) * 2)
	fw := NewFrameWriter(&buf)
	if err := fw.Write(FrameScore, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := fw.Write(FrameScore, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("FrameWriter.Write allocates %.1f/op in steady state, want 0", allocs)
	}
}

// FuzzReadFrame is the satellite's decoder fuzz: arbitrary bytes must
// decode or fail with a classified protocol error / clean EOF — never
// panic, never hang, never report success with an inconsistent payload.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameBytes(FrameHello, nil))
	f.Add(frameBytes(FrameScore, []byte("seed payload")))
	f.Add(frameBytes(FrameGoAway, bytes.Repeat([]byte{1}, 64)))
	// Torn and corrupt seeds.
	whole := frameBytes(FrameResult, []byte("torn"))
	f.Add(whole[:len(whole)-2])
	f.Add(whole[:HeaderSize-3])
	crc := append([]byte(nil), whole...)
	crc[len(crc)-1] ^= 0xFF
	f.Add(crc)
	big := append([]byte(nil), whole[:HeaderSize]...)
	binary.LittleEndian.PutUint32(big[8:12], 0x7FFFFFFF)
	f.Add(big)
	f.Add([]byte("PLWF garbage that is not a frame at all ..........."))

	f.Fuzz(func(t *testing.T, in []byte) {
		fr := NewFrameReader(bytes.NewReader(in))
		for {
			ft, p, err := fr.Read()
			if err != nil {
				if err != io.EOF && !IsProtocolError(err) {
					t.Fatalf("unclassified error from pure byte input: %v", err)
				}
				return
			}
			if ft < FrameHello || ft > FrameTensor {
				t.Fatalf("accepted out-of-range frame type %d", ft)
			}
			if len(p) > MaxPayload {
				t.Fatalf("accepted payload of %d bytes past MaxPayload", len(p))
			}
		}
	})
}

// TestFileRecordRoundTrip pins the file layer: a header and tensors —
// including the floats JSON cannot carry, an empty tensor and a scalar —
// read back bit-exactly, and re-encode to the same bytes.
func TestFileRecordRoundTrip(t *testing.T) {
	type header struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	in := []nn.NamedTensor{
		{Name: "specials", Shape: []int{2, 3}, Data: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-310, -2.5}},
		{Name: "", Shape: []int{0}, Data: nil},
		{Name: "scalar", Shape: []int{}, Data: []float64{42}},
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, FrameCheckpoint, header{"test", 3}, in); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	var h header
	out, err := ReadFile(&buf, FrameCheckpoint, &h)
	if err != nil {
		t.Fatal(err)
	}
	if h != (header{"test", 3}) || len(out) != len(in) {
		t.Fatalf("read header %+v and %d tensors", h, len(out))
	}
	for i := range in {
		if out[i].Name != in[i].Name || !slices.Equal(out[i].Shape, in[i].Shape) || len(out[i].Data) != len(in[i].Data) {
			t.Fatalf("tensor %d: read %q %v", i, out[i].Name, out[i].Shape)
		}
		for j, v := range in[i].Data {
			if math.Float64bits(out[i].Data[j]) != math.Float64bits(v) {
				t.Fatalf("tensor %d value %d: %v, want %v bit-exactly", i, j, out[i].Data[j], v)
			}
		}
	}
	var again bytes.Buffer
	if err := WriteFile(&again, FrameCheckpoint, h, out); err != nil || !bytes.Equal(again.Bytes(), raw) {
		t.Fatalf("re-encode differs from the bytes read (err %v)", err)
	}

	if _, err := ReadFile(bytes.NewReader(raw), FrameArtifact, &h); !errors.Is(err, ErrUnknownFrame) {
		t.Fatalf("wrong file kind: %v, want ErrUnknownFrame", err)
	}
	spaced := append(frameBytes(FrameCheckpoint, []byte(`{"kind": "test","n":3}`)), raw[HeaderSize+len(`{"kind":"test","n":3}`):]...)
	if _, err := ReadFile(bytes.NewReader(spaced), FrameCheckpoint, &h); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("non-canonical header: %v, want ErrBadPayload", err)
	}
}

// TestParseTensorRejectsMalformed: every payload that is not exactly
// name + rank + dims + ∏dims values is rejected without a panic or an
// allocation sized by a hostile shape.
func TestParseTensorRejectsMalformed(t *testing.T) {
	good := []byte{1, 0, 'w', 1, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8}
	if _, ok := parseTensor(good); !ok {
		t.Fatal("well-formed payload rejected")
	}
	huge := []byte{0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	for name, p := range map[string][]byte{
		"empty":          {},
		"name past end":  {9, 0, 'w', 0},
		"dims past end":  {0, 0, 3, 1, 0, 0, 0},
		"short values":   good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"huge shape":     huge,
	} {
		if _, ok := parseTensor(p); ok {
			t.Errorf("%s: accepted", name)
		}
	}
}
