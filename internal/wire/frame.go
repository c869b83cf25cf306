// Package wire is the scoring plane's binary streaming transport: a
// length-prefixed, CRC-protected framing protocol over persistent TCP
// connections, with client-side streaming of flow records, pipelined
// out-of-order responses correlated by request id, and connection
// multiplexing. It exists because HTTP/JSON pays a per-record
// encode/decode and per-request framing tax that, at millions-of-users
// QPS, dwarfs the network pass itself: a wire score request carries each
// numeric feature as 4 little-endian bytes (the infer engine's native f32
// layout) and each categorical feature as a 2-byte vocabulary index,
// against ~15× that in JSON decimal text.
//
// The package is stdlib-only and deliberately knows nothing about the
// serving plane: internal/serve owns the listener that bridges decoded
// score requests onto its per-slot batcher/scorer path (inheriting
// admission control, deadlines, tracing, and graceful drain). The Client
// here is a scoring client only: a nids pipeline scores remotely through
// serve.RemoteDetector, not through this package.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      4    magic "PLWF"
//	4      1    protocol version (1)
//	5      1    frame type
//	6      2    reserved (must be 0)
//	8      4    payload length N (max 16 MiB)
//	12     4    CRC-32 (IEEE) of the payload
//	16     N    payload
//
// A decoder that sees a bad magic, an unknown version, a non-zero
// reserved field, an oversized length, or a CRC mismatch reports a
// protocol error; the connection owner counts it and closes the
// connection — framing is not resynchronizable mid-stream by design.
//
// The same frames are the on-disk format of every binary file the system
// writes (model artifacts, adapt checkpoints), so every byte of one is
// under a CRC: a JSON header frame whose type names the file kind, then
// one FrameTensor per named float64 array — u16 name length, name, u8
// rank, u32 dims, then the values' IEEE-754 bits (NaN, ±Inf, −0 exact).
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/nn"
)

// Protocol constants.
const (
	// Version is the protocol version this package speaks. A server
	// answers a Hello carrying an unsupported version with an Error frame
	// and closes; adding frame types or appending payload fields bumps
	// this only when an old peer could misparse the bytes.
	Version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// MaxPayload bounds a frame's payload so a corrupt or hostile length
	// prefix cannot make a peer allocate unbounded memory. 16 MiB fits
	// ~25k NSL-KDD-shaped records per frame — far past any sane batch.
	MaxPayload = 16 << 20
)

// magic identifies a Pelican wire frame ("PLWF").
var magic = [4]byte{'P', 'L', 'W', 'F'}

// FrameType discriminates frame payloads.
type FrameType uint8

// Frame types. Hello/Schema are the connection handshake, Score/Result
// the pipelined request/response pair, Error a request- or
// connection-scoped failure, GoAway the server's drain notice.
const (
	// FrameHello (client → server) opens a connection: the client
	// announces its protocol version and asks for the serving schema.
	FrameHello FrameType = 1
	// FrameSchema (server → client) answers a Hello with the live model's
	// schema, version, and schema fingerprint (JSON payload — handshake
	// only, never on the hot path).
	FrameSchema FrameType = 2
	// FrameScore (client → server) is one scoring request: request id,
	// deadline, schema fingerprint, tag, and packed flow records.
	FrameScore FrameType = 3
	// FrameResult (server → client) is one scoring response: request id,
	// answering model version, and packed verdicts. Results may arrive in
	// any order relative to their requests (pipelining).
	FrameResult FrameType = 4
	// FrameError (server → client) reports a failed request (id != 0) or
	// a connection-level fault (id == 0) with an HTTP-mapped status.
	FrameError FrameType = 5
	// FrameGoAway (server → client) announces a drain: in-flight requests
	// will still be answered, new ones are rejected, and the server
	// closes the connection once the last in-flight response is written.
	FrameGoAway FrameType = 6
	// FrameArtifact opens a .plcn model artifact file: JSON metadata.
	// File record types never travel on a connection; both connection
	// readers reject them as protocol errors.
	FrameArtifact FrameType = 7
	// FrameCheckpoint opens an adapt checkpoint file: JSON scalar state.
	FrameCheckpoint FrameType = 8
	// FrameTensor is one named float64 array following a file header.
	FrameTensor FrameType = 9
)

// Protocol errors a decoder reports. All of them mean "close the
// connection and count a protocol error" to the connection owner.
var (
	ErrBadMagic     = errors.New("wire: bad frame magic")
	ErrBadVersion   = errors.New("wire: unsupported protocol version")
	ErrBadReserved  = errors.New("wire: non-zero reserved header field")
	ErrFrameTooBig  = errors.New("wire: frame payload exceeds MaxPayload")
	ErrChecksum     = errors.New("wire: frame CRC mismatch")
	ErrBadPayload   = errors.New("wire: malformed frame payload")
	ErrUnknownFrame = errors.New("wire: unknown frame type")
)

// IsProtocolError reports whether err is a framing/payload protocol
// violation (as opposed to an I/O error like a closed connection). A
// truncated stream surfaces as io.ErrUnexpectedEOF, which also counts:
// a peer that stops mid-frame left the stream unparseable.
func IsProtocolError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrBadReserved) || errors.Is(err, ErrFrameTooBig) ||
		errors.Is(err, ErrChecksum) || errors.Is(err, ErrBadPayload) ||
		errors.Is(err, ErrUnknownFrame) || errors.Is(err, io.ErrUnexpectedEOF)
}

// FrameReader decodes frames from a stream. The payload buffer is owned
// by the reader and recycled across Read calls: a caller that needs the
// payload past the next Read must copy it. Not safe for concurrent use —
// each connection has exactly one reader goroutine.
type FrameReader struct {
	r       io.Reader
	hdr     [HeaderSize]byte
	payload []byte
}

// NewFrameReader wraps r. Callers hand in a buffered reader when the
// underlying stream is a raw connection.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Read decodes the next frame, returning its type and payload. The
// payload slice aliases the reader's recycled buffer — valid only until
// the next Read. io.EOF is returned only on a clean boundary (no bytes of
// a next frame read); a stream that ends mid-frame returns
// io.ErrUnexpectedEOF.
//
//pelican:noalloc
func (fr *FrameReader) Read() (FrameType, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, io.ErrUnexpectedEOF
	}
	if fr.hdr[0] != magic[0] || fr.hdr[1] != magic[1] || fr.hdr[2] != magic[2] || fr.hdr[3] != magic[3] {
		return 0, nil, ErrBadMagic
	}
	if fr.hdr[4] != Version {
		return 0, nil, ErrBadVersion
	}
	if fr.hdr[6] != 0 || fr.hdr[7] != 0 {
		return 0, nil, ErrBadReserved
	}
	ft := FrameType(fr.hdr[5])
	if ft < FrameHello || ft > FrameTensor {
		return 0, nil, ErrUnknownFrame
	}
	n := binary.LittleEndian.Uint32(fr.hdr[8:12])
	if n > MaxPayload {
		return 0, nil, ErrFrameTooBig
	}
	want := binary.LittleEndian.Uint32(fr.hdr[12:16])
	if cap(fr.payload) < int(n) {
		fr.payload = make([]byte, n)
	}
	p := fr.payload[:n]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(p) != want {
		return 0, nil, ErrChecksum
	}
	return ft, p, nil
}

// FrameWriter encodes frames onto a stream. Not safe for concurrent use —
// each connection has exactly one writer goroutine, which serializes the
// pipelined responses.
type FrameWriter struct {
	w   io.Writer
	hdr [HeaderSize]byte
}

// NewFrameWriter wraps w. Callers hand in a buffered writer when the
// underlying stream is a raw connection, and must flush it themselves.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write frames payload as one frame of type ft.
//
//pelican:noalloc
func (fw *FrameWriter) Write(ft FrameType, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooBig
	}
	fw.hdr[0], fw.hdr[1], fw.hdr[2], fw.hdr[3] = magic[0], magic[1], magic[2], magic[3]
	fw.hdr[4] = Version
	fw.hdr[5] = byte(ft)
	fw.hdr[6], fw.hdr[7] = 0, 0
	binary.LittleEndian.PutUint32(fw.hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fw.hdr[12:16], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// WriteFile writes a file record to w: hdr as the JSON payload of a frame
// of type kind, then one FrameTensor per tensor, in order. The bytes are a
// pure function of (kind, hdr, tensors).
func WriteFile(w io.Writer, kind FrameType, hdr any, tensors []nn.NamedTensor) error {
	p, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("wire: file header: %w", err)
	}
	fw := NewFrameWriter(w)
	if err := fw.Write(kind, p); err != nil {
		return err
	}
	for _, t := range tensors {
		p = append(binary.LittleEndian.AppendUint16(p[:0], uint16(len(t.Name))), t.Name...)
		p = append(p, byte(len(t.Shape)))
		for _, d := range t.Shape {
			p = binary.LittleEndian.AppendUint32(p, uint32(d))
		}
		for _, v := range t.Data {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
		if err := fw.Write(FrameTensor, p); err != nil {
			return fmt.Errorf("wire: tensor %q: %w", t.Name, err)
		}
	}
	return nil
}

// ReadFile reads a file record written by WriteFile, decoding its header
// into hdr. The header must be a frame of type kind holding the canonical
// JSON of the decoded value and the rest well-formed tensors, so a file
// that reads back re-encodes to the same bytes. Callers check the tensor
// count their header declares: that rejects a file cut between frames.
func ReadFile(r io.Reader, kind FrameType, hdr any) ([]nn.NamedTensor, error) {
	fr := NewFrameReader(r)
	ft, p, err := fr.Read()
	switch {
	case err != nil:
		return nil, err
	case ft != kind:
		return nil, fmt.Errorf("%w: file opens with frame type %d, want %d", ErrUnknownFrame, ft, kind)
	case json.Unmarshal(p, hdr) != nil:
		return nil, fmt.Errorf("%w: file header is not JSON of the expected shape", ErrBadPayload)
	}
	if canon, err := json.Marshal(hdr); err != nil || !bytes.Equal(canon, p) {
		return nil, fmt.Errorf("%w: file header is not canonical JSON", ErrBadPayload)
	}
	var tensors []nn.NamedTensor
	for {
		ft, p, err := fr.Read()
		if err == io.EOF {
			return tensors, nil
		}
		if err != nil {
			return nil, err
		}
		t, ok := parseTensor(p)
		if ft != FrameTensor || !ok {
			return nil, fmt.Errorf("%w: frame %d is not a well-formed tensor", ErrBadPayload, len(tensors)+1)
		}
		tensors = append(tensors, t)
	}
}

// parseTensor decodes a FrameTensor payload, validating sizes exactly: the
// payload holds the declared values and nothing else.
func parseTensor(p []byte) (t nn.NamedTensor, ok bool) {
	if len(p) < 2 {
		return t, false
	}
	l := 2 + int(binary.LittleEndian.Uint16(p))
	if len(p) <= l || len(p) < l+1+4*int(p[l]) {
		return t, false
	}
	t.Name, t.Shape = string(p[2:l]), make([]int, p[l])
	dims, vals := p[l+1:], p[l+1+4*len(t.Shape):]
	n := 1
	for i := range t.Shape {
		t.Shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
		if n *= t.Shape[i]; n > len(vals)/8 { // n ≤ 2^21 before, so n·dim < 2^53
			return t, false
		}
	}
	if len(vals) != 8*n {
		return t, false
	}
	t.Data = make([]float64, n)
	for i := range t.Data {
		t.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	return t, true
}
