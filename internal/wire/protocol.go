package wire

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"

	"repro/internal/data"
	"repro/internal/nids"
)

// Payload layouts (all integers little-endian). The handshake frames
// (Hello, Schema) carry JSON — they happen once per connection and never
// touch the hot path. Score/Result/Error payloads are packed binary.
//
// ScoreRequest payload:
//
//	offset size field
//	0      8    request id (uint64, non-zero)
//	8      4    deadline in ms (uint32; 0 = server default; shorten-only,
//	            exactly like the HTTP plane's X-Timeout-Ms)
//	12     8    schema fingerprint (uint64 FNV-1a, see Fingerprint)
//	20     1    tag length L (0 = live slot, like the HTTP plane)
//	21     L    tag bytes
//	21+L   2    record count R
//	23+L   2    numeric feature count NN
//	25+L   2    categorical feature count NC
//	27+L   R×(NN×4 + NC×2) packed records: NN little-endian f32 numerics
//	            (the infer engine's native layout) then NC uint16 vocabulary
//	            indices (UnknownIndex = out-of-vocabulary → one-hot all-zeros)
//
// ScoreResponse payload:
//
//	0      8    request id
//	8      1    model version length L
//	9      L    model version bytes
//	9+L    2    verdict count R
//	11+L   R×7  packed verdicts: 1 flags byte (bit0 attack, bit1 failed),
//	            int16 class, f32 score
//
// Error payload:
//
//	0      8    request id (0 = connection-level fault)
//	8      2    status (HTTP-mapped: 400, 429, 503, ...)
//	10     2    message length L
//	12     L    message bytes

// UnknownIndex is the categorical wire index meaning "value not in the
// vocabulary"; the server decodes it to the empty string, which one-hot
// encodes as all-zeros (data's get_dummies behaviour for unseen values).
const UnknownIndex = 0xFFFF

// maxRecordsPerFrame bounds the declared record count of one score
// request; combined with MaxPayload it keeps a hostile count field from
// sizing huge decode slabs.
const maxRecordsPerFrame = 1 << 15

// SchemaInfo is the Schema frame's JSON payload: everything a client
// needs to build a RecordEncoder and verify it agrees with the server on
// the feature layout.
type SchemaInfo struct {
	ModelVersion string      `json:"model_version"`
	Fingerprint  uint64      `json:"fingerprint"`
	Schema       data.Schema `json:"schema"`
}

// EncodeSchemaInfo marshals the Schema frame payload (handshake only).
func EncodeSchemaInfo(info SchemaInfo) ([]byte, error) { return json.Marshal(info) }

// DecodeSchemaInfo unmarshals the Schema frame payload (handshake only).
func DecodeSchemaInfo(p []byte) (SchemaInfo, error) {
	var info SchemaInfo
	if err := json.Unmarshal(p, &info); err != nil {
		return SchemaInfo{}, ErrBadPayload
	}
	return info, nil
}

// Fingerprint hashes a schema's feature layout (numeric names, categorical
// names and vocabularies, in order — exactly the fields SameFeatures
// compares) with FNV-1a 64. Every score request carries it so a model
// promote that changes the vocabulary can never silently mis-decode
// in-flight indices: the server rejects the mismatch and the client
// re-handshakes. Class names are excluded, as in SameFeatures.
func Fingerprint(s data.Schema) uint64 {
	h := fnv.New64a()
	sep := [1]byte{0}
	for _, n := range s.NumericNames {
		h.Write([]byte(n))
		h.Write(sep[:])
	}
	sep[0] = 1
	h.Write(sep[:])
	sep[0] = 0
	for _, c := range s.Categorical {
		h.Write([]byte(c.Name))
		h.Write(sep[:])
		for _, v := range c.Values {
			h.Write([]byte(v))
			h.Write(sep[:])
		}
		sep[0] = 2
		h.Write(sep[:])
		sep[0] = 0
	}
	return h.Sum64()
}

// ScoreRequest is the parsed view of a score request payload. Tag and
// records alias the frame payload buffer — valid only as long as it is.
type ScoreRequest struct {
	ID          uint64
	DeadlineMS  uint32
	Fingerprint uint64
	Tag         []byte
	Count       int
	NumNumeric  int
	NumCat      int
	records     []byte
}

// recordSize returns the packed byte size of one record.
func (r *ScoreRequest) recordSize() int { return r.NumNumeric*4 + r.NumCat*2 }

// ParseScoreRequest decodes a score request payload header and validates
// the packed-record region's size. The returned views alias p.
//
//pelican:noalloc
func ParseScoreRequest(p []byte) (ScoreRequest, error) {
	var req ScoreRequest
	if len(p) < 21 {
		return req, ErrBadPayload
	}
	req.ID = binary.LittleEndian.Uint64(p[0:8])
	req.DeadlineMS = binary.LittleEndian.Uint32(p[8:12])
	req.Fingerprint = binary.LittleEndian.Uint64(p[12:20])
	tl := int(p[20])
	if len(p) < 21+tl+6 {
		return req, ErrBadPayload
	}
	req.Tag = p[21 : 21+tl]
	off := 21 + tl
	req.Count = int(binary.LittleEndian.Uint16(p[off : off+2]))
	req.NumNumeric = int(binary.LittleEndian.Uint16(p[off+2 : off+4]))
	req.NumCat = int(binary.LittleEndian.Uint16(p[off+4 : off+6]))
	if req.ID == 0 || req.Count == 0 || req.Count > maxRecordsPerFrame {
		return req, ErrBadPayload
	}
	req.records = p[off+6:]
	if len(req.records) != req.Count*req.recordSize() {
		return req, ErrBadPayload
	}
	return req, nil
}

// RecordBuffer owns the pooled slabs a connection decodes score requests
// into. One buffer per in-flight request slot; after the first few frames
// the slabs are warm and Decode allocates nothing.
type RecordBuffer struct {
	payload  []byte
	recs     []data.Record
	numerics []float64
	cats     []string
}

// SetPayload copies a frame payload into the buffer's own storage, so the
// request survives the FrameReader recycling its buffer on the next Read.
// Returns the parsed request re-pointed at the copy.
//
//pelican:noalloc
func (b *RecordBuffer) SetPayload(p []byte) (ScoreRequest, error) {
	if cap(b.payload) < len(p) {
		b.payload = make([]byte, len(p))
	}
	b.payload = b.payload[:len(p)]
	copy(b.payload, p)
	return ParseScoreRequest(b.payload)
}

// Decode materializes req's packed records against schema into the
// buffer's pooled slabs. The returned records and their backing storage
// are owned by the buffer and recycled on the next Decode. A vocabulary
// index outside the schema (other than UnknownIndex) is a protocol error:
// it means client and server disagree on the vocabulary despite the
// fingerprint check, and decoding it would score garbage.
//
//pelican:noalloc
func (b *RecordBuffer) Decode(req *ScoreRequest, schema data.Schema) ([]data.Record, error) {
	if req.NumNumeric != schema.NumNumeric() || req.NumCat != len(schema.Categorical) {
		return nil, ErrBadPayload
	}
	n, nn, nc := req.Count, req.NumNumeric, req.NumCat
	if cap(b.recs) < n {
		b.recs = make([]data.Record, n)
	}
	if cap(b.numerics) < n*nn {
		b.numerics = make([]float64, n*nn)
	}
	if cap(b.cats) < n*nc {
		b.cats = make([]string, n*nc)
	}
	recs := b.recs[:n]
	nums := b.numerics[:n*nn]
	cats := b.cats[:n*nc]
	src := req.records
	rs := req.recordSize()
	for i := 0; i < n; i++ {
		p := src[i*rs : (i+1)*rs]
		rn := nums[i*nn : (i+1)*nn : (i+1)*nn]
		rc := cats[i*nc : (i+1)*nc : (i+1)*nc]
		for j := 0; j < nn; j++ {
			rn[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[j*4:])))
		}
		p = p[nn*4:]
		for j := 0; j < nc; j++ {
			idx := binary.LittleEndian.Uint16(p[j*2:])
			if idx == UnknownIndex {
				rc[j] = ""
				continue
			}
			if int(idx) >= len(schema.Categorical[j].Values) {
				return nil, ErrBadPayload
			}
			rc[j] = schema.Categorical[j].Values[idx]
		}
		recs[i] = data.Record{Numeric: rn, Categorical: rc}
	}
	return recs, nil
}

// RecordEncoder packs records for the wire against a fixed schema. Built
// once per handshake; the vocabulary maps make categorical encoding one
// hash lookup per feature.
type RecordEncoder struct {
	fingerprint uint64
	numNumeric  int
	vocab       []map[string]uint16
}

// NewRecordEncoder builds an encoder for schema.
func NewRecordEncoder(schema data.Schema) *RecordEncoder {
	e := &RecordEncoder{
		fingerprint: Fingerprint(schema),
		numNumeric:  schema.NumNumeric(),
		vocab:       make([]map[string]uint16, len(schema.Categorical)),
	}
	for i, c := range schema.Categorical {
		m := make(map[string]uint16, len(c.Values))
		for j, v := range c.Values {
			m[v] = uint16(j)
		}
		e.vocab[i] = m
	}
	return e
}

// Fingerprint returns the schema fingerprint stamped into every request.
func (e *RecordEncoder) Fingerprint() uint64 { return e.fingerprint }

// AppendScoreRequest appends a packed score request payload to dst and
// returns the extended slice. Records whose feature counts don't match
// the schema, or batches past the per-frame cap, return ErrBadPayload.
// Numeric features are narrowed to f32 — the precision the serving
// engine's default f32 path computes in anyway.
//
//pelican:noalloc
func (e *RecordEncoder) AppendScoreRequest(dst []byte, id uint64, deadlineMS uint32, tag string, recs []*data.Record) ([]byte, error) {
	if id == 0 || len(recs) == 0 || len(recs) > maxRecordsPerFrame || len(tag) > 255 {
		return dst, ErrBadPayload
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], id)
	dst = append(dst, scratch[:8]...)
	binary.LittleEndian.PutUint32(scratch[:4], deadlineMS)
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint64(scratch[:], e.fingerprint)
	dst = append(dst, scratch[:8]...)
	dst = append(dst, byte(len(tag)))
	dst = append(dst, tag...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(recs)))
	dst = append(dst, scratch[:2]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(e.numNumeric))
	dst = append(dst, scratch[:2]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(e.vocab)))
	dst = append(dst, scratch[:2]...)
	for _, r := range recs {
		if len(r.Numeric) != e.numNumeric || len(r.Categorical) != len(e.vocab) {
			return dst, ErrBadPayload
		}
		for _, v := range r.Numeric {
			binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(float32(v)))
			dst = append(dst, scratch[:4]...)
		}
		for j, v := range r.Categorical {
			idx, ok := e.vocab[j][v]
			if !ok {
				idx = UnknownIndex
			}
			binary.LittleEndian.PutUint16(scratch[:2], idx)
			dst = append(dst, scratch[:2]...)
		}
	}
	return dst, nil
}

// ScoreResponse is the parsed view of a score response payload. Version
// and the verdict region alias the frame payload buffer.
type ScoreResponse struct {
	ID      uint64
	Version []byte
	Count   int
	body    []byte
}

const verdictSize = 7

// AppendScoreResponse appends a packed score response payload to dst.
// RuleID is not carried: the scoring plane serves model detectors, whose
// verdicts never set it (the HTTP plane omits it the same way).
//
//pelican:noalloc
func AppendScoreResponse(dst []byte, id uint64, version string, verdicts []nids.Verdict) ([]byte, error) {
	if len(version) > 255 || len(verdicts) > maxRecordsPerFrame {
		return dst, ErrBadPayload
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], id)
	dst = append(dst, scratch[:8]...)
	dst = append(dst, byte(len(version)))
	dst = append(dst, version...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(verdicts)))
	dst = append(dst, scratch[:2]...)
	for i := range verdicts {
		v := &verdicts[i]
		var flags byte
		if v.IsAttack {
			flags |= 1
		}
		if v.Failed {
			flags |= 2
		}
		dst = append(dst, flags)
		binary.LittleEndian.PutUint16(scratch[:2], uint16(int16(v.Class)))
		dst = append(dst, scratch[:2]...)
		binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(float32(v.Score)))
		dst = append(dst, scratch[:4]...)
	}
	return dst, nil
}

// ParseScoreResponse decodes a score response payload header and
// validates the verdict region's size. The returned views alias p.
//
//pelican:noalloc
func ParseScoreResponse(p []byte) (ScoreResponse, error) {
	var resp ScoreResponse
	if len(p) < 9 {
		return resp, ErrBadPayload
	}
	resp.ID = binary.LittleEndian.Uint64(p[0:8])
	vl := int(p[8])
	if len(p) < 9+vl+2 {
		return resp, ErrBadPayload
	}
	resp.Version = p[9 : 9+vl]
	resp.Count = int(binary.LittleEndian.Uint16(p[9+vl : 9+vl+2]))
	resp.body = p[9+vl+2:]
	if resp.Count > maxRecordsPerFrame || len(resp.body) != resp.Count*verdictSize {
		return resp, ErrBadPayload
	}
	return resp, nil
}

// DecodeVerdicts unpacks resp's verdicts into the caller-sized slice
// (len(verdicts) must equal resp.Count).
//
//pelican:noalloc
func (resp *ScoreResponse) DecodeVerdicts(verdicts []nids.Verdict) error {
	if len(verdicts) != resp.Count {
		return ErrBadPayload
	}
	for i := 0; i < resp.Count; i++ {
		p := resp.body[i*verdictSize : (i+1)*verdictSize]
		v := &verdicts[i]
		v.IsAttack = p[0]&1 != 0
		v.Failed = p[0]&2 != 0
		v.Class = int(int16(binary.LittleEndian.Uint16(p[1:3])))
		v.RuleID = 0
		v.Score = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[3:7])))
	}
	return nil
}

// AppendError appends an error payload (id 0 = connection-level) to dst.
//
//pelican:noalloc
func AppendError(dst []byte, id uint64, status int, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], id)
	dst = append(dst, scratch[:8]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(status))
	dst = append(dst, scratch[:2]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(msg)))
	dst = append(dst, scratch[:2]...)
	dst = append(dst, msg...)
	return dst
}

// WireError is a decoded Error frame. The scoring plane maps statuses
// exactly as its HTTP twin does: 429 shed, 503 expired/draining, 400
// malformed, 409 schema fingerprint mismatch.
type WireError struct {
	ID     uint64
	Status int
	Msg    string
}

// Error implements error.
func (e *WireError) Error() string { return "wire: remote error " + e.Msg }

// StatusCode is what internal/resilience classifies retries and breaker
// failures on.
func (e *WireError) StatusCode() int { return e.Status }

// ParseError decodes an error payload. The message is copied (error
// frames are off the hot path — something already went wrong).
func ParseError(p []byte) (WireError, error) {
	if len(p) < 12 {
		return WireError{}, ErrBadPayload
	}
	id := binary.LittleEndian.Uint64(p[0:8])
	status := int(binary.LittleEndian.Uint16(p[8:10]))
	ml := int(binary.LittleEndian.Uint16(p[10:12]))
	if len(p) != 12+ml {
		return WireError{}, ErrBadPayload
	}
	return WireError{ID: id, Status: status, Msg: string(p[12 : 12+ml])}, nil
}
