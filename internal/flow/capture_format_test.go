package flow

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Capture records flow streams to an io.Writer and replays them later —
// the repository's pcap analogue. Captures make incidents reproducible:
// a stream that triggered alerts can be stored, attached to an incident,
// and re-run against a new detector build. No binary writes or reads a
// capture yet, so the format lives with its tests until one does.

// captureHeader identifies the stream format.
type captureHeader struct {
	Magic   string
	Version int
	Count   int // number of flows, -1 if unknown (streamed)
}

const (
	captureMagic   = "pelican-flowlog"
	captureVersion = 1
)

// Writer serializes flows to a capture stream.
type Writer struct {
	enc   *gob.Encoder
	count int
}

// NewWriter starts a capture on w.
func NewWriter(w io.Writer) (*Writer, error) {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(captureHeader{Magic: captureMagic, Version: captureVersion, Count: -1}); err != nil {
		return nil, fmt.Errorf("flow: write capture header: %w", err)
	}
	return &Writer{enc: enc}, nil
}

// Write appends one flow to the capture.
func (w *Writer) Write(f Flow) error {
	if err := w.enc.Encode(f); err != nil {
		return fmt.Errorf("flow: write flow %d: %w", f.ID, err)
	}
	w.count++
	return nil
}

// Count returns the number of flows written so far.
func (w *Writer) Count() int { return w.count }

// Reader replays a capture stream.
type Reader struct {
	dec *gob.Decoder
}

// NewReader opens a capture on r, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	dec := gob.NewDecoder(r)
	var h captureHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("flow: read capture header: %w", err)
	}
	if h.Magic != captureMagic {
		return nil, fmt.Errorf("flow: not a capture stream (magic %q)", h.Magic)
	}
	if h.Version != captureVersion {
		return nil, fmt.Errorf("flow: unsupported capture version %d", h.Version)
	}
	return &Reader{dec: dec}, nil
}

// Next returns the next flow, or io.EOF at end of capture.
func (r *Reader) Next() (Flow, error) {
	var f Flow
	if err := r.dec.Decode(&f); err != nil {
		if err == io.EOF {
			return Flow{}, io.EOF
		}
		return Flow{}, fmt.Errorf("flow: read flow: %w", err)
	}
	return f, nil
}

// ReadAll drains the capture into a slice.
func (r *Reader) ReadAll() ([]Flow, error) {
	var out []Flow
	for {
		f, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
}

// CaptureN records exactly n flows from src into w.
func CaptureN(w io.Writer, src *Source, n int) error {
	cw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := cw.Write(src.Next()); err != nil {
			return err
		}
	}
	return nil
}
