package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestPutFetchRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("pelican artifact payload")
	v, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 12 {
		t.Fatalf("version %q: want 12 hex chars", v)
	}
	got, err := s.Fetch(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetch returned different bytes")
	}
	// Idempotent re-put.
	v2, err := s.Put(payload)
	if err != nil || v2 != v {
		t.Fatalf("re-put: version %q err %v, want %q nil", v2, err, v)
	}
	st := s.Stats()
	if st.Artifacts != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("stats %+v: want 1 artifact, %d bytes", st, len(payload))
	}
}

func TestFetchMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.Fetch("deadbeef0000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCorruptArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	v, err := s.Put([]byte("soon to be corrupted"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in place.
	path := s.artifactPath(v)
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(v); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// The artifact moved to quarantine: gone from the CAS, never deleted.
	if s.Has(v) {
		t.Fatal("corrupt artifact still resident in CAS")
	}
	quar := s.QuarantinedVersions()
	if len(quar) != 1 || quar[0] != v {
		t.Fatalf("quarantine = %v, want [%s]", quar, v)
	}
	reason, err := os.ReadFile(filepath.Join(dir, "cas", "quarantine", v+reasonExt))
	if err != nil || len(reason) == 0 {
		t.Fatalf("quarantine reason missing: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Artifacts != 0 {
		t.Fatalf("stats %+v: want quarantined=1 artifacts=0", st)
	}
	// A second fetch reports not-found, not corrupt: the artifact is out
	// of serving circulation.
	if _, err := s.Fetch(v); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refetch err = %v, want ErrNotFound", err)
	}
}

func TestSizeMismatchDetected(t *testing.T) {
	s, _ := Open(t.TempDir())
	v, _ := s.Put([]byte("original content here"))
	if err := os.WriteFile(s.artifactPath(v), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(v); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestRefcountGC(t *testing.T) {
	s, _ := Open(t.TempDir())
	v1, _ := s.Put([]byte("artifact one"))
	v2, _ := s.Put([]byte("artifact two"))
	v3, _ := s.Put([]byte("artifact three"))
	s.Retain(v1)
	s.Retain(v2)
	s.Retain(v2) // two slots share v2
	removed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != v3 {
		t.Fatalf("gc removed %v, want [%s]", removed, v3)
	}
	s.Release(v2)
	if removed, _ = s.GC(); len(removed) != 0 {
		t.Fatalf("gc removed %v while one ref remains", removed)
	}
	s.Release(v2)
	if removed, _ = s.GC(); len(removed) != 1 || removed[0] != v2 {
		t.Fatalf("gc removed %v, want [%s]", removed, v2)
	}
	if !s.Has(v1) {
		t.Fatal("retained artifact was deleted")
	}
	if st := s.Stats(); st.GCTotal != 2 || st.Artifacts != 1 {
		t.Fatalf("stats %+v: want gc=2 artifacts=1", st)
	}
}

func TestGCSparesQuarantine(t *testing.T) {
	s, _ := Open(t.TempDir())
	v, _ := s.Put([]byte("will be quarantined"))
	if err := s.Quarantine(v, "test says so"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if quar := s.QuarantinedVersions(); len(quar) != 1 {
		t.Fatalf("quarantine = %v after GC, want the artifact kept", quar)
	}
}

func TestOpenInventoriesExisting(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put([]byte("persisted across opens"))
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Artifacts != 1 {
		t.Fatalf("reopened stats %+v: want 1 artifact", st)
	}
}

func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "two" {
		t.Fatalf("read %q, want %q", b, "two")
	}
	// No tmp litter.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(ents))
	}
}

// Has reports whether version is resident (verified or not) in the CAS.
func (s *Store) Has(version string) bool {
	_, err := os.Stat(s.artifactPath(version))
	return err == nil
}
