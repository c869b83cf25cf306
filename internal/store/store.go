// Package store is the durable half of the control plane: a
// content-addressed artifact store (CAS) plus one registry state file.
// pelican-serve writes every artifact through the CAS and, after every
// slot lifecycle op, atomically rewrites the state file, so a process
// death — clean or kill -9 — loses nothing but the ops that had not yet
// returned to their caller.
//
// The package is stdlib-only and deliberately silent: it returns
// structured recovery reports instead of logging, so callers own the
// operator-facing story.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	artifactExt = ".plcn"
	reasonExt   = ".plcn.reason"
)

// ErrCorrupt wraps an integrity failure on read: an artifact's bytes no
// longer hash to their content address, or the registry state file is
// torn or fails its checksum. A corrupt artifact is moved to quarantine
// before the error is returned, so it can never be served and never
// silently vanishes.
var ErrCorrupt = errors.New("store: integrity check failed")

// ErrNotFound reports a version absent from the CAS.
var ErrNotFound = errors.New("store: artifact not found")

// Version is the content address of an artifact: the first 12 hex
// digits of its SHA-256, matching the version stamped into serve
// artifacts so the CAS key and the registry version are the same
// string.
func Version(b []byte) string { return VersionOf(sha256.Sum256(b)) }

// VersionOf is Version given the SHA-256 of the bytes, for a reader that
// hashes a file as it parses it.
func VersionOf(sum [sha256.Size]byte) string { return hex.EncodeToString(sum[:6]) }

// Stats is a point-in-time snapshot of the store for telemetry.
type Stats struct {
	Artifacts   int   // verified artifacts resident in the CAS
	Bytes       int64 // total bytes of those artifacts
	GCTotal     int64 // artifacts deleted by GC since process start
	Quarantined int64 // artifacts quarantined since process start
}

// Store is the on-disk state directory: CAS under cas/, quarantine
// under cas/quarantine/, the registry state file under journal/. Safe
// for concurrent use.
type Store struct {
	dir     string
	casDir  string
	quarDir string

	mu        sync.Mutex
	refs      map[string]int
	artifacts int
	bytes     int64

	gcTotal     atomic.Int64
	quarantined atomic.Int64
}

// Open creates (if needed) and opens the state directory. Existing CAS
// entries are inventoried but not verified — verification happens on
// every Fetch, which is the only path to serving bytes.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:     dir,
		casDir:  filepath.Join(dir, "cas"),
		quarDir: filepath.Join(dir, "cas", "quarantine"),
		refs:    map[string]int{},
	}
	for _, d := range []string{s.casDir, s.quarDir, filepath.Join(dir, "journal")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	ents, err := os.ReadDir(s.casDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), artifactExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.artifacts++
		s.bytes += info.Size()
	}
	return s, nil
}

// JournalDir returns the directory the registry state file lives in.
func (s *Store) JournalDir() string { return filepath.Join(s.dir, "journal") }

func (s *Store) artifactPath(version string) string {
	return filepath.Join(s.casDir, version+artifactExt)
}

// Put stores b under its content address and returns the version. The
// write is atomic (tmp + rename) and fsynced — after Put returns, the
// artifact survives power loss. Put is idempotent: an existing entry
// for the same version is left untouched.
func (s *Store) Put(b []byte) (string, error) {
	version := Version(b)
	path := s.artifactPath(version)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(path); err == nil {
		return version, nil
	}
	if err := WriteAtomic(path, b); err != nil {
		return "", err
	}
	s.artifacts++
	s.bytes += int64(len(b))
	return version, nil
}

// Fetch reads and verifies the artifact for version. Every read pays
// full verification: the SHA-256 of the bytes must match the content
// address itself. A mismatch quarantines the artifact and returns
// ErrCorrupt — corrupt bytes are never handed to a caller.
func (s *Store) Fetch(version string) ([]byte, error) {
	b, err := os.ReadFile(s.artifactPath(version))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, version)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	if got := Version(b); got != version {
		err := fmt.Errorf("%w: %s: sha256 mismatch (content hashes to %s)", ErrCorrupt, version, got)
		if qerr := s.Quarantine(version, err.Error()); qerr != nil {
			return nil, fmt.Errorf("%w (quarantine also failed: %v)", err, qerr)
		}
		return nil, err
	}
	return b, nil
}

// Retain adds one reference to version. References are in-memory —
// they encode the live topology (slots plus the rollback target) and
// are rebuilt from the state file at recovery.
func (s *Store) Retain(version string) {
	s.mu.Lock()
	s.refs[version]++
	s.mu.Unlock()
}

// Release drops one reference to version. It never deletes — call GC
// to sweep unreferenced artifacts.
func (s *Store) Release(version string) {
	s.mu.Lock()
	if s.refs[version] > 0 {
		s.refs[version]--
	}
	if s.refs[version] == 0 {
		delete(s.refs, version)
	}
	s.mu.Unlock()
}

// GC deletes every CAS artifact with zero references and returns the
// versions removed. Quarantined artifacts are never touched.
func (s *Store) GC() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.casDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var removed []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, artifactExt) {
			continue
		}
		version := strings.TrimSuffix(name, artifactExt)
		if s.refs[version] > 0 {
			continue
		}
		info, _ := e.Info()
		if err := os.Remove(filepath.Join(s.casDir, name)); err != nil {
			return removed, fmt.Errorf("store: gc %s: %w", version, err)
		}
		removed = append(removed, version)
		s.artifacts--
		if info != nil {
			s.bytes -= info.Size()
		}
		s.gcTotal.Add(1)
	}
	sort.Strings(removed)
	return removed, nil
}

// Quarantine moves version into cas/quarantine/ and records why.
// Quarantined artifacts are never deleted and never served; an operator
// inspects and removes them by hand.
func (s *Store) Quarantine(version, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.artifactPath(version)
	info, err := os.Stat(src)
	if err != nil {
		return fmt.Errorf("store: quarantine %s: %w", version, err)
	}
	if err := os.Rename(src, filepath.Join(s.quarDir, version+artifactExt)); err != nil {
		return fmt.Errorf("store: quarantine %s: %w", version, err)
	}
	WriteAtomic(filepath.Join(s.quarDir, version+reasonExt), []byte(reason+"\n"))
	s.artifacts--
	s.bytes -= info.Size()
	delete(s.refs, version)
	s.quarantined.Add(1)
	return nil
}

// QuarantinedVersions lists the versions currently sitting in
// quarantine (for reporting and tests).
func (s *Store) QuarantinedVersions() []string {
	ents, err := os.ReadDir(s.quarDir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, artifactExt) {
			continue
		}
		out = append(out, strings.TrimSuffix(name, artifactExt))
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the store counters for /metrics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Artifacts: s.artifacts, Bytes: s.bytes}
	s.mu.Unlock()
	st.GCTotal = s.gcTotal.Load()
	st.Quarantined = s.quarantined.Load()
	return st
}

// WriteAtomic writes b to path via tmp + rename with fsync of both the
// file and its directory. Every durable file — CAS entries, the registry
// state file, adapt checkpoints, saved artifacts — shares this one write
// discipline.
func WriteAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(b); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
