package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// The registry's durable state is one file, journal/snapshot.json: a
// single CRC-framed line holding the whole slot→version topology and
// per-tag counters, rewritten by WriteAtomic after every lifecycle op and
// every stats checkpoint. There is no log to replay: the file is the
// state the registry held at its last write, or it fails its CRC and is
// refused whole. The transition rules live only in the registry; this
// file never interprets a slot name.
const (
	snapshotFile = "snapshot.json"
	// legacyWAL is the write-ahead log older builds appended ops to
	// between snapshots. It is never read: a non-empty one holds ops the
	// snapshot may not, so LoadTopology refuses rather than serve an
	// older generation.
	legacyWAL = "wal.jsonl"
)

// StatsRecord is one tag's persistent counters as checkpointed into
// the state file.
type StatsRecord struct {
	Records         int64 `json:"records"`
	Attacks         int64 `json:"attacks"`
	Mirrored        int64 `json:"mirrored,omitempty"`
	MirrorDropped   int64 `json:"mirror_dropped,omitempty"`
	Agreements      int64 `json:"agreements,omitempty"`
	Disagreements   int64 `json:"disagreements,omitempty"`
	Shed            int64 `json:"shed,omitempty"`
	DeadlineExpired int64 `json:"deadline_expired,omitempty"`
}

// Topology is the registry state the state file holds: exactly what the
// registry held when it was last written.
type Topology struct {
	Slots map[string]string      `json:"slots"` // tag -> version
	Prev  string                 `json:"prev,omitempty"`
	Stats map[string]StatsRecord `json:"stats,omitempty"`
}

// stateLine is the state file payload. Files written by older builds
// also carry a "seq" field, which decoding ignores.
type stateLine struct {
	Topo Topology  `json:"topology"`
	At   time.Time `json:"at"`
}

// SaveTopology atomically replaces the state file in dir with t. Once a
// state of this build's own is on disk, an older build's write-ahead log
// beside it is obsolete and is removed.
func SaveTopology(dir string, t Topology) error {
	line, err := frameLine(stateLine{Topo: t, At: time.Now().UTC()})
	if err != nil {
		return err
	}
	if err := WriteAtomic(filepath.Join(dir, snapshotFile), line); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, legacyWAL)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// LoadTopology reads the state file in dir. A missing file is an empty
// topology (nothing was ever loaded); a torn or corrupt one is ErrCorrupt,
// never a partial topology. A non-empty write-ahead log left by an older
// build's crash is refused too: its ops may be newer than the snapshot.
func LoadTopology(dir string) (Topology, error) {
	if fi, err := os.Stat(filepath.Join(dir, legacyWAL)); err == nil && fi.Size() > 0 {
		return Topology{}, fmt.Errorf("store: %s holds %d bytes of an older build's write-ahead log, which this build does not replay; start fresh with a model or remove the file", filepath.Join(dir, legacyWAL), fi.Size())
	}
	path := filepath.Join(dir, snapshotFile)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Topology{Slots: map[string]string{}}, nil
	}
	if err != nil {
		return Topology{}, fmt.Errorf("store: %w", err)
	}
	var w stateLine
	if !parseLine(b, &w) {
		return Topology{}, fmt.Errorf("%w: %s is torn or fails its checksum", ErrCorrupt, path)
	}
	if w.Topo.Slots == nil {
		w.Topo.Slots = map[string]string{}
	}
	return w.Topo, nil
}

// parseLine decodes one CRC-framed JSON line ("%08x %s\n") into v,
// reporting whether the frame and checksum are intact.
func parseLine(line []byte, v any) bool {
	if len(line) < 11 || line[len(line)-1] != '\n' || line[8] != ' ' {
		return false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return false
	}
	payload := line[9 : len(line)-1]
	if crc32.ChecksumIEEE(payload) != want {
		return false
	}
	return json.Unmarshal(payload, v) == nil
}

// frameLine encodes v as one CRC-framed JSON line.
func frameLine(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	out := make([]byte, 0, len(payload)+10)
	out = append(out, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
}
