package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Journal op verbs. They mirror the registry's transition ops verbatim
// (plus "stats" for counter checkpoints) so a journal reads like the
// registry history it is.
const (
	OpLoad     = "load"
	OpPromote  = "promote"
	OpRollback = "rollback"
	OpUnload   = "unload"
	OpStats    = "stats"
)

// Slot names the journal's replay semantics are keyed on. They must
// stay in sync with the registry's reserved tags.
const (
	slotLive   = "live"
	slotShadow = "shadow"
)

// compactEvery bounds journal growth: after this many appends since
// the last snapshot the log compacts itself.
const compactEvery = 512

// StatsRecord is one tag's persistent counters as checkpointed into
// the journal. Latest record wins on replay.
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

// Record is one journal entry. Lifecycle ops carry Tag and Version;
// stats checkpoints carry the full per-tag counter map.
type Record struct {
	Seq     uint64                 `json:"seq"`
	Op      string                 `json:"op"`
	Tag     string                 `json:"tag,omitempty"`
	Version string                 `json:"version,omitempty"`
	At      time.Time              `json:"at"`
	Stats   map[string]StatsRecord `json:"stats,omitempty"`
}

// Topology is the materialized slot→version state a journal replay
// produces: exactly what the registry held when the last record was
// appended.
type Topology struct {
	Slots map[string]string      `json:"slots"` // tag -> version
	Prev  string                 `json:"prev,omitempty"`
	Stats map[string]StatsRecord `json:"stats,omitempty"`
}

// NewTopology returns an empty topology.
func NewTopology() Topology {
	return Topology{Slots: map[string]string{}, Stats: map[string]StatsRecord{}}
}

// Clone deep-copies t.
func (t Topology) Clone() Topology {
	c := Topology{Slots: make(map[string]string, len(t.Slots)), Prev: t.Prev, Stats: make(map[string]StatsRecord, len(t.Stats))}
	for k, v := range t.Slots {
		c.Slots[k] = v
	}
	for k, v := range t.Stats {
		c.Stats[k] = v
	}
	return c
}

// Apply advances the topology by one record, mirroring the registry's
// transition semantics exactly:
//
//   - load live displaces the old live into the rollback slot;
//   - load of any other tag overwrites it;
//   - promote moves the shadow version to live, displacing the old
//     live into the rollback slot and emptying shadow;
//   - rollback swaps live with the rollback slot (so applying it twice
//     rolls forward);
//   - unload clears a tag;
//   - stats carried by any record (lifecycle ops piggyback a checkpoint
//     on their fsync) replace the counter map entries, latest wins.
func (t *Topology) Apply(r Record) {
	if t.Slots == nil {
		t.Slots = map[string]string{}
	}
	if t.Stats == nil {
		t.Stats = map[string]StatsRecord{}
	}
	for tag, st := range r.Stats {
		t.Stats[tag] = st
	}
	switch r.Op {
	case OpLoad:
		if r.Tag == slotLive {
			if cur, ok := t.Slots[slotLive]; ok {
				t.Prev = cur
			}
		}
		t.Slots[r.Tag] = r.Version
	case OpPromote:
		if cur, ok := t.Slots[slotLive]; ok {
			t.Prev = cur
		}
		t.Slots[slotLive] = r.Version
		delete(t.Slots, slotShadow)
	case OpRollback:
		old := t.Slots[slotLive]
		t.Slots[slotLive] = r.Version
		t.Prev = old
	case OpUnload:
		delete(t.Slots, r.Tag)
	case OpStats:
		// Stats-only checkpoint: the merge above did the work.
	}
}

// RecoverInfo reports what a journal open found on disk.
type RecoverInfo struct {
	SnapshotSeq uint64        // seq of the snapshot replay started from (0: none)
	Replayed    int           // journal records applied on top of the snapshot
	Truncated   int           // torn/corrupt trailing records cut from the journal
	Duration    time.Duration // wall time of the replay
}

// Log is the registry write-ahead journal: an append-only file of
// CRC-framed JSONL records plus a compacted snapshot. The Log keeps
// the materialized topology in memory, so snapshots are a plain dump
// rather than a second replay. Safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	seq      uint64
	appends  int // since last compact
	topo     Topology
	snapshot string
	journal  string
}

// OpenLog opens (creating if needed) the journal in dir and replays
// snapshot + journal into the returned topology. Torn or corrupt
// trailing records are truncated from the file — the caller decides
// how loudly to report that via RecoverInfo.Truncated.
func OpenLog(dir string) (*Log, RecoverInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("store: %w", err)
	}
	l := &Log{
		dir:      dir,
		topo:     NewTopology(),
		snapshot: filepath.Join(dir, "snapshot.json"),
		journal:  filepath.Join(dir, "wal.jsonl"),
	}
	start := time.Now()
	info, err := l.replay()
	if err != nil {
		return nil, info, err
	}
	f, err := os.OpenFile(l.journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("store: %w", err)
	}
	l.f = f
	info.Duration = time.Since(start)
	return l, info, nil
}

// replay loads the snapshot (if any) and applies every valid journal
// record after it. The file is truncated at the first invalid record:
// a torn tail from a mid-append crash, or anything unreadable after
// it, is cut so the next append lands on a clean prefix.
func (l *Log) replay() (RecoverInfo, error) {
	var info RecoverInfo
	if b, err := os.ReadFile(l.snapshot); err == nil {
		if parseSnapshot(b, &l.topo, &l.seq) {
			info.SnapshotSeq = l.seq
		}
	}
	b, err := os.ReadFile(l.journal)
	if os.IsNotExist(err) {
		return info, nil
	}
	if err != nil {
		return info, fmt.Errorf("store: %w", err)
	}
	off := 0
	for off < len(b) {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			info.Truncated++ // torn tail: no terminating newline
			break
		}
		var r Record
		ok := parseLine(b[off:off+nl+1], &r)
		if ok && r.Seq <= info.SnapshotSeq {
			// Valid record already folded into the snapshot (crash landed
			// between snapshot write and journal truncate): skip it.
			off += nl + 1
			continue
		}
		if !ok || r.Seq <= l.seq {
			// Torn, corrupt, or out-of-order: everything from here on is
			// suspect — a valid prefix is all replay trusts.
			info.Truncated += countLines(b[off:])
			break
		}
		l.topo.Apply(r)
		l.seq = r.Seq
		info.Replayed++
		off += nl + 1
	}
	if off < len(b) {
		if err := os.Truncate(l.journal, int64(off)); err != nil {
			return info, fmt.Errorf("store: truncate torn journal: %w", err)
		}
	}
	return info, nil
}

// countLines counts newline-terminated lines plus a trailing fragment.
func countLines(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// parseLine decodes one CRC-framed JSONL line ("%08x %s\n") into v,
// reporting whether the frame and checksum are intact.
func parseLine(line []byte, v any) bool {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if len(line) < 10 || line[8] != ' ' {
		return false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != want {
		return false
	}
	return json.Unmarshal(payload, v) == nil
}

// frameLine encodes v as one CRC-framed JSONL line.
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

// snapshotWire is the snapshot file payload.
type snapshotWire struct {
	Seq  uint64    `json:"seq"`
	Topo Topology  `json:"topology"`
	At   time.Time `json:"at"`
}

func parseSnapshot(b []byte, topo *Topology, seq *uint64) bool {
	var w snapshotWire
	if !parseLine(b, &w) {
		return false
	}
	*topo = w.Topo.Clone()
	*seq = w.Seq
	return true
}

// Append journals one record, assigning it the next sequence number,
// fsyncing before return (lifecycle ops are rare; the fsync is the
// durability contract), and advancing the in-memory topology. Crossing
// the compaction threshold folds the journal into a fresh snapshot.
func (l *Log) Append(op, tag, version string, stats map[string]StatsRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	r := Record{Seq: l.seq, Op: op, Tag: tag, Version: version, At: time.Now().UTC(), Stats: stats}
	line, err := frameLine(r)
	if err != nil {
		l.seq--
		return err
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	l.topo.Apply(r)
	l.appends++
	if l.appends >= compactEvery {
		return l.compactLocked()
	}
	return nil
}

// Topology returns a deep copy of the current materialized state.
func (l *Log) Topology() Topology {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.topo.Clone()
}

// Reset replaces the materialized topology (recovery prunes slots
// whose artifacts failed verification) and compacts, so the pruned
// state is what the next restart replays.
func (l *Log) Reset(t Topology) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.topo = t.Clone()
	return l.compactLocked()
}

// Compact folds the journal into the snapshot: the current topology is
// written atomically, then the journal is emptied. A crash between the
// two steps is safe — replay skips journal records at or below the
// snapshot's seq.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked()
}

func (l *Log) compactLocked() error {
	line, err := frameLine(snapshotWire{Seq: l.seq, Topo: l.topo, At: time.Now().UTC()})
	if err != nil {
		return err
	}
	if err := WriteAtomic(l.snapshot, line); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("store: journal truncate: %w", err)
	}
	l.appends = 0
	return nil
}

// Close releases the journal file handle. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
