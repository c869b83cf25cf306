package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mustSave(t *testing.T, dir string, topo Topology) {
	t.Helper()
	if err := SaveTopology(dir, topo); err != nil {
		t.Fatal(err)
	}
}

func mustLoad(t *testing.T, dir string) Topology {
	t.Helper()
	topo, err := LoadTopology(dir)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestJournalRoundTrip saves a topology and reads back exactly it; a
// directory that never held one reads as an empty topology.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if topo := mustLoad(t, dir); len(topo.Slots) != 0 || topo.Prev != "" || topo.Slots == nil {
		t.Fatalf("fresh dir loaded %+v, want an empty topology", topo)
	}
	want := Topology{
		Slots: map[string]string{"live": "v2bbbbbbbbbb", "canary-1": "v3cccccccccc"},
		Prev:  "v1aaaaaaaaaa",
		Stats: map[string]StatsRecord{"live": {Records: 40, Attacks: 3}, "shadow": {Records: 9, Mirrored: 9, Agreements: 8, Disagreements: 1}},
	}
	mustSave(t, dir, want)
	if got := mustLoad(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

// TestRollbackTwiceAcrossRestart rewrites the state a rollback leaves
// and then the one a second rollback leaves, reading each back as a
// restart would: the rollback generation survives every rewrite.
func TestRollbackTwiceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, Topology{Slots: map[string]string{"live": "v1"}, Prev: "v2"})
	topo := mustLoad(t, dir)
	if topo.Slots["live"] != "v1" || topo.Prev != "v2" {
		t.Fatalf("recovered mid-rollback topology %+v", topo)
	}
	mustSave(t, dir, Topology{Slots: map[string]string{"live": "v2"}, Prev: "v1"})
	topo = mustLoad(t, dir)
	if topo.Slots["live"] != "v2" || topo.Prev != "v1" {
		t.Fatalf("rollback-twice across restart: %+v, want live v2 prev v1", topo)
	}
}

// TestResetPrunesState: each save replaces the whole state, so a slot or
// counter left out of a later save (recovery pruned a quarantined shadow)
// never comes back.
func TestResetPrunesState(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, Topology{
		Slots: map[string]string{"live": "v1", "shadow": "vbad"},
		Stats: map[string]StatsRecord{"live": {Records: 5}, "shadow": {Records: 2}},
	})
	mustSave(t, dir, Topology{Slots: map[string]string{"live": "v1"}, Stats: map[string]StatsRecord{"live": {Records: 6}}})
	got := mustLoad(t, dir)
	if _, ok := got.Slots["shadow"]; ok {
		t.Fatal("pruned slot resurrected")
	}
	if _, ok := got.Stats["shadow"]; ok {
		t.Fatal("pruned counters resurrected")
	}
	if got.Slots["live"] != "v1" || got.Stats["live"].Records != 6 {
		t.Fatalf("topology %+v", got)
	}
}

// TestTornTailFuzz cuts a saved state file at every offset and flips
// every byte two ways (xor 0x01, xor 0xFF): every damaged file must be
// refused whole with ErrCorrupt, never read as a partial topology.
func TestTornTailFuzz(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, Topology{
		Slots: map[string]string{"live": "v2bbbbbbbbbb", "shadow": "v3cccccccccc"},
		Prev:  "v1aaaaaaaaaa",
		Stats: map[string]StatsRecord{"live": {Records: 12, Attacks: 2}},
	})
	path := filepath.Join(dir, "snapshot.json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		topo, err := LoadTopology(dir)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
		}
		if topo.Slots != nil || topo.Prev != "" || topo.Stats != nil {
			t.Fatalf("%s: partial topology %+v returned with the error", what, topo)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		check(fmt.Sprintf("cut at %d", cut), good[:cut])
	}
	for i := range good {
		for _, mask := range []byte{0x01, 0xFF} {
			bad := append([]byte(nil), good...)
			bad[i] ^= mask
			check(fmt.Sprintf("byte %d xor %#x", i, mask), bad)
		}
	}
}

// TestGarbageMidJournalTruncatesSuffix: bytes written past a valid state
// line (a second line, or trailing garbage) make the file unreadable as a
// whole; the valid prefix is not trusted on its own.
func TestGarbageMidJournalTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, Topology{Slots: map[string]string{"live": "v1"}})
	path := filepath.Join(dir, "snapshot.json")
	good, _ := os.ReadFile(path)
	for _, tail := range [][]byte{good, []byte("garbage\n"), []byte("x")} {
		if err := os.WriteFile(path, append(append([]byte(nil), good...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTopology(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("state line + %q: err = %v, want ErrCorrupt", tail, err)
		}
	}
}

// TestLoadsStateWrittenByOlderBuild reads a snapshot line exactly as the
// write-ahead-log build wrote it at a clean shutdown, "seq" included: the
// topology comes back unchanged.
func TestLoadsStateWrittenByOlderBuild(t *testing.T) {
	dir := t.TempDir()
	const line = "0d00e37d {\"seq\":5,\"topology\":{\"slots\":{\"canary-1\":\"aaaabbbbcccc\",\"live\":\"5f4e3d2c1b0a\"},\"prev\":\"0a1b2c3d4e5f\",\"stats\":{\"live\":{\"records\":130,\"attacks\":8},\"shadow\":{\"records\":64,\"attacks\":5,\"mirrored\":64,\"agreements\":60,\"disagreements\":4}}},\"at\":\"2026-10-17T08:18:32.52729583Z\"}\n"
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	// A clean shutdown left the emptied log beside it.
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want := Topology{
		Slots: map[string]string{"canary-1": "aaaabbbbcccc", "live": "5f4e3d2c1b0a"},
		Prev:  "0a1b2c3d4e5f",
		Stats: map[string]StatsRecord{
			"live":   {Records: 130, Attacks: 8},
			"shadow": {Records: 64, Attacks: 5, Mirrored: 64, Agreements: 60, Disagreements: 4},
		},
	}
	if got := mustLoad(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("older build's state = %+v, want %+v", got, want)
	}
}

// TestLegacyWALRefused: a non-empty write-ahead log from an older build's
// crash may hold ops newer than the snapshot, so the state is refused and
// the log is left on disk; the next state this build saves retires it.
func TestLegacyWALRefused(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, Topology{Slots: map[string]string{"live": "v1"}})
	wal := filepath.Join(dir, "wal.jsonl")
	if err := os.WriteFile(wal, []byte("00000000 {\"seq\":6,\"op\":\"promote\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if topo, err := LoadTopology(dir); err == nil || topo.Slots != nil {
		t.Fatalf("state beside a non-empty legacy log loaded: %+v, %v", topo, err)
	}
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("legacy log not left on disk: %v", err)
	}
	mustSave(t, dir, Topology{Slots: map[string]string{"live": "v9"}})
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("legacy log survived a save: %v", err)
	}
	if got := mustLoad(t, dir); got.Slots["live"] != "v9" {
		t.Fatalf("topology %+v", got)
	}
}
