package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/registry"
	"repro/internal/store"
)

// openStore opens an artifact store rooted at dir, failing the test on
// error. Recovery tests open a second store over the same dir to model
// the restarted process (fresh refcounts, same disk).
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// durableConfig is the store-backed test config. The stats flusher is
// off (negative interval): crash tests abandon servers without Close,
// and a leaked flusher must not keep rewriting a state file a recovered
// server has since taken over.
func durableConfig(st *store.Store) Config {
	return Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond, Store: st, statsInterval: -1}
}

// crashServer builds a store-backed server whose cleanup closes only the
// HTTP listener. The Server itself is deliberately abandoned — never
// Closed — so its state is exactly what a kill -9 leaves behind: whatever
// the state file and CAS already fsynced. Leaked worker goroutines are the
// price of the simulation and die with the test binary.
func crashServer(t *testing.T, a *Artifact, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// recoverServer restarts from the state dir and registers a full cleanup.
func recoverServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// getStatus GETs url and returns the status code and body.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// slotVersion returns the artifact version loaded under tag, or "".
func slotVersion(s *Server, tag string) string {
	si, ok := s.slot(tag)
	if !ok {
		return ""
	}
	return si.artifact.Version()
}

// TestRecoverExactTopologyAfterCrash is the tentpole proof: a server
// crashes (abandoned, never Closed) right after a promote, and the
// restarted process reads the state file back to the exact slot→version
// topology — promoted live, rollback generation, emptied shadow — with
// per-slot counters no lower than the last checkpoint, ready to serve.
func TestRecoverExactTopologyAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, recs := trainTestArtifact(t, "mlp", 21, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 22, 2)

	srv, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-crash scoring: %d", resp.StatusCode)
	}
	if err := srv.Promote(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no drain, no final checkpoint.
	ts.Close()

	srv2, ts2 := recoverServer(t, durableConfig(openStore(t, dir)))
	if got := slotVersion(srv2, registry.Live); got != a2.Version() {
		t.Fatalf("recovered live = %s, want the promoted %s", got, a2.Version())
	}
	if got := slotVersion(srv2, registry.Previous); got != a1.Version() {
		t.Fatalf("recovered rollback generation = %s, want %s", got, a1.Version())
	}
	if got := slotVersion(srv2, registry.Shadow); got != "" {
		t.Fatalf("shadow occupied (%s) after recovering a promote", got)
	}
	rep := srv2.Recovery()
	if rep == nil {
		t.Fatal("recovered server has no recovery report")
	}
	if rep.Restored[registry.Live] != a2.Version() || rep.Restored[registry.Previous] != a1.Version() {
		t.Fatalf("report restored %v", rep.Restored)
	}
	if len(rep.Degraded) != 0 {
		t.Fatalf("unexpected degraded slots: %+v", rep.Degraded)
	}
	// The promote's piggybacked checkpoint preserved the pre-crash counters.
	if got := srv2.reg.StatsFor(registry.Live).Records.Load(); got < int64(len(recs)) {
		t.Fatalf("recovered live records counter = %d, want >= %d", got, len(recs))
	}
	if code, _ := getStatus(t, ts2.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d", code)
	}
	// And it scores: recovery re-lowered the plan from the CAS bytes.
	resp, _ = postJSON(t, ts2.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery scoring: %d", resp.StatusCode)
	}
}

// TestRecoverDegradedShadowQuarantined corrupts the shadow artifact's
// CAS file between crash and restart: recovery must quarantine it,
// degrade only that slot, and bring live up untouched.
func TestRecoverDegradedShadowQuarantined(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, recs := trainTestArtifact(t, "mlp", 23, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 24, 2)

	srv, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := chaos.CorruptFile(filepath.Join(dir, "cas", a2.Version()+".plcn")); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	srv2, ts2 := recoverServer(t, durableConfig(st2))
	if got := slotVersion(srv2, registry.Live); got != a1.Version() {
		t.Fatalf("live = %s after shadow corruption, want %s", got, a1.Version())
	}
	if _, ok := srv2.slot(registry.Shadow); ok {
		t.Fatal("corrupt shadow was restored")
	}
	rep := srv2.Recovery()
	if len(rep.Degraded) != 1 || rep.Degraded[0].Tag != registry.Shadow || rep.Degraded[0].Version != a2.Version() {
		t.Fatalf("degraded = %+v, want the shadow slot", rep.Degraded)
	}
	quarantined := st2.QuarantinedVersions()
	if len(quarantined) != 1 || quarantined[0] != a2.Version() {
		t.Fatalf("quarantined = %v, want [%s]", quarantined, a2.Version())
	}
	if st := st2.Stats(); st.Quarantined < 1 {
		t.Fatalf("quarantined counter = %d, want >= 1", st.Quarantined)
	}
	if code, _ := getStatus(t, ts2.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with degraded shadow: %d, want 200", code)
	}
	resp, _ := postJSON(t, ts2.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live scoring with degraded shadow: %d", resp.StatusCode)
	}
	if _, body := getStatus(t, ts2.URL+"/metrics"); !strings.Contains(body, "pelican_store_quarantined_total 1") {
		t.Fatal("/metrics does not report the quarantine")
	}
}

// TestRecoverMissingLiveNotReady deletes the live artifact before the
// restart: the server must still come up — answering /readyz 503, not
// crashing — and flip ready once an operator loads a live model.
func TestRecoverMissingLiveNotReady(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	a1, _, recs := trainTestArtifact(t, "mlp", 25, 2)

	_, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	ts.Close()
	if err := os.Remove(filepath.Join(dir, "cas", a1.Version()+".plcn")); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := recoverServer(t, durableConfig(openStore(t, dir)))
	if code, body := getStatus(t, ts2.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no live slot") {
		t.Fatalf("/readyz with no live slot: %d %q", code, body)
	}
	rep := srv2.Recovery()
	if len(rep.Degraded) != 1 || rep.Degraded[0].Tag != registry.Live {
		t.Fatalf("degraded = %+v, want the live slot", rep.Degraded)
	}
	resp, _ := postJSON(t, ts2.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("scoring succeeded with no live slot")
	}
	// Operator reloads: the in-memory a1 still exists, so this re-persists
	// the artifact into the CAS and readiness flips.
	if err := srv2.LoadSlot(registry.Live, a1); err != nil {
		t.Fatal(err)
	}
	if code, _ := getStatus(t, ts2.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after operator reload: %d", code)
	}
}

// TestPlanDedupeAcrossTags loads byte-identical artifact files into two
// slots and asserts the server deduplicates them to one *Artifact — so
// the lazily lowered inference plan is compiled once and shared, pointer
// identical, across tags.
func TestPlanDedupeAcrossTags(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a1, _, _ := trainTestArtifact(t, "mlp", 26, 2)
	path := saveArtifact(t, a1)
	srv, _ := newTestServer(t, a1, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})

	// A fresh decode of the same bytes: same version, different pointer.
	dup, err := LoadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dup == a1 {
		t.Fatal("test setup: LoadArtifactFile returned the original pointer")
	}
	if err := srv.LoadSlot("canary", dup); err != nil {
		t.Fatal(err)
	}
	live, _ := srv.slot(registry.Live)
	canary, ok := srv.slot("canary")
	if !ok {
		t.Fatal("canary slot empty")
	}
	if live.artifact != canary.artifact {
		t.Fatalf("artifacts not deduped: live %p vs canary %p for version %s", live.artifact, canary.artifact, a1.Version())
	}
	lp, err := live.artifact.Plan()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := canary.artifact.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if lp != cp {
		t.Fatalf("plans not shared: %p vs %p", lp, cp)
	}
}

// TestRollbackTwiceAcrossRestart pins the rollback-is-a-swap invariant
// across a process boundary: rollback, crash, recover, rollback again —
// and the second rollback rolls forward to the promoted version, exactly
// as it would have in one process lifetime.
func TestRollbackTwiceAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 27, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 28, 2)

	srv, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := slotVersion(srv, registry.Live); got != a1.Version() {
		t.Fatalf("pre-crash rollback left live = %s, want %s", got, a1.Version())
	}
	ts.Close()

	srv2, _ := recoverServer(t, durableConfig(openStore(t, dir)))
	if got := slotVersion(srv2, registry.Live); got != a1.Version() {
		t.Fatalf("recovered live = %s, want the rolled-back %s", got, a1.Version())
	}
	if got := slotVersion(srv2, registry.Previous); got != a2.Version() {
		t.Fatalf("recovered rollback target = %s, want %s", got, a2.Version())
	}
	if err := srv2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := slotVersion(srv2, registry.Live); got != a2.Version() {
		t.Fatalf("rollback-twice across restart: live = %s, want roll-forward to %s", got, a2.Version())
	}
}

// TestTornJournalTailRecovers models a crash in the middle of a state
// write: the shadow artifact reached the CAS, but the state file naming
// it was only partly written to its temp file when the process died.
// Recovery must load the last complete state (live only), ignore the
// torn temp file, and GC the orphaned shadow artifact.
func TestTornJournalTailRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 29, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 30, 2)

	st := openStore(t, dir)
	_, ts := crashServer(t, a1, durableConfig(st))
	ts.Close()
	// The shadow load got as far as persisting its artifact...
	if _, err := st.Put(a2.Bytes()); err != nil {
		t.Fatal(err)
	}
	// ...and as far as a torn temp file of the state that would name it.
	good, err := os.ReadFile(filepath.Join(dir, "journal", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "journal", ".tmp-123456")
	if err := os.WriteFile(torn, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := chaos.TruncateTail(torn, 5); err != nil {
		t.Fatal(err)
	}

	srv2, _ := recoverServer(t, durableConfig(openStore(t, dir)))
	if got := slotVersion(srv2, registry.Live); got != a1.Version() {
		t.Fatalf("recovered live = %s, want %s", got, a1.Version())
	}
	if _, ok := srv2.slot(registry.Shadow); ok {
		t.Fatal("shadow restored from a torn write")
	}
	rep := srv2.Recovery()
	if rep.StateError != "" || len(rep.Degraded) != 0 {
		t.Fatalf("good state beside a torn temp file reported %+v", rep)
	}
	found := false
	for _, v := range rep.GCRemoved {
		if v == a2.Version() {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphaned shadow artifact not swept: gc=%v, want %s", rep.GCRemoved, a2.Version())
	}
}

// TestLifecycleOpReportsUndurableState blocks the state file with a
// non-empty directory: a promote still applies but must answer 500 and
// say it is not durable, and so must the programmatic ops. Once the
// block is gone, the next checkpoint rewrites the whole state and a
// restart recovers the promoted topology.
func TestLifecycleOpReportsUndurableState(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 41, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 42, 2)
	cfg := durableConfig(openStore(t, dir))
	cfg.statsInterval = 10 * time.Millisecond
	srv, ts := newTestServer(t, a1, cfg)
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "journal", "snapshot.json")
	if err := os.Remove(state); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(state, "block"), 0o755); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v2/promote", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "not durable") {
		t.Fatalf("promote with the state file blocked: %d %s, want 500 naming it not durable", resp.StatusCode, body)
	}
	if got := slotVersion(srv, registry.Live); got != a2.Version() {
		t.Fatalf("live = %s after an undurable promote, want the applied %s", got, a2.Version())
	}
	if err := srv.LoadSlot("canary", a1); !errors.Is(err, errNotDurable) {
		t.Fatalf("LoadSlot with the state file blocked: %v, want errNotDurable", err)
	}
	if err := srv.Unload("canary"); !errors.Is(err, errNotDurable) {
		t.Fatalf("Unload with the state file blocked: %v, want errNotDurable", err)
	}

	if err := os.RemoveAll(state); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if topo, err := store.LoadTopology(filepath.Join(dir, "journal")); err == nil && topo.Slots[registry.Live] == a2.Version() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint rewrote the state file after the block was removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()

	srv2, _ := recoverServer(t, durableConfig(openStore(t, dir)))
	slots, prev := srv2.reg.Versions()
	if want := map[string]string{registry.Live: a2.Version()}; !reflect.DeepEqual(slots, want) || prev != a1.Version() {
		t.Fatalf("recovered slots %v prev %s, want %v prev %s", slots, prev, want, a1.Version())
	}
}

// TestRecoverMatchesRegistryAtEveryCrashPoint drives a seeded sequence of
// lifecycle ops (errors allowed) and copies the state dir after each one
// — the disk a crash at that moment leaves. Recovering from every copy
// must reproduce the slots and rollback generation the registry held.
func TestRecoverMatchesRegistryAtEveryCrashPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	var arts []*Artifact
	for seed := int64(51); seed <= 53; seed++ {
		a, _, _ := trainTestArtifact(t, "mlp", seed, 1)
		arts = append(arts, a)
	}
	dir := t.TempDir()
	srv, _ := newTestServer(t, arts[0], durableConfig(openStore(t, dir)))
	type crashPoint struct {
		op    string
		dir   string
		slots map[string]string
		prev  string
	}
	var points []crashPoint
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		a := arts[rng.Intn(len(arts))]
		var op string
		switch rng.Intn(6) {
		case 0:
			op = "load live " + a.Version()
			srv.LoadSlot(registry.Live, a)
		case 1:
			op = "load shadow " + a.Version()
			srv.LoadSlot(registry.Shadow, a)
		case 2:
			op = "load canary " + a.Version()
			srv.LoadSlot("canary", a)
		case 3:
			op = "promote"
			srv.Promote()
		case 4:
			op = "rollback"
			srv.Rollback()
		case 5:
			tag := []string{registry.Shadow, "canary"}[rng.Intn(2)]
			op = "unload " + tag
			srv.Unload(tag)
		}
		slots, prev := srv.reg.Versions()
		cp := filepath.Join(t.TempDir(), "state")
		copyTree(t, dir, cp)
		points = append(points, crashPoint{op: fmt.Sprintf("op %d (%s)", i, op), dir: cp, slots: slots, prev: prev})
	}
	for _, p := range points {
		srv2, err := Recover(durableConfig(openStore(t, p.dir)))
		if err != nil {
			t.Fatalf("after %s: %v", p.op, err)
		}
		slots, prev := srv2.reg.Versions()
		degraded := srv2.Recovery().Degraded
		srv2.Close()
		if !reflect.DeepEqual(slots, p.slots) || prev != p.prev || len(degraded) != 0 {
			t.Fatalf("crash after %s recovered slots %v prev %q (degraded %v), registry held %v prev %q",
				p.op, slots, prev, degraded, p.slots, p.prev)
		}
	}
}

// TestRecoverKeepsCountersOfEmptiedSlots: a tag's counters outlive the
// generations it serves, so the state rewritten after an unload still
// carries them, and a re-load after the restart resumes from them.
func TestRecoverKeepsCountersOfEmptiedSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 46, 1)
	srv, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	if err := srv.LoadSlot("canary", a1); err != nil {
		t.Fatal(err)
	}
	srv.reg.StatsFor("canary").Records.Add(5)
	if err := srv.Unload("canary"); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	srv2, _ := recoverServer(t, durableConfig(openStore(t, dir)))
	if got := srv2.reg.StatsFor("canary").Records.Load(); got != 5 {
		t.Fatalf("canary records after unload and restart = %d, want 5", got)
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoverStateFromOlderBuild recovers a state dir as the
// write-ahead-log build leaves it at a clean shutdown: its snapshot line
// ("seq" included) beside an emptied log. The exact topology comes back,
// and the first state this build writes retires the empty log.
func TestRecoverStateFromOlderBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 43, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 44, 1)
	st := openStore(t, dir)
	for _, a := range []*Artifact{a1, a2} {
		if _, err := st.Put(a.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	payload := fmt.Sprintf(`{"seq":9,"topology":{"slots":{"live":%q,"canary":%q},"prev":%q,"stats":{"live":{"records":77,"attacks":5}}},"at":"2026-10-01T12:00:00Z"}`,
		a2.Version(), a1.Version(), a1.Version())
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	journal := filepath.Join(dir, "journal")
	if err := os.WriteFile(filepath.Join(journal, "snapshot.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(journal, "wal.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, _ := recoverServer(t, durableConfig(openStore(t, dir)))
	slots, prev := srv.reg.Versions()
	if want := map[string]string{registry.Live: a2.Version(), "canary": a1.Version()}; !reflect.DeepEqual(slots, want) || prev != a1.Version() {
		t.Fatalf("recovered slots %v prev %s, want %v prev %s", slots, prev, want, a1.Version())
	}
	if got := srv.reg.StatsFor(registry.Live).Records.Load(); got != 77 {
		t.Fatalf("live records = %d, want the checkpointed 77", got)
	}
	if _, err := os.Stat(filepath.Join(journal, "wal.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("empty legacy log not retired: %v", err)
	}
}

// TestRecoverRefusesLegacyWAL: a non-empty write-ahead log from an older
// build's crash may hold ops newer than the snapshot. Recovery restores
// no slot (not ready) rather than serve an older generation, keeps the
// log and every artifact on disk, and reports each later op as not
// durable instead of overwriting the evidence.
func TestRecoverRefusesLegacyWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 45, 1)
	_, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	ts.Close()
	wal := filepath.Join(dir, "journal", "wal.jsonl")
	rec := `{"seq":3,"op":"promote","tag":"live","version":"0123456789ab","at":"2026-10-01T12:00:00Z"}`
	if err := os.WriteFile(wal, []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(rec)), rec)), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts2 := recoverServer(t, durableConfig(openStore(t, dir)))
	rep := srv.Recovery()
	if len(rep.Restored) != 0 || !strings.Contains(rep.StateError, "wal.jsonl") {
		t.Fatalf("recovery beside a legacy log: %+v, want nothing restored and the log named", rep)
	}
	if code, body := getStatus(t, ts2.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "state_error") {
		t.Fatalf("/readyz = %d %s, want 503 with the state error", code, body)
	}
	if err := srv.LoadSlot(registry.Live, a1); !errors.Is(err, errNotDurable) {
		t.Fatalf("LoadSlot after a refused state: %v, want errNotDurable", err)
	}
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("legacy log removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cas", a1.Version()+".plcn")); err != nil {
		t.Fatalf("artifact swept after a refused state: %v", err)
	}
}

// TestReadyzDrain: /readyz flips to 503 the moment a drain begins, and
// distinguishes "draining" from "no live slot" in its body.
func TestReadyzDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, _ := trainTestArtifact(t, "mlp", 31, 2)
	srv, ts := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})

	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}
	srv.BeginDrain()
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while draining = %d %q, want 503 draining", code, body)
	}
}
