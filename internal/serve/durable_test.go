package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
// and a leaked flusher must not keep appending to a journal a recovered
// server has since taken over.
func durableConfig(st *store.Store) Config {
	return Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond, Store: st, statsInterval: -1}
}

// crashServer builds a store-backed server whose cleanup closes only the
// HTTP listener. The Server itself is deliberately abandoned — never
// Closed — so its state is exactly what a kill -9 leaves behind: whatever
// the journal and CAS already fsynced. Leaked worker goroutines are the
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

// recoverServer restarts from the journal and registers a full cleanup.
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
// restarted process replays the journal back to the exact slot→version
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
	resp, _ := postJSON(t, ts.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
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
	resp, _ = postJSON(t, ts2.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
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
	resp, _ := postJSON(t, ts2.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
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
	resp, _ := postJSON(t, ts2.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
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

// TestTornJournalTailRecovers cuts bytes off the journal mid-record — a
// crash during an append — and asserts recovery lands on the last fully
// durable topology, reports the truncation, and GC sweeps the version
// the torn record would have referenced.
func TestTornJournalTailRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, _ := trainTestArtifact(t, "mlp", 29, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 30, 2)

	srv, ts := crashServer(t, a1, durableConfig(openStore(t, dir)))
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	// Tear the tail of the shadow-load record: the append never fully
	// landed, so the durable truth is "live only".
	if err := chaos.TruncateTail(filepath.Join(dir, "journal", "wal.jsonl"), 5); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := recoverServer(t, durableConfig(openStore(t, dir)))
	if got := slotVersion(srv2, registry.Live); got != a1.Version() {
		t.Fatalf("recovered live = %s, want %s", got, a1.Version())
	}
	if _, ok := srv2.slot(registry.Shadow); ok {
		t.Fatal("shadow restored from a torn record")
	}
	rep := srv2.Recovery()
	if rep.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", rep.Truncated)
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
	if _, body := getStatus(t, ts2.URL+"/metrics"); !strings.Contains(body, "pelican_recovery_truncated_records_total 1") {
		t.Fatal("/metrics does not report the truncation")
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
