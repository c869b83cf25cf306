package registry

import (
	"fmt"
	"sync"
	"testing"
)

// fakeInstance is a minimal Instance for control-plane tests.
type fakeInstance struct{ v string }

func (f *fakeInstance) Version() string { return f.v }

func inst(v string) *fakeInstance { return &fakeInstance{v: v} }

func mustLoad(t *testing.T, r *Registry, tag string, i Instance) {
	t.Helper()
	if err := r.Load(tag, i); err != nil {
		t.Fatalf("Load(%q): %v", tag, err)
	}
}

func liveVersion(t *testing.T, r *Registry) string {
	t.Helper()
	i := r.LiveInstance()
	if i == nil {
		t.Fatal("no live instance")
	}
	return i.Version()
}

func TestLoadGetAndTagsOrdering(t *testing.T) {
	r := New(nil)
	mustLoad(t, r, "canary-b", inst("b1"))
	mustLoad(t, r, Live, inst("v1"))
	mustLoad(t, r, "canary-a", inst("a1"))
	mustLoad(t, r, Shadow, inst("s1"))

	got := r.Tags()
	want := []string{Live, Shadow, "canary-a", "canary-b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Tags() = %v, want %v", got, want)
	}
	for tag, v := range map[string]string{Live: "v1", Shadow: "s1", "canary-a": "a1", "canary-b": "b1"} {
		i, loadedAt, ok := r.Get(tag)
		if !ok || i.Version() != v || loadedAt.IsZero() {
			t.Fatalf("Get(%q) = %v/%v/%v, want version %s", tag, i, loadedAt, ok, v)
		}
	}
	if _, _, ok := r.Get("unknown"); ok {
		t.Fatal("Get on an empty tag reported ok")
	}
	if r.StatsFor(Live) != r.StatsFor(Live) {
		t.Fatal("StatsFor does not return a stable per-tag object")
	}
}

func TestTagValidation(t *testing.T) {
	r := New(nil)
	for _, bad := range []string{"", Previous, "Live", "a b", "-x", "x/y", "héllo"} {
		if err := r.Load(bad, inst("v")); err == nil {
			t.Fatalf("tag %q accepted", bad)
		}
	}
	for _, good := range []string{"live", "shadow", "canary-2", "exp_1", "a.b"} {
		if err := r.Load(good, inst("v")); err != nil {
			t.Fatalf("tag %q rejected: %v", good, err)
		}
	}
}

// TestPromoteRollbackCycle pins the core lifecycle: promote swaps shadow
// into live retaining the displaced generation, rollback restores the
// exact prior version, and a second rollback rolls forward again.
func TestPromoteRollbackCycle(t *testing.T) {
	r := New(nil)
	mustLoad(t, r, Live, inst("v1"))
	mustLoad(t, r, Shadow, inst("v2"))

	promoted, err := r.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if promoted.Version() != "v2" || liveVersion(t, r) != "v2" {
		t.Fatalf("promoted %s, live %s; want v2", promoted.Version(), liveVersion(t, r))
	}
	if _, _, ok := r.Get(Shadow); ok {
		t.Fatal("shadow slot still occupied after promote")
	}
	if pi, _, ok := r.Get(Previous); !ok || pi.Version() != "v1" {
		t.Fatalf("Get(%q) = %v/%v, want v1", Previous, pi, ok)
	}
	if pv := r.PreviousVersion(); pv != "v1" {
		t.Fatalf("previous = %q, want v1", pv)
	}

	restored, err := r.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if restored.Version() != "v1" || liveVersion(t, r) != "v1" {
		t.Fatalf("rollback restored %s, live %s; want v1", restored.Version(), liveVersion(t, r))
	}
	if pv := r.PreviousVersion(); pv != "v2" {
		t.Fatalf("previous after rollback = %q, want v2 (roll-forward target)", pv)
	}
	if _, err := r.Rollback(); err != nil {
		t.Fatalf("roll-forward: %v", err)
	}
	if liveVersion(t, r) != "v2" {
		t.Fatalf("roll-forward left live at %s", liveVersion(t, r))
	}
	if r.Promotes() != 1 || r.Rollbacks() != 2 {
		t.Fatalf("counters promotes=%d rollbacks=%d, want 1/2", r.Promotes(), r.Rollbacks())
	}
}

func TestPromoteWithoutShadowAndRollbackWithoutPrevious(t *testing.T) {
	r := New(nil)
	mustLoad(t, r, Live, inst("v1"))
	if _, err := r.Promote(); err == nil {
		t.Fatal("promote with empty shadow succeeded")
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback with no retained generation succeeded")
	}
}

// TestRetirement pins exactly which instances the registry discards: a
// displaced non-live generation immediately, a displaced live generation
// only when a later displacement replaces it as the rollback target, and
// unloaded tags outright. Drain returns everything without retiring.
func TestRetirement(t *testing.T) {
	var retired []string
	r := New(func(i Instance) { retired = append(retired, i.Version()) })

	mustLoad(t, r, Live, inst("v1"))
	mustLoad(t, r, Shadow, inst("s1"))
	mustLoad(t, r, Shadow, inst("s2")) // displaces s1 -> retired
	if fmt.Sprint(retired) != "[s1]" {
		t.Fatalf("after shadow reload retired=%v, want [s1]", retired)
	}

	if _, err := r.Promote(); err != nil { // v1 parked as previous, not retired
		t.Fatal(err)
	}
	if fmt.Sprint(retired) != "[s1]" {
		t.Fatalf("promote retired %v, want [s1] only", retired)
	}

	mustLoad(t, r, Live, inst("v3")) // s2 parked as previous; v1 (old previous) retired
	if fmt.Sprint(retired) != "[s1 v1]" {
		t.Fatalf("after live load retired=%v, want [s1 v1]", retired)
	}

	mustLoad(t, r, "canary", inst("c1"))
	if err := r.Unload("canary"); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(retired) != "[s1 v1 c1]" {
		t.Fatalf("after unload retired=%v, want [s1 v1 c1]", retired)
	}
	if err := r.Unload(Live); err == nil {
		t.Fatal("unloading live succeeded")
	}
	if err := r.Unload("ghost"); err == nil {
		t.Fatal("unloading an empty tag succeeded")
	}

	drained := r.Drain()
	if len(drained) != 2 { // live v3 + previous s2
		t.Fatalf("Drain returned %d instances, want 2", len(drained))
	}
	if len(retired) != 3 {
		t.Fatalf("Drain invoked the retire callback: %v", retired)
	}
	if len(r.Tags()) != 0 || r.PreviousVersion() != "" {
		t.Fatal("Drain left slots behind")
	}
}

func TestHistoryRecordsTransitions(t *testing.T) {
	r := New(nil)
	mustLoad(t, r, Live, inst("v1"))
	mustLoad(t, r, Shadow, inst("v2"))
	r.Promote()
	r.Rollback()
	r.Load(Shadow, inst("v3"))
	r.Unload(Shadow)

	h := r.History()
	var ops []Op
	for _, tr := range h {
		ops = append(ops, tr.Op)
	}
	want := []Op{OpLoad, OpLoad, OpPromote, OpRollback, OpLoad, OpUnload}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("history ops = %v, want %v", ops, want)
	}
	if h[2].Version != "v2" || h[3].Version != "v1" {
		t.Fatalf("promote/rollback history versions = %s/%s, want v2/v1", h[2].Version, h[3].Version)
	}
}

func TestHistoryBounded(t *testing.T) {
	r := New(nil)
	for i := 0; i < historyCap*2; i++ {
		mustLoad(t, r, Shadow, inst(fmt.Sprintf("v%d", i)))
	}
	if n := len(r.History()); n != historyCap {
		t.Fatalf("history holds %d entries, cap is %d", n, historyCap)
	}
}

// TestConcurrentLifecycle hammers the control plane from many goroutines
// under -race: loads, promotes, rollbacks, and lookups interleave, and the
// registry must never expose a nil live instance once one is loaded.
func TestConcurrentLifecycle(t *testing.T) {
	r := New(func(Instance) {})
	mustLoad(t, r, Live, inst("v0"))

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					r.Load(Shadow, inst(fmt.Sprintf("w%d-%d", w, i)))
				case 1:
					r.Promote()
				case 2:
					r.Rollback()
				default:
					if r.LiveInstance() == nil {
						errCh <- fmt.Errorf("live went nil mid-lifecycle")
						return
					}
					r.Tags()
					r.History()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if r.LiveInstance() == nil {
		t.Fatal("no live instance after concurrent lifecycle")
	}
}

// LiveInstance returns the live generation, or nil if none is loaded.
func (r *Registry) LiveInstance() Instance {
	inst, _, _ := r.Get(Live)
	return inst
}
