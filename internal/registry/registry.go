// Package registry is the multi-model control plane for the serving
// stack: a set of named slots (the reserved "live" and "shadow" slots plus
// arbitrary canary tags), each holding one independently loaded model
// generation, with atomic shadow→live promotion, a retained previous-live
// generation for rollback, per-slot scoring counters, and a bounded
// lifecycle history.
//
// The registry is deliberately generic over what a "loaded model" is (the
// Instance interface): the serve package loads artifacts into instances
// that bundle compiled inference plans, replica shards, and a private
// batcher, while tests can use stubs. The registry owns only the control
// plane — which generation answers which tag, and what happens to a
// generation when it is displaced.
package registry

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Reserved slot tags. Live is the generation production traffic scores
// against by default; Shadow is the staging slot that mirroring and gated
// promotion operate on. Previous is not a loadable tag: it names the
// retained generation Rollback restores.
const (
	Live     = "live"
	Shadow   = "shadow"
	Previous = "previous"
)

// Instance is one loaded, ready-to-score model generation. The registry
// never inspects it beyond its content-addressed version; everything else
// (replicas, batchers, schemas) belongs to the loader.
type Instance interface {
	Version() string
}

// Stats are the per-slot scoring counters. The registry keeps one Stats
// per tag, persistent across the generations the tag serves (Prometheus
// counters must never run backwards, and dashboards want slot continuity
// through a promotion). Counters accumulate per slot, which is what makes
// live-vs-shadow divergence readable — under mirroring the two slots see
// the same traffic, so their attack counters diverge exactly when the
// models disagree.
type Stats struct {
	// Records counts what the slot scored.
	Records atomic.Int64
	// Attacks counts attack verdicts — the per-slot detection-rate proxy
	// (serving has no ground truth; under mirroring both slots see the
	// same flows, so the ratio of the two Attacks counters is directly
	// comparable).
	Attacks atomic.Int64
	// Mirrored counts live records duplicated onto this slot; Agreements
	// and Disagreements split the mirrored verdict comparisons against
	// live's; MirrorDropped counts mirrors skipped under backpressure or
	// mid-swap.
	Mirrored      atomic.Int64
	MirrorDropped atomic.Int64
	Agreements    atomic.Int64
	Disagreements atomic.Int64
	// Shed counts records fast-failed (429) by the admission controller
	// because the slot's queue was over its watermark; DeadlineExpired
	// counts records shed (503) because their request deadline ran out
	// before a replica could score them. Both are overload-protection
	// outcomes: the record was never scored.
	Shed            atomic.Int64
	DeadlineExpired atomic.Int64
}

// StatsSnapshot is a plain-value copy of a Stats, used by the durable
// control plane to checkpoint counters into the registry state file and
// restore them after a restart.
type StatsSnapshot struct {
	Records         int64
	Attacks         int64
	Mirrored        int64
	MirrorDropped   int64
	Agreements      int64
	Disagreements   int64
	Shed            int64
	DeadlineExpired int64
}

// Snapshot copies the counters. The copy is not atomic across fields —
// counters written concurrently may be one scrape apart — which is fine
// for checkpointing: restore only needs each counter to be a value the
// slot actually reached.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Records:         s.Records.Load(),
		Attacks:         s.Attacks.Load(),
		Mirrored:        s.Mirrored.Load(),
		MirrorDropped:   s.MirrorDropped.Load(),
		Agreements:      s.Agreements.Load(),
		Disagreements:   s.Disagreements.Load(),
		Shed:            s.Shed.Load(),
		DeadlineExpired: s.DeadlineExpired.Load(),
	}
}

// Restore sets the counters to a checkpointed snapshot. Called once at
// recovery, before the slot takes traffic, so the monotonicity contract
// (counters never run backwards within a process) holds.
func (s *Stats) Restore(snap StatsSnapshot) {
	s.Records.Store(snap.Records)
	s.Attacks.Store(snap.Attacks)
	s.Mirrored.Store(snap.Mirrored)
	s.MirrorDropped.Store(snap.MirrorDropped)
	s.Agreements.Store(snap.Agreements)
	s.Disagreements.Store(snap.Disagreements)
	s.Shed.Store(snap.Shed)
	s.DeadlineExpired.Store(snap.DeadlineExpired)
}

// slot is one named registry entry.
type slot struct {
	inst     Instance
	loadedAt time.Time
}

// Op names a lifecycle transition in the registry history.
type Op string

// Lifecycle operations recorded in the history.
const (
	OpLoad     Op = "load"
	OpPromote  Op = "promote"
	OpRollback Op = "rollback"
	OpUnload   Op = "unload"
)

// Transition is one recorded lifecycle event.
type Transition struct {
	Op      Op
	Tag     string
	Version string
	At      time.Time
}

// historyCap bounds the retained lifecycle history.
const historyCap = 64

// validTag constrains slot tags to names that survive URLs, metric labels,
// and log lines unquoted.
var validTag = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// Registry maps tags to loaded model generations. All methods are safe for
// concurrent use. Lookup methods (Get, Live, Tags, ...) take a read lock
// only, so the scoring hot path never contends with itself; lifecycle
// methods (Load, Promote, Rollback, Unload) serialize on the write lock
// and are individually atomic — a reader sees every tag resolve to exactly
// one generation before and one after, never a torn intermediate state.
type Registry struct {
	mu    sync.RWMutex
	slots map[string]*slot
	// stats maps tags to their persistent counters. Entries are created on
	// first use and deliberately never deleted: a tag's counters survive
	// both generation swaps and empty spells, so re-loading a shadow does
	// not rewind its Prometheus counters.
	stats map[string]*Stats
	// prev is the generation most recently displaced from live, retained
	// (still loaded, still running) so Rollback is instant and exact.
	prev *slot
	// onRetire observes every instance the registry permanently discards
	// (displaced from a non-live slot, displaced from prev, or unloaded).
	// It is called without the registry lock held; the serve layer uses it
	// to drain and stop the instance's scoring machinery.
	onRetire func(Instance)

	history   []Transition
	promotes  atomic.Int64
	rollbacks atomic.Int64
}

// New builds an empty registry. onRetire (may be nil) observes every
// instance the registry permanently discards.
func New(onRetire func(Instance)) *Registry {
	return &Registry{
		slots:    make(map[string]*slot),
		stats:    make(map[string]*Stats),
		onRetire: onRetire,
	}
}

// StatsFor returns the persistent counters for tag, creating them on first
// use. The returned Stats is shared by every caller asking for the same
// tag and stays valid across generation swaps. It is called on every
// scoring request, so the existing-entry path (all but the first call per
// tag) takes only the read lock.
func (r *Registry) StatsFor(tag string) *Stats {
	r.mu.RLock()
	s := r.stats[tag]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.stats[tag]; s != nil {
		return s
	}
	s = &Stats{}
	r.stats[tag] = s
	return s
}

// ValidateTag reports whether tag is a loadable slot name.
func ValidateTag(tag string) error {
	if tag == Previous {
		return fmt.Errorf("registry: %q is reserved for the rollback generation and cannot be loaded directly", Previous)
	}
	if !validTag.MatchString(tag) {
		return fmt.Errorf("registry: invalid tag %q (want lowercase letters, digits, '.', '_', '-'; max 64 chars)", tag)
	}
	return nil
}

// Load installs inst under tag, displacing whatever the tag held. A
// displaced live generation is retained as the rollback target (replacing
// — and retiring — any earlier one); a displaced generation under any
// other tag is retired outright.
func (r *Registry) Load(tag string, inst Instance) error {
	if err := ValidateTag(tag); err != nil {
		return err
	}
	var retired []Instance
	r.mu.Lock()
	old := r.slots[tag]
	r.slots[tag] = &slot{inst: inst, loadedAt: time.Now()}
	if old != nil {
		if tag == Live {
			retired = r.setPrev(old)
		} else {
			retired = append(retired, old.inst)
		}
	}
	r.record(OpLoad, tag, inst.Version())
	r.mu.Unlock()
	r.retire(retired)
	return nil
}

// Promote atomically makes the shadow generation live: live ↔ tag swap in
// one critical section, with the displaced live retained for Rollback and
// the shadow slot left empty. Returns the promoted instance.
func (r *Registry) Promote() (Instance, error) {
	var retired []Instance
	r.mu.Lock()
	sh := r.slots[Shadow]
	if sh == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: nothing to promote: the %q slot is empty", Shadow)
	}
	delete(r.slots, Shadow)
	live := r.slots[Live]
	if live != nil {
		retired = r.setPrev(live)
	}
	r.slots[Live] = &slot{inst: sh.inst, loadedAt: time.Now()}
	r.promotes.Add(1)
	r.record(OpPromote, Live, sh.inst.Version())
	r.mu.Unlock()
	r.retire(retired)
	return sh.inst, nil
}

// Rollback swaps live with the retained previous generation — the exact
// instance (and version) that was serving before the last promotion or
// live load. The displaced live becomes the new previous, so a second
// Rollback rolls forward again. Returns the restored instance.
func (r *Registry) Rollback() (Instance, error) {
	r.mu.Lock()
	if r.prev == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: nothing to roll back to (no generation has been displaced from %q)", Live)
	}
	live := r.slots[Live]
	restored := r.prev
	r.slots[Live] = &slot{inst: restored.inst, loadedAt: time.Now()}
	if live != nil {
		r.prev = &slot{inst: live.inst, loadedAt: live.loadedAt}
	} else {
		r.prev = nil
	}
	r.rollbacks.Add(1)
	r.record(OpRollback, Live, restored.inst.Version())
	r.mu.Unlock()
	return restored.inst, nil
}

// Unload removes tag and retires its instance. The live slot cannot be
// unloaded (promote or load over it instead).
func (r *Registry) Unload(tag string) error {
	if tag == Live {
		return fmt.Errorf("registry: cannot unload %q (load or promote a replacement instead)", Live)
	}
	if err := ValidateTag(tag); err != nil {
		return err
	}
	r.mu.Lock()
	s := r.slots[tag]
	if s == nil {
		r.mu.Unlock()
		return fmt.Errorf("registry: no model loaded under tag %q", tag)
	}
	delete(r.slots, tag)
	r.record(OpUnload, tag, s.inst.Version())
	r.mu.Unlock()
	r.retire([]Instance{s.inst})
	return nil
}

// RestorePrevious installs inst as the retained rollback generation
// without recording a transition. It exists for crash recovery: recovery
// rebuilds the slot topology through Load, but the rollback target is not
// a loadable tag, so recovery hands it back directly. Any previously
// retained generation is retired.
func (r *Registry) RestorePrevious(inst Instance) {
	var retired []Instance
	r.mu.Lock()
	if r.prev != nil {
		retired = append(retired, r.prev.inst)
	}
	r.prev = &slot{inst: inst, loadedAt: time.Now()}
	r.mu.Unlock()
	r.retire(retired)
}

// Get returns the instance and load time under tag. Previous resolves to
// the retained rollback generation.
func (r *Registry) Get(tag string) (Instance, time.Time, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s *slot
	if tag == Previous {
		s = r.prev
	} else {
		s = r.slots[tag]
	}
	if s == nil {
		return nil, time.Time{}, false
	}
	return s.inst, s.loadedAt, true
}

// PreviousVersion returns the retained rollback generation's version ("" if
// none).
func (r *Registry) PreviousVersion() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.prev == nil {
		return ""
	}
	return r.prev.inst.Version()
}

// Versions returns every occupied slot's version and the rollback
// generation's ("" if none), read under one lock so the pair is a state
// the registry actually held. It is what the durable control plane
// persists after each lifecycle op.
func (r *Registry) Versions() (slots map[string]string, prev string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	slots = make(map[string]string, len(r.slots))
	for tag, s := range r.slots {
		slots[tag] = s.inst.Version()
	}
	if r.prev != nil {
		prev = r.prev.inst.Version()
	}
	return slots, prev
}

// Counters snapshots every tag's counters, including those of tags whose
// slot is empty now: like the counters themselves, the checkpoint
// outlives the generations a tag serves.
func (r *Registry) Counters() map[string]StatsSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]StatsSnapshot, len(r.stats))
	for tag, st := range r.stats {
		out[tag] = st.Snapshot()
	}
	return out
}

// Tags lists the occupied slots: live first, shadow second, then canary
// tags alphabetically.
func (r *Registry) Tags() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	canaries := make([]string, 0, len(r.slots))
	var out []string
	for tag := range r.slots {
		switch tag {
		case Live, Shadow:
		default:
			canaries = append(canaries, tag)
		}
	}
	sort.Strings(canaries)
	if _, ok := r.slots[Live]; ok {
		out = append(out, Live)
	}
	if _, ok := r.slots[Shadow]; ok {
		out = append(out, Shadow)
	}
	return append(out, canaries...)
}

// Drain empties the registry — every slot and the retained previous — and
// returns the removed instances for the caller to shut down. Unlike
// Unload, Drain does not invoke the retire callback: it exists for
// serve.Server.Close, which tears the instances down synchronously.
func (r *Registry) Drain() []Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Instance
	for tag, s := range r.slots {
		out = append(out, s.inst)
		delete(r.slots, tag)
	}
	if r.prev != nil {
		out = append(out, r.prev.inst)
		r.prev = nil
	}
	return out
}

// Promotes returns how many promotions have been performed.
func (r *Registry) Promotes() int64 { return r.promotes.Load() }

// Rollbacks returns how many rollbacks have been performed.
func (r *Registry) Rollbacks() int64 { return r.rollbacks.Load() }

// History returns the recorded lifecycle transitions, oldest first, capped
// at the most recent historyCap entries.
func (r *Registry) History() []Transition {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Transition, len(r.history))
	copy(out, r.history)
	return out
}

// setPrev retains a displaced live generation as the rollback target and
// returns the instances this permanently discards (the previously retained
// generation, if any). Caller holds the write lock.
func (r *Registry) setPrev(displaced *slot) []Instance {
	var retired []Instance
	if r.prev != nil {
		retired = append(retired, r.prev.inst)
	}
	r.prev = &slot{inst: displaced.inst, loadedAt: displaced.loadedAt}
	return retired
}

// record appends to the bounded history. Caller holds the write lock.
func (r *Registry) record(op Op, tag, version string) {
	r.history = append(r.history, Transition{Op: op, Tag: tag, Version: version, At: time.Now()})
	if len(r.history) > historyCap {
		r.history = r.history[len(r.history)-historyCap:]
	}
}

// retire invokes the retire callback outside the registry lock.
func (r *Registry) retire(insts []Instance) {
	if r.onRetire == nil {
		return
	}
	for _, inst := range insts {
		r.onRetire(inst)
	}
}
