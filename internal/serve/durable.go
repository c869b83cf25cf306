package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/registry"
	"repro/internal/store"
)

// This file is the serve side of the durable control plane: persisting
// artifacts into the content-addressed store, rewriting the registry
// state file after every slot lifecycle op, and rebuilding the exact
// slot→version topology (plus per-tag counters) after a restart.
// Everything here is a no-op when the server runs without a Config.Store.

// errNotDurable marks a lifecycle op the registry applied but the state
// file did not record: the new topology serves, yet a restart before the
// next successful write would not recover it.
var errNotDurable = errors.New("applied but not durable")

// DegradedSlot reports one slot recovery could not restore. The rest of
// the topology is unaffected: a broken shadow or canary never blocks
// startup, and a broken live slot leaves the server up but not ready.
type DegradedSlot struct {
	Tag     string `json:"tag"`
	Version string `json:"version"`
	Reason  string `json:"reason"`
}

// RecoveryReport is what a Recover startup found and did.
type RecoveryReport struct {
	// Restored maps each recovered slot (plus "previous" for the
	// rollback generation) to its artifact version.
	Restored map[string]string `json:"restored"`
	// Degraded lists slots whose artifacts were missing or quarantined.
	Degraded []DegradedSlot `json:"degraded,omitempty"`
	// GCRemoved lists artifact versions swept after recovery (resident
	// in the CAS but referenced by no recovered slot).
	GCRemoved []string `json:"gc_removed,omitempty"`
	// StateError says why the state file was refused (torn, corrupt, or
	// beside an older build's unreplayed write-ahead log); empty when it
	// was read.
	StateError string `json:"state_error,omitempty"`
	// Duration is the whole recovery: state load plus artifact re-lowering.
	Duration time.Duration `json:"-"`
}

// Recovery returns the report from a Recover startup, or nil if the
// server was constructed with New.
func (s *Server) Recovery() *RecoveryReport { return s.recovery }

// Recover rebuilds a server from cfg.Store's registry state file instead
// of an explicit artifact: the file holds the pre-crash slot→version
// topology, every slot's artifact is fetched (verified) from the CAS and
// re-lowered, per-tag counters are restored from the last checkpoint,
// and the rollback generation is reinstated.
//
// Failures degrade, never abort: a slot whose artifact is missing or
// corrupt (corrupt ones are quarantined by the fetch) is dropped from
// the topology and reported, while every other slot recovers. If the
// live slot itself cannot be restored the server still starts — it
// answers /readyz with 503 until an operator loads a live model. A state
// file that cannot be read restores no slot at all, and the server then
// writes nothing to the state dir: every lifecycle op reports itself not
// durable until a fresh start (New) replaces the state.
func Recover(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("serve: Recover requires Config.Store (a -state-dir to recover from)")
	}
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &RecoveryReport{Restored: map[string]string{}}
	s.recovery = rep
	topo, err := store.LoadTopology(s.store.JournalDir())
	if err != nil {
		// Never guess a topology and never sweep the CAS on a guess: an
		// older generation must not answer silently, and the operator
		// needs the files as they are.
		s.stateErr = fmt.Errorf("registry state unreadable at startup: %w", err)
		rep.StateError = err.Error()
		rep.Duration = time.Since(start)
		s.log.Error("registry state unreadable; no slot recovered, nothing will be written to the state dir until a fresh start with a model",
			"error", err)
		return s, nil
	}
	// Counters first, so the slots never take traffic with rewound stats.
	for tag, sr := range topo.Stats {
		s.reg.StatsFor(tag).Restore(registry.StatsSnapshot(sr))
	}
	restore := func(tag, version string, install func(*slotInstance) error) {
		si, err := s.recoverInstance(version)
		if err == nil {
			if err = install(si); err != nil {
				si.scorer.close()
			}
		}
		if err != nil {
			rep.Degraded = append(rep.Degraded, DegradedSlot{Tag: tag, Version: version, Reason: err.Error()})
			s.log.Error("slot not recovered; degrading it", "slot", tag, "version", version, "error", err)
			return
		}
		s.cfg.Store.Retain(version)
		rep.Restored[tag] = version
		s.log.Info("slot recovered", "slot", tag, "version", version)
	}
	// Sorted only so the report and logs are deterministic: nothing is
	// served before Recover returns, so no slot waits on another.
	tags := make([]string, 0, len(topo.Slots))
	for tag := range topo.Slots {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		restore(tag, topo.Slots[tag], func(si *slotInstance) error { return s.reg.Load(tag, si) })
	}
	if topo.Prev != "" {
		restore(registry.Previous, topo.Prev, func(si *slotInstance) error { s.reg.RestorePrevious(si); return nil })
	}
	s.ready.Store(rep.Restored[registry.Live] != "")
	// The state file now holds what actually recovered — degraded slots
	// are pruned, so the next restart does not retry them — and the CAS
	// drops versions nothing references anymore.
	if err := s.persist(); err != nil {
		s.Close()
		return nil, err
	}
	if removed, err := s.store.GC(); err == nil {
		rep.GCRemoved = removed
	}
	rep.Duration = time.Since(start)
	s.startStatsFlusher()
	s.log.Info("recovery complete",
		"slots", len(rep.Restored), "degraded", len(rep.Degraded),
		"ready", s.ready.Load(), "dur", rep.Duration)
	return s, nil
}

// recoverInstance fetches version from the CAS (verification and
// quarantine included) and builds a ready slot instance, reusing an
// already-loaded artifact of the same version so the lowered plan is
// shared rather than recompiled.
func (s *Server) recoverInstance(version string) (*slotInstance, error) {
	if a := s.loadedArtifact(version); a != nil {
		return s.newInstance(a)
	}
	b, err := s.store.Fetch(version)
	if err != nil {
		return nil, err
	}
	a, err := LoadArtifact(bytes.NewReader(b))
	if err != nil {
		// The bytes hash correctly but do not decode: they were bad at Put
		// time. Quarantine so the state file never resurrects them.
		s.store.Quarantine(version, err.Error())
		return nil, err
	}
	return s.newInstance(a)
}

// loadedArtifact returns the already-resident artifact with the given
// version (searching every slot and the rollback generation), or nil.
// Sharing the *Artifact shares its lazily lowered f32 plan: loading one
// version into a second slot must not pay a second lowering.
func (s *Server) loadedArtifact(version string) *Artifact {
	for _, tag := range s.reg.Tags() {
		if si, ok := s.slot(tag); ok && si.artifact.Version() == version {
			return si.artifact
		}
	}
	if si, ok := s.slot(registry.Previous); ok && si.artifact.Version() == version {
		return si.artifact
	}
	return nil
}

// dedupeArtifact swaps a for the resident artifact of the same version
// when one exists, so a re-load of a deployed version reuses the
// compiled plan (pointer-identical) instead of lowering it again.
func (s *Server) dedupeArtifact(a *Artifact) *Artifact {
	if shared := s.loadedArtifact(a.Version()); shared != nil {
		return shared
	}
	return a
}

// persistArtifact makes a durable in the CAS before any registry op may
// reference it — the write-ahead ordering a crash-safe load depends on.
// No-op without a store.
func (s *Server) persistArtifact(a *Artifact) error {
	if s.store == nil {
		return nil
	}
	// The encoding is a pure function of the artifact, so the store's
	// content address must equal the version it was loaded or built with.
	v, err := s.store.Put(a.Bytes())
	if err != nil {
		return err
	}
	if v != a.Version() {
		return fmt.Errorf("serve: artifact hashed to %s in the store but carries version %s", v, a.Version())
	}
	return nil
}

// releaseArtifact drops a retired instance's CAS reference and sweeps
// newly unreferenced versions. Called from the registry retire callback
// (outside the registry lock). No-op without a store.
func (s *Server) releaseArtifact(si *slotInstance) {
	if s.store == nil {
		return
	}
	s.store.Release(si.artifact.Version())
	if removed, err := s.store.GC(); err == nil && len(removed) > 0 {
		s.log.Info("artifact store gc", "removed", len(removed))
	}
}

// persist atomically rewrites the registry state file with what the
// registry holds now plus every tag's counters. Callers serialize on
// adminMu (lifecycle ops, the stats flusher, the final checkpoint; New and
// Recover call it before the server is shared), so writes never
// interleave and the file only ever holds a state the registry held.
// No-op without a store.
func (s *Server) persist() error {
	if s.store == nil {
		return nil
	}
	if s.stateErr != nil {
		return s.stateErr
	}
	slots, prev := s.reg.Versions()
	stats := map[string]store.StatsRecord{}
	for tag, st := range s.reg.Counters() {
		stats[tag] = store.StatsRecord(st)
	}
	return store.SaveTopology(s.store.JournalDir(), store.Topology{Slots: slots, Prev: prev, Stats: stats})
}

// persistOp persists after a lifecycle op the registry has applied. A
// failed write is the op's error, wrapped in errNotDurable: the caller
// must not be told the op is durable. The next successful write (the
// next op, or the flusher within statsInterval) rewrites the whole state,
// so durability heals itself.
func (s *Server) persistOp() error {
	if err := s.persist(); err != nil {
		s.log.Error("registry state not written; the op is applied but a restart would not recover it", "error", err)
		return fmt.Errorf("serve: %w: %v", errNotDurable, err)
	}
	return nil
}

// opStatus is the HTTP status of a failed lifecycle op: refused (the
// handler's code) or applied but not durable (500).
func opStatus(err error, refused int) int {
	if errors.Is(err, errNotDurable) {
		return http.StatusInternalServerError
	}
	return refused
}

// startStatsFlusher starts the periodic counter checkpoint of a
// store-backed server.
func (s *Server) startStatsFlusher() {
	if s.store == nil || s.cfg.statsInterval <= 0 {
		return
	}
	s.statsStop = make(chan struct{})
	s.statsWG.Add(1)
	go s.statsFlusher()
}

// statsFlusher periodically rewrites the state file so a crash rewinds
// per-slot counters at most statsInterval, preserving monotonicity for
// scrapers across the restart.
func (s *Server) statsFlusher() {
	defer s.statsWG.Done()
	t := time.NewTicker(s.cfg.statsInterval)
	defer t.Stop()
	for {
		select {
		case <-s.statsStop:
			return
		case <-t.C:
			s.adminMu.Lock()
			err := s.persist()
			s.adminMu.Unlock()
			if err != nil {
				s.log.Warn("stats checkpoint failed", "error", err)
			}
		}
	}
}

// closeDurability stops the stats flusher and writes a final checkpoint.
// Safe without a store, and safe to call more than once.
func (s *Server) closeDurability() {
	if s.statsStop != nil {
		close(s.statsStop)
		s.statsWG.Wait()
		s.statsStop = nil
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if err := s.persist(); err != nil && s.stateErr == nil {
		s.log.Warn("final stats checkpoint failed", "error", err)
	}
}

// handleReadyz is GET /readyz: 200 once a servable live slot exists,
// 503 while the live slot is missing or degraded, or the server is
// draining. Distinct from /healthz (process liveness) so rolling
// restarts hold traffic until recovery has re-lowered the live slot.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "no live slot", http.StatusServiceUnavailable
	}
	version := ""
	if si, ok := s.slot(registry.Live); ok {
		version = si.artifact.Version()
	}
	body := struct {
		Status   string          `json:"status"`
		Version  string          `json:"version,omitempty"`
		Recovery *RecoveryReport `json:"recovery,omitempty"`
	}{status, version, s.recovery}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}
