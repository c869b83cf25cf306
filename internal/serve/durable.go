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
// artifacts into the content-addressed store, journaling every slot
// lifecycle op, and rebuilding the exact slot→version topology (plus
// per-tag counters) after a restart. Everything here is a no-op when
// the server runs without a Config.Store.

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
	// SnapshotSeq, Replayed, and Truncated describe the journal replay:
	// the compacted snapshot's sequence number, how many journal records
	// were applied on top of it, and how many torn/corrupt trailing
	// records were cut.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Replayed    int    `json:"replayed"`
	Truncated   int    `json:"truncated"`
	// Restored maps each recovered slot (plus "previous" for the
	// rollback generation) to its artifact version.
	Restored map[string]string `json:"restored"`
	// Degraded lists slots whose artifacts were missing or quarantined.
	Degraded []DegradedSlot `json:"degraded,omitempty"`
	// GCRemoved lists artifact versions swept after recovery (resident
	// in the CAS but referenced by no recovered slot).
	GCRemoved []string `json:"gc_removed,omitempty"`
	// Duration is the whole recovery: replay plus artifact re-lowering.
	Duration time.Duration `json:"-"`
}

// Recovery returns the report from a Recover startup, or nil if the
// server was constructed with New.
func (s *Server) Recovery() *RecoveryReport { return s.recovery }

// Recover rebuilds a server from cfg.Store's journal instead of an
// explicit artifact: the snapshot+journal replay yields the pre-crash
// slot→version topology, every slot's artifact is fetched (verified)
// from the CAS and re-lowered, per-tag counters are restored from the
// last stats checkpoint, and the rollback generation is reinstated.
//
// Failures degrade, never abort: a slot whose artifact is missing or
// corrupt (corrupt ones are quarantined by the fetch) is dropped from
// the topology and reported, while every other slot recovers. If the
// live slot itself cannot be restored the server still starts — it
// answers /readyz with 503 until an operator loads a live model.
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
	topo := s.journal.Topology()
	rep := &RecoveryReport{
		SnapshotSeq: s.replayInfo.SnapshotSeq,
		Replayed:    s.replayInfo.Replayed,
		Truncated:   s.replayInfo.Truncated,
		Restored:    map[string]string{},
	}
	if rep.Truncated > 0 {
		s.log.Warn("journal had torn trailing records; truncated to last valid prefix",
			"truncated", rep.Truncated, "replayed", rep.Replayed)
	}
	// Counters first, so the slots never take traffic with rewound stats.
	for tag, sr := range topo.Stats {
		s.reg.StatsFor(tag).Restore(registry.StatsSnapshot(sr))
	}
	restored := store.NewTopology()
	restored.Stats = topo.Stats
	for _, tag := range recoveryOrder(topo.Slots) {
		version := topo.Slots[tag]
		si, err := s.recoverInstance(version)
		if err != nil {
			rep.Degraded = append(rep.Degraded, DegradedSlot{Tag: tag, Version: version, Reason: err.Error()})
			s.log.Error("slot not recovered; degrading it", "slot", tag, "version", version, "error", err)
			continue
		}
		if err := s.reg.Load(tag, si); err != nil {
			rep.Degraded = append(rep.Degraded, DegradedSlot{Tag: tag, Version: version, Reason: err.Error()})
			continue
		}
		s.cfg.Store.Retain(version)
		restored.Slots[tag] = version
		rep.Restored[tag] = version
		if tag == registry.Live {
			s.ready.Store(true)
		}
		s.log.Info("slot recovered", "slot", tag, "version", version)
	}
	if topo.Prev != "" {
		si, err := s.recoverInstance(topo.Prev)
		if err != nil {
			rep.Degraded = append(rep.Degraded, DegradedSlot{Tag: registry.Previous, Version: topo.Prev, Reason: err.Error()})
			s.log.Error("rollback generation not recovered", "version", topo.Prev, "error", err)
		} else {
			s.reg.RestorePrevious(si)
			s.cfg.Store.Retain(topo.Prev)
			restored.Prev = topo.Prev
			rep.Restored[registry.Previous] = topo.Prev
		}
	}
	// The journal now reflects what actually recovered — degraded slots
	// are pruned so the next restart replays a clean topology — and the
	// CAS drops versions nothing references anymore.
	if err := s.journal.Reset(restored); err != nil {
		s.closeDurability()
		return nil, err
	}
	if removed, err := s.store.GC(); err == nil {
		rep.GCRemoved = removed
	}
	rep.Duration = time.Since(start) + s.replayInfo.Duration
	s.recovery = rep
	s.log.Info("recovery complete",
		"slots", len(rep.Restored), "degraded", len(rep.Degraded),
		"replayed", rep.Replayed, "truncated", rep.Truncated,
		"ready", s.ready.Load(), "dur", rep.Duration)
	return s, nil
}

// recoveryOrder lists the topology's tags live-first (a degraded canary
// must never delay live), then shadow, then canaries alphabetically.
func recoveryOrder(slots map[string]string) []string {
	var canaries []string
	var out []string
	for tag := range slots {
		switch tag {
		case registry.Live, registry.Shadow:
		default:
			canaries = append(canaries, tag)
		}
	}
	sort.Strings(canaries)
	if _, ok := slots[registry.Live]; ok {
		out = append(out, registry.Live)
	}
	if _, ok := slots[registry.Shadow]; ok {
		out = append(out, registry.Shadow)
	}
	return append(out, canaries...)
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
		// time. Quarantine so the journal never resurrects them.
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

// journalAppend records one lifecycle op, piggybacking a stats
// checkpoint on the same fsync. Called with adminMu held, after the
// registry op succeeded: the op is durable before its HTTP response,
// and a crash between registry and journal loses only an op nobody was
// told succeeded. No-op without a store.
func (s *Server) journalAppend(op, tag, version string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(op, tag, version, s.statsCheckpoint()); err != nil {
		s.log.Error("journal append failed; topology change will not survive a restart",
			"op", op, "slot", tag, "version", version, "error", err)
	}
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

// statsCheckpoint snapshots every occupied slot's counters for a
// journal record.
func (s *Server) statsCheckpoint() map[string]store.StatsRecord {
	out := map[string]store.StatsRecord{}
	for _, tag := range s.reg.Tags() {
		out[tag] = store.StatsRecord(s.reg.StatsFor(tag).Snapshot())
	}
	return out
}

// statsFlusher periodically checkpoints per-slot counters into the
// journal so a crash rewinds them at most statsInterval, preserving
// monotonicity for scrapers across the restart.
func (s *Server) statsFlusher() {
	defer s.statsWG.Done()
	t := time.NewTicker(s.cfg.statsInterval)
	defer t.Stop()
	for {
		select {
		case <-s.statsStop:
			return
		case <-t.C:
			if err := s.journal.Append(store.OpStats, "", "", s.statsCheckpoint()); err != nil {
				s.log.Warn("stats checkpoint failed", "error", err)
			}
		}
	}
}

// closeDurability stops the stats flusher and closes the journal. Safe
// without a store, and safe to call more than once.
func (s *Server) closeDurability() {
	if s.statsStop != nil {
		close(s.statsStop)
		s.statsWG.Wait()
		s.statsStop = nil
	}
	if s.journal != nil {
		s.journal.Append(store.OpStats, "", "", s.statsCheckpoint())
		s.journal.Compact()
		s.journal.Close()
		s.journal = nil
	}
}

// handleReadyz is GET /readyz: 200 once a servable live slot exists,
// 503 while recovery is still replaying, the live slot is degraded, or
// the server is draining. Distinct from /healthz (process liveness) so
// rolling restarts hold traffic until the journal replay has finished.
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
