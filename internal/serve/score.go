package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/registry"
)

// This file is the scoring core: the one path a request takes once its
// plane has decoded it. A transport — the HTTP handler in server.go, the
// wire connection in wire.go — is decode → admit … settle → encode and
// nothing else; the deadline, slot resolution, admission control, swap
// retry, shed/expired accounting, per-slot stats, shadow mirroring, error
// counters, trace and latency observation all happen here, once, for
// both. admit returns as soon as the request is queued or refused; settle
// runs when it completes. Nothing in the core waits for a verdict.

// scoreRequest is one decoded request as its plane hands it to the core:
// what differs between the planes on the way in and on the way out, and
// its completion. *wireRequest implements it directly, so a wire request
// crosses the core without allocating.
type scoreRequest interface {
	// records materialises the request's records against the resolved
	// slot's own schema — validation and scoring always use the same
	// generation, so a concurrent swap can never mis-pair a record with a
	// different encoder. On error the status is the code to answer.
	records(si *slotInstance) ([]data.Record, int, error)
	// state is the core's state for the request, from admit to settle.
	state() *scoreState
	// pooled reports whether the records and verdicts live in storage that
	// is recycled once the request is answered; the asynchronous shadow
	// mirror then needs its own copy.
	pooled() bool
	// complete runs once per admit — in admit for a refusal, else on the
	// worker that settles the last record — and leads to settle.
	completer

	// respond encodes and sends the verdicts si scored.
	respond(si *slotInstance, verdicts []nids.Verdict) error
	// reject sends an error answer.
	reject(status int, msg string)
}

// scoreState carries a request from admit to settle: its queue entry, the
// tag and the generation that accepted it, the deadline's cancel, and
// admit's refusal, if any.
type scoreState struct {
	sp     span
	tag    string
	si     *slotInstance
	cancel context.CancelFunc
	status int
	err    error
}

// deadline derives the scoring deadline for one request: ctx bounded by
// RequestTimeout, further shortened — never extended — by the client's
// hint in milliseconds (the X-Timeout-Ms header, the wire frame's
// deadline field; 0 or less means none). A hint too large to express as
// a Duration cannot shorten anything and is ignored. The returned cancel
// must be called when scoring completes.
func (s *Server) deadline(ctx context.Context, hintMS int64) (context.Context, context.CancelFunc) {
	budget := s.cfg.RequestTimeout
	if d := time.Duration(hintMS) * time.Millisecond; hintMS > 0 && d/time.Millisecond == time.Duration(hintMS) {
		if budget < 0 || d < budget {
			budget = d
		}
	}
	if budget < 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, budget)
}

// admit is the synchronous half of a request: under ctx (cancelled when
// the client goes away) and the client's deadline hint, it queues the
// request on tag's slot or refuses it, and returns. A refused request
// completes here; a queued one belongs to its completion from then on,
// which may already be running.
func (s *Server) admit(ctx context.Context, hintMS int64, tag string, rq scoreRequest, tr *obs.Trace) {
	st := rq.state()
	st.tag, st.si, st.status, st.err = tag, nil, 0, nil
	ctx, st.cancel = s.deadline(ctx, hintMS)
	st.sp.ctx, st.sp.trace, st.sp.owner = ctx, tr, rq
	if queued, status, err := s.enqueue(tag, rq, st); !queued {
		st.status, st.err = status, err // nil err: expired before intake
		rq.complete()
	}
}

// enqueue resolves tag, materialises the request's records against that
// slot's schema, and queues them on that slot's replicas — one generation
// end to end. The overload path answers before any work queues: a slot
// whose queue is over the admission watermark fast-fails the whole request
// with 429 (records counted as shed), and a deadline that expires while
// the request waits for queue space sheds it (503) — both leaving /healthz
// untouched. If the slot is swapped before it accepts the request (its
// scorer closed), the request retries on the successor generation; a
// request accepted before a swap is still scored by it, so nothing is
// dropped. On refusal the status is the code to answer.
func (s *Server) enqueue(tag string, rq scoreRequest, st *scoreState) (bool, int, error) {
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		admitStart := time.Now()
		si, ok := s.slot(tag)
		if !ok {
			return false, http.StatusNotFound, fmt.Errorf("no model loaded under tag %q", tag)
		}
		recs, status, err := rq.records(si)
		if err != nil {
			return false, status, err
		}
		tr := st.sp.trace
		tr.SetSlot(tag, si.artifact.Version())
		if wm := s.cfg.AdmitWatermark; wm > 0 && si.scorer.queueLen() >= wm {
			s.reg.StatsFor(tag).Shed.Add(int64(len(recs)))
			s.m.shed.Add(int64(len(recs)))
			return false, http.StatusTooManyRequests,
				fmt.Errorf("slot %q queue is over the admission watermark (%d queued, watermark %d); retry later", tag, si.scorer.queueLen(), wm)
		}
		if attempt == 0 {
			// Resolve + validate + watermark check; later attempts (slot
			// swapped mid-request, rare) are folded into queue_wait.
			tr.Span("admit", admitStart, time.Since(admitStart))
		}
		st.si, st.sp.recs = si, recs
		if cap(st.sp.verdicts) < len(recs) {
			st.sp.verdicts = make([]nids.Verdict, len(recs))
		}
		st.sp.verdicts = st.sp.verdicts[:len(recs)]
		switch si.scorer.submit(&st.sp) {
		case submitAccepted:
			return true, 0, nil
		case submitExpired:
			return false, 0, nil // settle answers it as expired
		}
		// submitClosed: the slot was swapped mid-request; resolve again.
	}
	return false, http.StatusServiceUnavailable,
		fmt.Errorf("slot %q was replaced %d times mid-request; retry", tag, maxAttempts)
}

// settle is the one tail of every scoring request, run once it completes
// — on the wire plane, on the scoring worker, so nothing here may wait on
// a client. A request is settled once, whole: scored, or — if any of it
// was shed past the deadline — expired, all of its records. A scored one
// is counted, handed to the shadow mirror if live, encoded by its plane
// (the encode stage, observed on the answering slot's histograms), traced
// and its latency observed; a failed one — rejected by its plane's
// decoder, by admit, or by the encoder — is counted by class, logged,
// answered with the status its trace is sealed with, so /debug/traces
// never shows a status the client did not get.
func (s *Server) settle(rq scoreRequest) {
	st := rq.state()
	if st.cancel != nil { // nil when the plane's decoder refused it
		st.cancel()
	}
	sp, tr := &st.sp, st.sp.trace
	n, status, err := int64(len(sp.recs)), st.status, st.err
	if err == nil && sp.shed.Load() > 0 {
		s.reg.StatsFor(st.tag).DeadlineExpired.Add(n)
		s.m.deadlineExpired.Add(n)
		status, err = http.StatusServiceUnavailable,
			fmt.Errorf("deadline expired while queued: %d of %d records shed; retry with more budget", sp.shed.Load(), n)
	}
	if err == nil {
		stats := s.reg.StatsFor(st.tag)
		stats.Records.Add(n)
		attacks := int64(0)
		for i := range sp.verdicts {
			if sp.verdicts[i].IsAttack {
				attacks++
			}
		}
		stats.Attacks.Add(attacks)
		if st.tag == registry.Live {
			s.mirror(st.si, sp.recs, sp.verdicts, rq.pooled(), tr)
		}
		s.m.records.Add(n)
		encStart := time.Now()
		if err = rq.respond(st.si, sp.verdicts); err == nil {
			encDur := time.Since(encStart)
			st.si.scorer.stages.encode.ObserveDuration(encDur)
			tr.Span("encode", encStart, encDur)
			s.putTrace(tr, http.StatusOK, "")
			if s.log.Enabled(obs.LevelDebug) {
				s.log.Debug("request scored", "request_id", tr.ID, "endpoint", tr.Endpoint,
					"slot", tr.Slot, "version", tr.Version, "records", n,
					"dur", time.Since(tr.Start))
			}
			s.m.latency.ObserveDuration(time.Since(tr.Start))
			return
		}
		status, err = http.StatusInternalServerError, fmt.Errorf("encode response: %w", err)
	}
	msg := err.Error()
	s.countError(status, tr.ID, msg)
	rq.reject(status, msg)
	s.putTrace(tr, status, msg)
}

// countError counts one refused request by class and logs it: 5xx are
// server-side failures and overload 503s (Warn), 4xx are client-side
// rejections including deliberate 429 shedding (Debug).
func (s *Server) countError(status int, requestID, msg string) {
	if status >= 500 {
		s.m.requestErrors5xx.Add(1)
		s.log.Warn("request error", "status", status, "request_id", requestID, "error", msg)
	} else {
		s.m.requestErrors4xx.Add(1)
		s.log.Debug("request rejected", "status", status, "request_id", requestID, "error", msg)
	}
}

// putTrace seals tr with the request's outcome and publishes it to the
// /debug/traces ring.
func (s *Server) putTrace(tr *obs.Trace, status int, errMsg string) {
	tr.Finish(status, errMsg)
	s.traces.Put(tr)
}

// mirror duplicates a live request onto the shadow slot, asynchronously
// and best-effort: a missing shadow, a different feature layout, a full
// shadow queue (a mirror's nil ctx makes submit refuse at once), or more
// than mirrorConcurrency mirrors already in flight all drop the mirror
// (counted) rather than delay anything. Completed mirrors accumulate the
// shadow slot's records/attacks counters and the per-record agreement
// split against live's verdicts — the side-by-side evidence a promotion
// decision reads. pooled means recs and liveVerdicts
// are recycled when the live request is answered, which the mirror
// outlives, so it takes copies. Each mirror gets its own
// trace child-linked (ParentID) to the live request that spawned it: the
// mirror outlives the parent's response, so it cannot share the parent's
// sealed trace.
func (s *Server) mirror(live *slotInstance, recs []data.Record, liveVerdicts []nids.Verdict, pooled bool, parent *obs.Trace) {
	if s.cfg.MirrorOff {
		return
	}
	sh, ok := s.slot(registry.Shadow)
	if !ok {
		return
	}
	stats := s.reg.StatsFor(registry.Shadow)
	if !sh.artifact.Schema.SameFeatures(live.artifact.Schema) {
		// A schema-evolving shadow cannot score live-shaped records; it is
		// staged for promotion, not comparison.
		stats.MirrorDropped.Add(int64(len(recs)))
		return
	}
	select {
	case s.mirrorSem <- struct{}{}:
	default:
		stats.MirrorDropped.Add(int64(len(recs)))
		return
	}
	if pooled {
		recs = cloneRecords(recs)
		liveVerdicts = append([]nids.Verdict(nil), liveVerdicts...)
	}
	// SameFeatures deliberately ignores class names, so the two models may
	// label incompatible class spaces; comparing raw class indices across
	// them would count two "dos" verdicts as disagreement. Fall back to
	// attack/normal agreement — always comparable — unless the class lists
	// match exactly.
	m := &shadowMirror{s: s, stats: stats, live: liveVerdicts,
		classComparable: sameClasses(live.artifact.Schema.ClassNames, sh.artifact.Schema.ClassNames)}
	child := obs.NewTrace(obs.NewID(), "mirror")
	child.ParentID = parent.ID
	child.Records = len(recs)
	child.SetSlot(registry.Shadow, sh.artifact.Version())
	m.sp.recs, m.sp.verdicts, m.sp.trace, m.sp.owner = recs, make([]nids.Verdict, len(recs)), child, m
	s.mirrorWG.Add(1) // before submit: the completion may run first
	if sh.scorer.submit(&m.sp) != submitAccepted {
		stats.MirrorDropped.Add(int64(len(recs)))
		s.putTrace(child, http.StatusServiceUnavailable, "mirror dropped: shadow queue full or slot swapped")
		m.release()
	}
}

// shadowMirror is one mirror in flight on the shadow slot.
type shadowMirror struct {
	s               *Server
	sp              span
	stats           *registry.Stats
	live            []nids.Verdict
	classComparable bool
}

// complete counts a scored mirror (without a deadline, none is shed).
func (m *shadowMirror) complete() {
	n := int64(len(m.sp.recs))
	m.s.putTrace(m.sp.trace, http.StatusOK, "")
	m.stats.Mirrored.Add(n)
	m.stats.Records.Add(n)
	var attacks, agree int64
	for i, v := range m.sp.verdicts {
		if v.IsAttack {
			attacks++
		}
		if v.IsAttack == m.live[i].IsAttack &&
			(!m.classComparable || v.Class == m.live[i].Class) {
			agree++
		}
	}
	m.stats.Attacks.Add(attacks)
	m.stats.Agreements.Add(agree)
	m.stats.Disagreements.Add(n - agree)
	m.release()
}

// release returns the mirror's in-flight token.
func (m *shadowMirror) release() { <-m.s.mirrorSem; m.s.mirrorWG.Done() }

// sameClasses reports whether two class-name lists are identical (same
// labels, same order — i.e. class indices mean the same thing).
func sameClasses(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cloneRecords deep-copies pooled records into fresh backing storage
// (the categorical strings themselves are immutable and shared).
func cloneRecords(recs []data.Record) []data.Record {
	out := make([]data.Record, len(recs))
	nn, nc := 0, 0
	for i := range recs {
		nn += len(recs[i].Numeric)
		nc += len(recs[i].Categorical)
	}
	nums := make([]float64, 0, nn)
	cats := make([]string, 0, nc)
	for i := range recs {
		n0 := len(nums)
		nums = append(nums, recs[i].Numeric...)
		c0 := len(cats)
		cats = append(cats, recs[i].Categorical...)
		out[i] = data.Record{
			Numeric:     nums[n0:len(nums):len(nums)],
			Categorical: cats[c0:len(cats):len(cats)],
			Label:       recs[i].Label,
		}
	}
	return out
}
