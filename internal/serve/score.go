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
// wire connection in wire.go — is decode → serveScore → encode and
// nothing else; the deadline, slot resolution, admission control, swap
// retry, shed/expired accounting, per-slot stats, shadow mirroring, error
// counters, trace and latency observation all happen here, once, for
// both.

// scoreRequest is one decoded request as its plane hands it to the core:
// the three things that differ between the planes on the way in, and the
// three on the way out. *wireRequest implements it directly, so a wire
// request crosses the core without allocating.
type scoreRequest interface {
	// records materialises the request's records against the resolved
	// slot's own schema — validation and scoring always use the same
	// generation, so a concurrent swap can never mis-pair a record with a
	// different encoder. On error the status is the code to answer.
	records(si *slotInstance) ([]data.Record, int, error)
	// span returns the request's queue entry with n zeroed verdicts for
	// the workers to fill; the wire plane's lives in its pooled request.
	span(n int) *span
	// pooled reports whether the records and verdicts live in storage that
	// is recycled once the request is answered; the asynchronous shadow
	// mirror then needs its own copy.
	pooled() bool

	// respond encodes and sends the verdicts si scored.
	respond(si *slotInstance, verdicts []nids.Verdict) error
	// reject sends an error answer.
	reject(status int, msg string)
	// requestID names the request in logs (needed on the error path only).
	requestID() string
}

// serveScore runs one decoded request to its answer under ctx (cancelled
// when the client goes away) and the client's deadline hint.
func (s *Server) serveScore(ctx context.Context, hintMS int64, tag string, rq scoreRequest, tr *obs.Trace, start time.Time) {
	ctx, cancel := s.deadline(ctx, hintMS)
	verdicts, si, status, err := s.score(ctx, tag, rq, tr)
	cancel()
	s.finish(rq, tr, start, verdicts, si, status, err)
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

// score resolves tag, materialises the request's records against that
// slot's schema, and scores them on that slot's replicas — one generation
// end to end, under ctx's deadline. The overload path answers before any
// work queues: a slot whose queue is over the admission watermark
// fast-fails the whole request with 429 (records counted as shed), and a
// deadline that expires while records wait for queue space or a replica
// sheds them and answers 503 — both leaving /healthz untouched. If the
// slot is swapped mid-request (its scorer closed before every record was
// accepted), the request retries on the successor generation; records
// accepted before a swap are still scored by it, so nothing is dropped.
// On error the returned status is the code to answer.
func (s *Server) score(ctx context.Context, tag string, in scoreRequest, tr *obs.Trace) ([]nids.Verdict, *slotInstance, int, error) {
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		admitStart := time.Now()
		si, ok := s.slot(tag)
		if !ok {
			return nil, nil, http.StatusNotFound, fmt.Errorf("no model loaded under tag %q", tag)
		}
		recs, status, err := in.records(si)
		if err != nil {
			return nil, nil, status, err
		}
		tr.SetSlot(tag, si.artifact.Version())
		st := s.reg.StatsFor(tag)
		if wm := s.cfg.AdmitWatermark; wm > 0 && si.scorer.queueLen() >= wm {
			st.Shed.Add(int64(len(recs)))
			s.m.shed.Add(int64(len(recs)))
			return nil, nil, http.StatusTooManyRequests,
				fmt.Errorf("slot %q queue is over the admission watermark (%d queued, watermark %d); retry later", tag, si.scorer.queueLen(), wm)
		}
		if attempt == 0 {
			// Resolve + validate + watermark check; later attempts (slot
			// swapped mid-request, rare) are folded into queue_wait.
			tr.Span("admit", admitStart, time.Since(admitStart))
		}
		sp := in.span(len(recs))
		sp.recs, sp.ctx, sp.trace = recs, ctx, tr
		// The request is settled once, whole: scored, or — if any of it was
		// shed past the deadline — expired, all of its records.
		switch si.scorer.submit(sp) {
		case submitClosed:
			continue // slot swapped mid-request: resolve again
		case submitExpired:
			st.DeadlineExpired.Add(int64(len(recs)))
			s.m.deadlineExpired.Add(int64(len(recs)))
			return nil, nil, http.StatusServiceUnavailable,
				fmt.Errorf("deadline expired while queued: %d of %d records shed; retry with more budget", sp.shed.Load(), len(recs))
		}
		verdicts := sp.verdicts
		st.Records.Add(int64(len(recs)))
		attacks := int64(0)
		for i := range verdicts {
			if verdicts[i].IsAttack {
				attacks++
			}
		}
		st.Attacks.Add(attacks)
		if tag == registry.Live {
			s.mirror(si, recs, verdicts, in.pooled(), tr)
		}
		return verdicts, si, 0, nil
	}
	return nil, nil, http.StatusServiceUnavailable,
		fmt.Errorf("slot %q was replaced %d times mid-request; retry", tag, maxAttempts)
}

// finish is the one tail of every scoring request. A scored request is
// counted, encoded by its plane (the encode stage, observed on the
// answering slot's histograms), traced and its latency observed; a failed
// one — rejected by its plane's decoder, by score, or by the encoder — is
// counted by class, logged, answered with the status its trace is sealed
// with, so /debug/traces never shows a status the client did not get.
func (s *Server) finish(rq scoreRequest, tr *obs.Trace, start time.Time, verdicts []nids.Verdict, si *slotInstance, status int, err error) {
	if err == nil {
		s.m.records.Add(int64(len(verdicts)))
		encStart := time.Now()
		if err = rq.respond(si, verdicts); err == nil {
			encDur := time.Since(encStart)
			si.scorer.stages.encode.ObserveDuration(encDur)
			tr.Span("encode", encStart, encDur)
			s.putTrace(tr, http.StatusOK, "")
			if s.log.Enabled(obs.LevelDebug) {
				s.log.Debug("request scored", "request_id", tr.ID, "endpoint", tr.Endpoint,
					"slot", tr.Slot, "version", tr.Version, "records", len(verdicts),
					"dur", time.Since(tr.Start))
			}
			s.m.latency.ObserveDuration(time.Since(start))
			return
		}
		status, err = http.StatusInternalServerError, fmt.Errorf("encode response: %w", err)
	}
	msg := err.Error()
	s.countError(status, rq.requestID(), msg)
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
// shadow queue, or more than mirrorConcurrency mirrors already in flight
// all drop the mirror (counted) rather than delay anything. Completed
// mirrors accumulate the shadow slot's records/attacks counters and the
// per-record agreement split against live's verdicts — the side-by-side
// evidence a promotion decision reads. pooled means recs and liveVerdicts
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
	classComparable := sameClasses(live.artifact.Schema.ClassNames, sh.artifact.Schema.ClassNames)
	child := obs.NewTrace(obs.NewID(), "mirror")
	child.ParentID = parent.ID
	child.Records = len(recs)
	child.SetSlot(registry.Shadow, sh.artifact.Version())
	s.mirrorWG.Add(1)
	go func() {
		defer func() {
			<-s.mirrorSem
			s.mirrorWG.Done()
		}()
		sp := &span{recs: recs, verdicts: make([]nids.Verdict, len(recs)), trace: child}
		if sh.scorer.submit(sp) != submitOK {
			stats.MirrorDropped.Add(int64(len(recs)))
			s.putTrace(child, http.StatusServiceUnavailable, "mirror dropped: shadow queue full or slot swapped")
			return
		}
		s.putTrace(child, http.StatusOK, "")
		stats.Mirrored.Add(int64(len(recs)))
		stats.Records.Add(int64(len(recs)))
		var attacks, agree int64
		for i, v := range sp.verdicts {
			if v.IsAttack {
				attacks++
			}
			if v.IsAttack == liveVerdicts[i].IsAttack &&
				(!classComparable || v.Class == liveVerdicts[i].Class) {
				agree++
			}
		}
		stats.Attacks.Add(attacks)
		stats.Agreements.Add(agree)
		stats.Disagreements.Add(int64(len(recs)) - agree)
	}()
}

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
