package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/registry"
	"repro/internal/wire"
)

// scorePlane drives single scoring requests over one transport at the
// protocol level, so a scenario runs unchanged over HTTP and over the wire
// against the same Server, and what each plane answered — and what it did
// to the counters — can be compared.
type scorePlane struct {
	name  string
	score func(t *testing.T, rq planeRequest) planeAnswer
}

type planeRequest struct {
	tag       string // "" = live
	timeoutMS int    // deadline hint (X-Timeout-Ms / frame deadline); 0 = none
	recs      []*data.Record
	// schema, when non-nil, says recs are shaped for this schema rather
	// than the served one (the wrong-record-shape case): the wire plane
	// must pack them with a matching encoder while still claiming the
	// served schema's fingerprint, or the request would not get as far as
	// the shape check.
	schema *data.Schema
}

type planeAnswer struct {
	status   int // 200 = scored
	version  string
	verdicts []nids.Verdict
}

// planesOf returns the HTTP and the wire plane of one server.
func planesOf(t *testing.T, srv *Server, ts *httptest.Server) []scorePlane {
	t.Helper()
	httpPlane := scorePlane{name: "http", score: func(t *testing.T, rq planeRequest) planeAnswer {
		t.Helper()
		b, err := json.Marshal(detectBatchRequest{Records: recordsJSON(rq.recs)})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/detect-batch"+tagQuery(rq.tag), bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if rq.timeoutMS > 0 {
			req.Header.Set("X-Timeout-Ms", strconv.Itoa(rq.timeoutMS))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		ans := planeAnswer{status: resp.StatusCode}
		if resp.StatusCode != http.StatusOK {
			overload := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
			if overload && resp.Header.Get("Retry-After") == "" {
				t.Errorf("http: %d without Retry-After", resp.StatusCode)
			}
			return ans
		}
		var br detectBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		ans.version = br.ModelVersion
		for _, v := range br.Verdicts {
			ans.verdicts = append(ans.verdicts, nids.Verdict{IsAttack: v.IsAttack, Class: v.Class, Score: v.Score})
		}
		return ans
	}}

	c := dialWire(t, startWireListener(t, srv))
	served := c.enc
	var id uint64
	wirePlane := scorePlane{name: "wire", score: func(t *testing.T, rq planeRequest) planeAnswer {
		t.Helper()
		id++
		if rq.schema != nil {
			c.enc = wire.NewRecordEncoder(*rq.schema)
			defer func() { c.enc = served }()
		}
		c.sendScore(t, id, uint32(rq.timeoutMS), rq.tag, rq.recs, func(p []byte) {
			binary.LittleEndian.PutUint64(p[12:20], served.Fingerprint())
		})
		ft, p := c.readFrame(t)
		if ft == wire.FrameError {
			we, err := wire.ParseError(p)
			if err != nil || we.ID != id {
				t.Fatalf("wire: error frame %+v, %v; want id %d", we, err, id)
			}
			return planeAnswer{status: we.Status}
		}
		if ft != wire.FrameResult {
			t.Fatalf("wire: frame type %d, want Result or Error", ft)
		}
		resp, err := wire.ParseScoreResponse(p)
		if err != nil || resp.ID != id {
			t.Fatalf("wire: response %+v, %v; want id %d", resp, err, id)
		}
		ans := planeAnswer{status: http.StatusOK, version: string(resp.Version), verdicts: make([]nids.Verdict, resp.Count)}
		if err := resp.DecodeVerdicts(ans.verdicts); err != nil {
			t.Fatal(err)
		}
		return ans
	}}
	return []scorePlane{httpPlane, wirePlane}
}

// countersOf snapshots everything the scoring core accounts a request on:
// the server-wide counters and the live and shadow slots' own.
func countersOf(srv *Server) map[string]int64 {
	c := map[string]int64{
		"records":    srv.m.records.Load(),
		"shed":       srv.m.shed.Load(),
		"expired":    srv.m.deadlineExpired.Load(),
		"errors_4xx": srv.m.requestErrors4xx.Load(),
		"errors_5xx": srv.m.requestErrors5xx.Load(),
	}
	for _, tag := range []string{registry.Live, registry.Shadow} {
		st := srv.reg.StatsFor(tag)
		c[tag+".records"] = st.Records.Load()
		c[tag+".attacks"] = st.Attacks.Load()
		c[tag+".shed"] = st.Shed.Load()
		c[tag+".expired"] = st.DeadlineExpired.Load()
		c[tag+".mirrored"] = st.Mirrored.Load()
		c[tag+".mirror_dropped"] = st.MirrorDropped.Load()
	}
	return c
}

// onBothPlanes runs scenario once per plane against the same server and
// requires the planes to agree: the same status, the same verdicts (see
// sameVerdicts) from the same model version, and identical deltas of every
// counter in countersOf — which must also conserve records: admitted, the
// number of records each run gets past decoding and slot resolution, has
// to equal scored + shed + expired exactly. It returns the agreed answer
// and delta (zero entries omitted) for the scenario's own assertions.
func onBothPlanes(t *testing.T, srv *Server, planes []scorePlane, admitted int64, scenario func(t *testing.T, p scorePlane) planeAnswer) (planeAnswer, map[string]int64) {
	t.Helper()
	var answers []planeAnswer
	var deltas []map[string]int64
	for _, p := range planes {
		before := countersOf(srv)
		ans := scenario(t, p)
		srv.mirrorWG.Wait() // mirrors are asynchronous; their counters are part of the outcome
		delta := map[string]int64{}
		for k, v := range countersOf(srv) {
			if d := v - before[k]; d != 0 {
				delta[k] = d
			}
		}
		if got := delta["records"] + delta["shed"] + delta["expired"]; got != admitted {
			t.Fatalf("%s: %d records admitted but scored+shed+expired = %d (%v)", p.name, admitted, got, delta)
		}
		answers, deltas = append(answers, ans), append(deltas, delta)
	}
	h, w := answers[0], answers[1]
	if h.status != w.status || h.version != w.version {
		t.Fatalf("http answered %d (version %q), wire %d (version %q)", h.status, h.version, w.status, w.version)
	}
	if err := sameVerdicts(h.verdicts, w.verdicts); err != nil {
		t.Fatalf("http vs wire verdicts: %v", err)
	}
	if !reflect.DeepEqual(deltas[0], deltas[1]) {
		t.Fatalf("counter deltas differ:\n http %v\n wire %v", deltas[0], deltas[1])
	}
	return h, deltas[0]
}

// sameVerdicts requires two verdict lists to agree: attack flag and class
// exactly, score to f32 precision (the wire format narrows scores to f32
// by design, and batch composition may differ between two calls).
func sameVerdicts(a, b []nids.Verdict) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d verdicts vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].IsAttack != b[i].IsAttack || a[i].Class != b[i].Class || a[i].Failed != b[i].Failed {
			return fmt.Errorf("record %d: %+v vs %+v", i, a[i], b[i])
		}
		if diff := math.Abs(a[i].Score - b[i].Score); diff > 1e-4*math.Max(1, math.Abs(a[i].Score)) {
			return fmt.Errorf("record %d score: %v vs %v", i, a[i].Score, b[i].Score)
		}
	}
	return nil
}
