package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/registry"
)

// copyFile duplicates src at dst (chaos tests corrupt the copy, never the
// original).
func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// postRecords sends one single-record scoring request and returns its
// status and latency.
func postRecords(t *testing.T, url string, body []byte) (int, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scoring request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start)
}

func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[(len(lat)*99)/100]
}

// TestChaosOverloadShedsAndStaysHealthy is the chaos e2e acceptance test
// for overload: with an injected 20ms replica stall and concurrent clients
// driving the server past capacity, the excess is shed with 429/503 (never
// an error, never a hang), the accepted requests' p99 stays within a small
// multiple of the unloaded p99, and /healthz answers 200 the whole time —
// zero restarts, and the server serves normally once the storm passes.
func TestChaosOverloadShedsAndStaysHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and hammers it")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 23, 1)
	// MaxBatch 1 makes the injected 20ms a per-record service time, so the
	// slot's capacity is ~100 records/s — 8 closed-loop clients exceed it.
	inj := &chaos.Injector{}
	_, ts := newTestServer(t, a, Config{
		Replicas: 2, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 16, AdmitWatermark: 2, Chaos: inj,
	})
	body, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(recs[:1])})

	// Baseline: unloaded p99 with the chaos fault already active — the
	// comparison the overload bound is defined against.
	inj.SetScoreDelay(20 * time.Millisecond)
	var baseline []time.Duration
	for i := 0; i < 25; i++ {
		code, lat := postRecords(t, ts.URL+"/v2/detect-batch", body)
		if code != http.StatusOK {
			t.Fatalf("unloaded request %d got %d", i, code)
		}
		baseline = append(baseline, lat)
	}
	baseP99 := p99(baseline)

	// Health watchdog: /healthz must stay green through the whole storm.
	healthStop := make(chan struct{})
	var healthFails atomic.Int64
	var healthWG sync.WaitGroup
	healthWG.Add(1)
	go func() {
		defer healthWG.Done()
		for {
			select {
			case <-healthStop:
				return
			case <-time.After(10 * time.Millisecond):
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					healthFails.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					healthFails.Add(1)
				}
			}
		}
	}()

	// The storm: 16 closed-loop clients against 2 replicas of 20ms batches.
	const clients, perClient = 16, 15
	var mu sync.Mutex
	var accepted []time.Duration
	var shed, other int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, lat := postRecords(t, ts.URL+"/v2/detect-batch", body)
				mu.Lock()
				switch code {
				case http.StatusOK:
					accepted = append(accepted, lat)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(healthStop)
	healthWG.Wait()

	if other > 0 {
		t.Fatalf("%d requests answered something other than 200/429/503", other)
	}
	if shed == 0 {
		t.Fatalf("no requests shed with %d closed-loop clients over a stalled 2-replica slot", clients)
	}
	if len(accepted) == 0 {
		t.Fatal("every request shed: admission control must still serve what fits")
	}
	if fails := healthFails.Load(); fails > 0 {
		t.Fatalf("/healthz failed %d times during overload", fails)
	}
	bound := 5 * baseP99
	if bound < 500*time.Millisecond {
		bound = 500 * time.Millisecond // CI-jitter floor
	}
	if got := p99(accepted); got > bound {
		t.Fatalf("accepted p99 %v exceeds %v (5x unloaded p99 %v)", got, bound, baseP99)
	}

	// Storm over, fault released: normal service, no restart.
	inj.SetScoreDelay(0)
	if code, _ := postRecords(t, ts.URL+"/v2/detect-batch", body); code != http.StatusOK {
		t.Fatalf("post-storm request got %d", code)
	}
}

// TestChaosCorruptArtifactNeverDisturbsLive proves the artifact integrity
// chain end to end: a bit-flipped .plcn is rejected by /v2/load (422), the
// live slot keeps serving the same version, no shadow slot appears, and
// /healthz never wavers. The intact copy of the same artifact then loads
// fine — the rejection was the corruption, not the candidate.
func TestChaosCorruptArtifactNeverDisturbsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 29, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 31, 1)
	srv, ts := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})
	before := liveVersion(srv)

	good := saveArtifact(t, a2)
	bad := good + ".corrupt"
	if err := copyFile(bad, good); err != nil {
		t.Fatal(err)
	}
	if err := chaos.CorruptFile(bad); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v2/load", loadRequest{Path: bad})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt artifact load got %d (%s), want 422", resp.StatusCode, body)
	}
	if got := liveVersion(srv); got != before {
		t.Fatalf("live version changed to %s after a corrupt load", got)
	}
	if _, ok := srv.slot(registry.Shadow); ok {
		t.Fatal("corrupt artifact landed in the shadow slot")
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d after corrupt load", code)
	}
	if resp, body := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:4])}); resp.StatusCode != http.StatusOK {
		t.Fatalf("scoring after corrupt load got %d (%s)", resp.StatusCode, body)
	}

	// The intact file is accepted, pinning the failure to the corruption.
	if resp, body := postJSON(t, ts.URL+"/v2/load", loadRequest{Path: good}); resp.StatusCode != http.StatusOK {
		t.Fatalf("intact artifact load got %d (%s)", resp.StatusCode, body)
	}
	if _, ok := srv.slot(registry.Shadow); !ok {
		t.Fatal("intact artifact did not land in the shadow slot")
	}
}
