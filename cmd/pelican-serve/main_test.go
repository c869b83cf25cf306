package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
)

func TestServeRequiresModel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Fatalf("missing -model not rejected: %v", err)
	}
}

func TestServeRejectsMissingArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "/nonexistent/model.plcn"}, &out); err == nil {
		t.Fatal("nonexistent artifact accepted")
	}
}

func TestLoadgenRejectsUnknownDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-loadgen", "-dataset", "cicids"}, &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadgenRejectsNoRecords(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-loadgen", "-records", "0"}, &out); err == nil || !strings.Contains(err.Error(), "-records") {
		t.Fatalf("-records 0 not rejected: %v", err)
	}
}

func TestLoadgenRejectsUnreachableTarget(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-loadgen", "-target", "http://127.0.0.1:1", "-duration", "100ms"}, &out)
	if err == nil {
		t.Fatal("unreachable target accepted")
	}
}

// TestLoadgenAgainstLiveServer drives the loadgen client against an
// in-process scoring server and checks the report shape: non-zero
// throughput, latency percentiles, and the -min-attacks assertion.
func TestLoadgenAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(600, 1)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(1))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(2)), features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	net.Fit(x.Reshape(x.Dim(0), 1, x.Dim(1)), y, nn.FitConfig{Epochs: 3, BatchSize: 128, Shuffle: true, RNG: rng})
	a, err := serve.NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(a, serve.Config{Replicas: 2, MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	var out bytes.Buffer
	err = run([]string{
		"-loadgen", "-target", ts.URL, "-dataset", "nsl-kdd",
		"-duration", "500ms", "-concurrency", "4", "-batch", "8",
		"-records", "128", "-min-attacks", "1",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"throughput:", "records/s", "latency: p50=", "attacks="} {
		if !strings.Contains(s, want) {
			t.Fatalf("loadgen report missing %q:\n%s", want, s)
		}
	}
}

// TestLoadgenCountsHTTPShedAsShed pins the loadgen's one shed rule on the
// HTTP plane: a server that answers 429 to every scoring request is
// shedding, not failing, so the run reports every request as shed and
// none as an error.
func TestLoadgenCountsHTTPShedAsShed(t *testing.T) {
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v2/models/live":
			json.NewEncoder(w).Encode(serve.ModelInfo{Model: "stub", Version: "v", Tag: "live", Features: gen.Schema().EncodedWidth()})
		case "/v2/detect-batch":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var out bytes.Buffer
	err = run([]string{
		"-loadgen", "-target", ts.URL, "-dataset", "nsl-kdd",
		"-duration", "200ms", "-concurrency", "2", "-batch", "4", "-records", "16",
	}, &out)
	m := regexp.MustCompile(`^no successful requests \((\d+) shed, (\d+) errors\)$`).FindStringSubmatch(fmt.Sprint(err))
	if m == nil || m[1] == "0" || m[2] != "0" {
		t.Fatalf("loadgen against an all-429 server: %v, want every request shed and none an error\n%s", err, out.String())
	}
}

// TestStalledRequestIsCutOff pins the bounded request read: a peer that
// stops mid-headers, or sends its headers and then stalls mid-body, is
// hung up on within the read bounds derived from the request timeout,
// instead of pinning a goroutine for as long as it cares to stay.
func TestStalledRequestIsCutOff(t *testing.T) {
	bodyErr := make(chan error, 1)
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		bodyErr <- err
	}), 50*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	for name, half := range map[string]string{
		"mid-headers": "POST /v2/detect-batch HTTP/1.1\r\nHost: pelican\r\n",
		"mid-body":    "POST /v2/detect-batch HTTP/1.1\r\nHost: pelican\r\nContent-Length: 100\r\n\r\n{\"records\":",
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(half)); err != nil {
			t.Fatal(err)
		}
		// The server must end the conversation; this deadline is only so a
		// server that does not fails the test instead of hanging it.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		start := time.Now()
		_, err = io.Copy(io.Discard, conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: the server never hung up on half a request (%v after %s)", name, err, time.Since(start))
		}
		if name == "mid-body" {
			if err := <-bodyErr; err == nil {
				t.Fatalf("%s: the handler read a complete body out of half a request", name)
			}
		}
	}
}
