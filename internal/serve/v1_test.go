package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/synth"
)

// TestV1AliasesAnswerParentBytes pins the /v1 surface after it became an
// alias table: every /v1 route answers, status and body, the bytes it
// answered when it had handlers of its own (the bodies below were captured
// from the commit before the alias table, with the three things that vary
// by run masked: version hashes as V1/V2, loaded_at as T, scores as S),
// and the mux serves it with the same handler as its /v2 twin. Rows run in
// order against one server; the reload rows come last because they move
// the live slot.
func TestV1AliasesAnswerParentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, _, recs := trainTestArtifact(t, "mlp", 41, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 43, 1)
	other, _ := trainArtifactOn(t, synth.UNSWNB15Config(), 1, 1)
	p2, pOther := saveArtifact(t, a2), saveArtifact(t, other)
	srv, ts := newTestServer(t, a1, Config{Replicas: 2, MaxBatch: 4})

	for v1, v2 := range v1Aliases {
		h1, pat1 := srv.mux.Handler(&http.Request{Method: http.MethodGet, URL: &url.URL{Path: v1}})
		h2, pat2 := srv.mux.Handler(&http.Request{Method: http.MethodGet, URL: &url.URL{Path: v2}})
		if pat1 != v1 || pat2 != v2 || reflect.ValueOf(h1).Pointer() != reflect.ValueOf(h2).Pointer() {
			t.Errorf("%s (pattern %q) and %s (pattern %q) are not served by one handler", v1, pat1, v2, pat2)
		}
	}

	js := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rj := recordsJSON(recs[:2])
	const (
		infoV1 = `{"model":"mlp","version":"V1","features":121,"classes":5,"class_names":["normal","dos","probe","r2l","u2r"],"replicas":2,"max_batch":4,"max_wait_ms":2,"loaded_at":"T"}`
		infoV2 = `{"model":"mlp","version":"V2","previous_version":"V1","features":121,"classes":5,"class_names":["normal","dos","probe","r2l","u2r"],"replicas":2,"max_batch":4,"max_wait_ms":2,"loaded_at":"T"}`
	)
	rows := []struct {
		name, method, path, body string
		status                   int
		want                     string
	}{
		{"model", "GET", "/v1/model", "", 200, infoV1},
		{"detect", "POST", "/v1/detect", js(rj[0]), 200,
			`{"model_version":"V1","verdict":{"is_attack":false,"class":0,"class_name":"normal","score":S}}`},
		{"detect-batch", "POST", "/v1/detect-batch", js(detectBatchRequest{Records: rj}), 200,
			`{"model_version":"V1","verdicts":[{"is_attack":false,"class":0,"class_name":"normal","score":S},{"is_attack":true,"class":1,"class_name":"dos","score":S}]}`},
		{"detect-batch ignores ?tag=", "POST", "/v1/detect-batch?tag=ghost", js(detectBatchRequest{Records: rj[:1]}), 200,
			`{"model_version":"V1","verdicts":[{"is_attack":false,"class":0,"class_name":"normal","score":S}]}`},
		{"detect wants POST", "GET", "/v1/detect", "", 405, `{"error":"POST required"}`},
		{"detect-batch empty", "POST", "/v1/detect-batch", `{"records":[]}`, 400, `{"error":"empty records","request_id":"golden"}`},
		{"reload wants POST", "GET", "/v1/reload", "", 405, `{"error":"POST required"}`},
		{"reload without a path", "POST", "/v1/reload", `{}`, 400, `{"error":"body must be {\"path\": \"artifact file\"}"}`},
		{"reload refuses a shape change", "POST", "/v1/reload", js(loadRequest{Path: pOther}), 409,
			`{"error":"reload: serve: artifact's feature layout differs from the live model's (same-shaped swaps only; load into \"shadow\" and promote for schema changes)"}`},
		{"reload ignores tags", "POST", "/v1/reload?tag=shadow", js(loadRequest{Path: p2, Tag: "shadow"}), 200, infoV2},
		{"model after reload", "GET", "/v1/model", "", 200, infoV2},
	}
	loadedAt := regexp.MustCompile(`"loaded_at":"[^"]*"`)
	score := regexp.MustCompile(`"score":[-+0-9.e]+`)
	for _, row := range rows {
		req, err := http.NewRequest(row.method, ts.URL+row.path, strings.NewReader(row.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "golden")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := string(bytes.TrimSpace(raw))
		got = strings.ReplaceAll(got, a1.Version(), "V1")
		got = strings.ReplaceAll(got, a2.Version(), "V2")
		got = loadedAt.ReplaceAllString(got, `"loaded_at":"T"`)
		got = score.ReplaceAllString(got, `"score":S`)
		if resp.StatusCode != row.status || got != row.want {
			t.Errorf("%s: %s %s answered %d %s\nwant %d %s", row.name, row.method, row.path, resp.StatusCode, got, row.status, row.want)
		}
	}
	if _, ok := srv.slot("shadow"); ok {
		t.Error("a /v1/reload carrying a shadow tag loaded the shadow slot")
	}
}
