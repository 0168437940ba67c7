package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

func wikiMap(shards int) shard.Map {
	return shard.Map{Shards: shards, KeyFields: harness.WikiApp().KeyFields}
}

func postInvoke(t *testing.T, url string, input value.V) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRoutingMatchesMap: every request lands on the backend the map's own
// hash names, and the response says which (X-Karousos-Shard).
func TestRoutingMatchesMap(t *testing.T) {
	m := wikiMap(4)
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	for _, r := range workload.Wiki(24, 5) {
		resp := postInvoke(t, ts.URL, r.Input)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
		got, err := strconv.Atoi(resp.Header.Get(ShardHeader))
		if err != nil {
			t.Fatalf("bad %s header: %v", ShardHeader, err)
		}
		if want := m.ShardOf(value.Normalize(r.Input)); got != want {
			t.Fatalf("routed to shard %d, map says %d for %v", got, want, r.Input)
		}
	}
	total := uint64(0)
	for _, c := range top.Gateway.Counters() {
		total += c.Routed
	}
	if total != 24 {
		t.Fatalf("routed total = %d, want 24", total)
	}
}

// TestBackpressurePassthrough: a backend's 429 reaches the client with its
// Retry-After hint intact, counted as shed for that shard; a down backend
// yields 503 with the gateway's own Retry-After hint, counted as an error.
func TestBackpressurePassthrough(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "admission window full", http.StatusTooManyRequests)
	}))
	defer shedding.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	// One-field map: "k" chooses the shard; find one key per backend.
	m := shard.Map{Shards: 2, KeyFields: []string{"k"}}
	var k0, k1 value.V
	for i := 0; i < 64 && (k0 == nil || k1 == nil); i++ {
		in := value.Normalize(value.Map("k", fmt.Sprintf("key-%d", i)))
		if m.ShardOf(in) == 0 && k0 == nil {
			k0 = in
		} else if m.ShardOf(in) == 1 && k1 == nil {
			k1 = in
		}
	}
	gw, err := New(Config{Map: m, Backends: []string{shedding.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	resp := postInvoke(t, ts.URL, k0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed backend: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the backend's hint", ra)
	}
	resp = postInvoke(t, ts.URL, k1)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead backend: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 has no Retry-After hint")
	}
	counters := gw.Counters()
	if counters[0].Shed != 1 || counters[1].Errors != 1 {
		t.Fatalf("counters = %+v, want shard0 shed=1, shard1 errors=1", counters)
	}
	if counters[1].Retries == 0 {
		t.Fatalf("counters = %+v, want refused dials retried before degrading", counters)
	}
}

// TestReadyzAggregates: the topology is ready only when every shard is.
func TestReadyzAggregates(t *testing.T) {
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all shards up: readyz %d", resp.StatusCode)
	}
	if err := top.Crash(1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("one shard down: readyz %d, want 503 (%s)", resp.StatusCode, blob)
	}
	if err := top.Restart(1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restart: readyz %d", resp.StatusCode)
	}
}

// TestSealFanoutAndStatus: /seal reaches every backend; /status reports
// per-shard collector state plus gateway counters.
func TestSealFanoutAndStatus(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(2)
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: root, Map: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	for _, r := range workload.Wiki(16, 9) {
		if resp := postInvoke(t, ts.URL, r.Input); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: status %d", resp.StatusCode)
	}
	var sealed struct {
		Shards []struct {
			Shard  int `json:"shard"`
			Status int `json:"status"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sealed); err != nil {
		t.Fatal(err)
	}
	if len(sealed.Shards) != 2 {
		t.Fatalf("seal fanned out to %d shards", len(sealed.Shards))
	}
	for _, s := range sealed.Shards {
		// 200 sealed a manifest, 204 that shard's active epoch was empty.
		if s.Status != http.StatusOK && s.Status != http.StatusNoContent {
			t.Fatalf("shard %d seal status %d", s.Shard, s.Status)
		}
	}

	// The map file is on disk for offline auditors.
	if _, err := shard.ReadMap(root); err != nil {
		t.Fatalf("topology root has no readable shard map: %v", err)
	}

	sresp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var status struct {
		Shards   int             `json:"shards"`
		Counters []ShardCounters `json:"counters"`
		Backends []struct {
			Shard  int `json:"shard"`
			Status int `json:"status"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Shards != 2 || len(status.Backends) != 2 || len(status.Counters) != 2 {
		t.Fatalf("status shape: %+v", status)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Map: shard.Map{Shards: 2}, Backends: []string{"http://x"}}); err == nil {
		t.Fatal("backend/shard count mismatch accepted")
	}
	if _, err := New(Config{Map: shard.Map{Shards: 0}}); err == nil {
		t.Fatal("invalid map accepted")
	}
	gw, err := New(Config{Map: shard.Map{Shards: 1}, Backends: []string{"http://x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.SetBackend(5, "http://y"); err == nil {
		t.Fatal("out-of-range SetBackend accepted")
	}
}
