package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRetryAfterSeconds pins the header rendering: whole seconds rounded
// up, floor of 1, and "1" for untyped queue-full errors.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{&QueueFullError{RetryAfter: 2500 * time.Millisecond}, "3"},
		{&QueueFullError{RetryAfter: 2 * time.Second}, "2"},
		{&QueueFullError{RetryAfter: 400 * time.Millisecond}, "1"},
		{&QueueFullError{}, "1"},
		{ErrQueueFull, "1"},
		{fmt.Errorf("wrap: %w", &QueueFullError{RetryAfter: 61 * time.Second}), "61"},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.err); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	if !errors.Is(&QueueFullError{RetryAfter: time.Second}, ErrQueueFull) {
		t.Error("QueueFullError does not unwrap to ErrQueueFull")
	}
}

func postScenario(t *testing.T, srv *httptest.Server, body string) (*http.Response, MissionView) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/missions", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /missions: %v", err)
	}
	defer resp.Body.Close()
	var v MissionView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, v
}

func TestHTTPSubmitStatusTelemetry(t *testing.T) {
	svc := New(Config{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, v := postScenario(t, srv, smallScenario(3101).String())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if v.ID == "" || v.State == "" {
		t.Fatalf("submit response missing id/state: %+v", v)
	}

	// Malformed scenario → 400, and so is every non-finite or absurd
	// number: rate=NaN used to be admitted and spin a 1ns incident ticker
	// until the stall watchdog quarantined the mission.
	valid := smallScenario(3102).String()
	for _, body := range []string{
		"scenario v999\nnope",
		strings.Replace(valid, "rate=10", "rate=NaN", 1),
		strings.Replace(valid, "rate=10", "rate=1e300", 1),
		strings.Replace(valid, "rate=10", "rate=-1", 1),
		strings.Replace(valid, "size=600", "size=+Inf", 1),
		strings.Replace(valid, "assets=90", "assets=0", 1),
		strings.Replace(valid, "horizon=20s", "horizon=-1s", 1),
	} {
		resp, _ = postScenario(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400 for body:\n%s", resp.StatusCode, body)
		}
	}
	// A body over maxScenarioBytes → 413.
	resp, _ = postScenario(t, srv, valid+strings.Repeat("#\n", maxScenarioBytes/2))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body status = %d, want 413", resp.StatusCode)
	}
	if got := len(svc.Missions()); got != 1 {
		t.Errorf("%d missions admitted, want only the valid one", got)
	}

	// Poll the mission to terminal state over HTTP.
	deadline := time.Now().Add(2 * time.Minute)
	var got MissionView
	for {
		r, err := http.Get(srv.URL + "/missions/" + v.ID)
		if err != nil {
			t.Fatalf("GET mission: %v", err)
		}
		err = json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if err != nil {
			t.Fatalf("decode mission: %v", err)
		}
		if got.State == StateCompleted.String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mission never completed over HTTP: %+v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got.Fingerprint == "" || got.JournalDigest == "" {
		t.Errorf("completed view missing fingerprint/journal digest: %+v", got)
	}

	// List contains it; telemetry counts it; health is ok.
	r, err := http.Get(srv.URL + "/missions")
	if err != nil {
		t.Fatalf("GET /missions: %v", err)
	}
	var list []MissionView
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	r.Body.Close()
	if len(list) == 0 {
		t.Error("mission list empty")
	}

	r, err = http.Get(srv.URL + "/telemetry")
	if err != nil {
		t.Fatalf("GET /telemetry: %v", err)
	}
	var tel Telemetry
	if err := json.NewDecoder(r.Body).Decode(&tel); err != nil {
		t.Fatalf("decode telemetry: %v", err)
	}
	r.Body.Close()
	if tel.Completed == 0 {
		t.Errorf("telemetry completed = 0 after a completed mission")
	}

	var health struct {
		Status  string `json:"status"`
		Queued  int64  `json:"queued"`
		Running int64  `json:"running"`
	}
	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	r.Body.Close()
	if health.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", health.Status)
	}

	// 404 for unknown missions.
	r, err = http.Get(srv.URL + "/missions/m-999999")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown mission status = %d, want 404", r.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestHTTPBackpressureAndDrainCodes(t *testing.T) {
	// Wedge the single worker with stall chaos (no stall watchdog, no
	// restarts) so admitted missions pile up behind it and the bounded
	// queue pushes back over HTTP.
	svc := New(Config{
		Workers:        1,
		QueueDepth:     1,
		StallAfter:     -1,
		MaxRestarts:    -1,
		RetryAfterHint: 3 * time.Second,
		Chaos:          ChaosConfig{CrashProb: 1, AtFrac: 0.3, Stall: true},
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Flood until a 429 appears.
	got429 := false
	for i := 0; i < 50 && !got429; i++ {
		resp, _ := postScenario(t, srv, smallScenario(int64(3200+i)).String())
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			got429 = true
			// The header is the configured admission hint, not a constant.
			if got := resp.Header.Get("Retry-After"); got != "3" {
				t.Errorf("429 Retry-After = %q, want %q", got, "3")
			}
		case http.StatusAccepted:
		default:
			t.Fatalf("unexpected submit status %d", resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatal("bounded queue never returned 429 over HTTP")
	}

	// Draining → 503. The short drain deadline also unwedges the stalled
	// missions by cancelling them.
	var drainDone sync.WaitGroup
	drainDone.Add(1)
	go func() {
		defer drainDone.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if svc.Draining() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := postScenario(t, srv, smallScenario(3301).String())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status = %d, want 503", resp.StatusCode)
	}

	// Health flips to 503/"draining" too, so balancers stop routing here.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz while draining: %v", err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatalf("decode draining healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", hr.StatusCode)
	}
	if health.Status != "draining" {
		t.Errorf("draining healthz body status = %q, want %q", health.Status, "draining")
	}
	drainDone.Wait()
}
