package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"iobt/internal/service"
	"iobt/internal/verify"
)

// syncWriter is a goroutine-safe output sink for run().
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startServer boots run() on an ephemeral port and returns the base URL,
// a stop function, and the channel carrying run's final error.
func startServer(t *testing.T, extraArgs ...string) (string, context.CancelFunc, chan error, *syncWriter) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncWriter{}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], cancel, done, out
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func soakScenario(seed int64) string {
	sc := verify.Scenario{
		Seed:    seed,
		Assets:  90,
		Size:    600,
		Terrain: "open",
		Command: "intent",
		Rate:    10,
		Horizon: 20 * time.Second,
	}
	if seed%2 == 1 {
		sc.Command = "hierarchy"
		sc.Reliable = seed%4 == 1
	}
	return sc.String()
}

// submit POSTs a scenario, retrying on 429 backpressure like a real
// client, and returns the accepted mission view.
func submit(t *testing.T, base, scn string) service.MissionView {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Post(base+"/missions", "text/plain", strings.NewReader(scn))
		if err != nil {
			t.Fatalf("POST /missions: %v", err)
		}
		if resp.StatusCode == http.StatusAccepted {
			var v service.MissionView
			err := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode submit: %v", err)
			}
			return v
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("429 backpressure never cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// awaitTerminal polls a mission until it reaches a terminal state.
func awaitTerminal(t *testing.T, base, id string) service.MissionView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var got service.MissionView
		if code := getJSON(t, base+"/missions/"+id, &got); code != http.StatusOK {
			t.Fatalf("GET mission: status %d", code)
		}
		switch got.State {
		case "completed", "degraded", "failed", "quarantined":
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("mission never reached a terminal state: %+v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopServer cancels run and returns its output once it has drained.
func stopServer(t *testing.T, cancel context.CancelFunc, done chan error, out *syncWriter) string {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run exited with error: %v\n%s", err, out.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("server did not shut down")
	}
	return out.String()
}

// TestRunRejectsOutOfRangeFlags: a value the service would replace with
// its default, or could not run on, stops iobtd at startup with an
// error naming the flag, before anything listens.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a run that got past validation would return at once
	for flag, value := range map[string]string{
		"-workers":              "0",
		"-queue":                "0",
		"-max-restarts":         "-1",
		"-checkpoint":           "1ns",
		"-max-wall":             "-1s",
		"-max-checkpoint-bytes": "-1",
		"-chaos-prob":           "NaN",
		"-chaos-attempts":       "0",
		"-drain-timeout":        "0s",
	} {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", flag, value}, &syncWriter{})
		if err == nil || !strings.HasPrefix(err.Error(), flag+" ") {
			t.Errorf("%s %s: run = %v, want an error naming %s", flag, value, err, flag)
		}
	}
}

// TestZeroMeansNone: -max-restarts 0 quarantines a mission at its first
// crash, -checkpoint 0 leaves a scenario that sets no cadence
// uncheckpointed, and -stall-after 0 leaves a wedged mission to its wall
// budget. The service reads 0 in each field as its default (3 restarts,
// a 10 s cadence, a 2 s stall deadline), so iobtd must not pass 0
// through.
func TestZeroMeansNone(t *testing.T) {
	base, cancel, done, out := startServer(t, "-max-restarts", "0", "-chaos-prob", "1")
	if got := awaitTerminal(t, base, submit(t, base, soakScenario(4101)).ID); got.State != "quarantined" || got.Restarts != 0 {
		t.Errorf("-max-restarts 0: mission ended %s after %d restarts, want quarantined after 0", got.State, got.Restarts)
	}
	if report := stopServer(t, cancel, done, out); !strings.Contains(report, "quarantined=1 restarts=0") {
		t.Errorf("drain line does not report the quarantine:\n%s", report)
	}

	base, cancel, done, out = startServer(t, "-checkpoint", "0")
	if got := awaitTerminal(t, base, submit(t, base, soakScenario(4102)).ID); got.State != "completed" || got.Checkpoints != 0 {
		t.Errorf("-checkpoint 0: mission ended %s with %d checkpoints, want completed with none", got.State, got.Checkpoints)
	}
	stopServer(t, cancel, done, out)

	base, cancel, done, out = startServer(t, "-stall-after", "0", "-max-wall", "3s", "-chaos-prob", "1", "-chaos-stall")
	if got := awaitTerminal(t, base, submit(t, base, soakScenario(4103)).ID); got.Stalls != 0 || got.Restarts != 0 {
		t.Errorf("-stall-after 0: mission ended %s after %d stalls and %d restarts, want the wall budget to end it", got.State, got.Stalls, got.Restarts)
	}
	stopServer(t, cancel, done, out)
}

func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}, &syncWriter{}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}, &syncWriter{}); err == nil ||
		!strings.Contains(err.Error(), "listen") {
		t.Errorf("bad addr error = %v, want listen failure", err)
	}
}

// TestServerLifecycle boots iobtd, runs one mission over HTTP end to
// end, and shuts down cleanly: submit → 202, poll to completed,
// telemetry counts it, SIGTERM-equivalent cancel drains and exits nil.
func TestServerLifecycle(t *testing.T) {
	base, cancel, done, out := startServer(t, "-workers", "2")
	defer cancel()

	if got := awaitTerminal(t, base, submit(t, base, soakScenario(4001)).ID); got.State != "completed" {
		t.Fatalf("mission ended %s, want completed: %+v", got.State, got)
	}

	var tel service.Telemetry
	if code := getJSON(t, base+"/telemetry", &tel); code != http.StatusOK || tel.Completed != 1 {
		t.Fatalf("telemetry status %d completed %d, want 200/1", code, tel.Completed)
	}

	if report := stopServer(t, cancel, done, out); !strings.Contains(report, "drained: completed=1") {
		t.Errorf("shutdown report missing drain line:\n%s", report)
	}
}

// TestSlowBodyDropped: a client that sends its headers and then dribbles
// the body is cut off at the read timeout instead of holding a
// connection and a handler for as long as it likes.
func TestSlowBodyDropped(t *testing.T) {
	base, cancel, done, out := startServer(t)
	defer cancel()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /missions HTTP/1.1\r\nHost: iobtd\r\nContent-Length: %d\r\n\r\n", 1<<20); err != nil {
		t.Fatalf("write headers: %v", err)
	}
	dropped := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, conn)
		close(dropped)
	}()
	start := time.Now()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-dropped:
		case <-tick.C:
			if time.Since(start) > readTimeout+5*time.Second {
				t.Fatalf("server still reading a dribbled body after %s", time.Since(start).Round(time.Second))
			}
			_, _ = conn.Write([]byte("#")) // fails once the server hangs up
			continue
		}
		break
	}
	var tel service.Telemetry
	if code := getJSON(t, base+"/telemetry", &tel); code != http.StatusOK || tel.Submitted != 0 {
		t.Errorf("telemetry status %d submitted %d, want 200/0", code, tel.Submitted)
	}
	stopServer(t, cancel, done, out)
}

// TestSoak is the CI soak job: boot iobtd with the chaos injector
// crashing workers mid-mission, flood it with concurrent submissions
// through a deliberately small admission queue, and require every
// mission to reach a terminal state with zero invariant violations,
// every crash recovered exactly, and a clean drain.
func TestSoak(t *testing.T) {
	const (
		missions = 24
		clients  = 8
	)
	base, cancel, done, out := startServer(t,
		"-workers", "4",
		"-queue", "4",
		"-data", t.TempDir(),
		"-stall-after", "10s",
		"-chaos-prob", "0.6",
		"-checkpoint", "5s",
	)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := c; i < missions; i += clients {
				submit(t, base, soakScenario(int64(5000+i)))
			}
		}(c)
	}
	wg.Wait()

	// Poll until every mission is terminal.
	terminal := map[string]bool{"completed": true, "degraded": true, "failed": true, "quarantined": true}
	deadline := time.Now().Add(4 * time.Minute)
	var views []service.MissionView
	for {
		views = nil
		if code := getJSON(t, base+"/missions", &views); code != http.StatusOK {
			t.Fatalf("GET /missions: status %d", code)
		}
		doneCount := 0
		for _, v := range views {
			if terminal[v.State] {
				doneCount++
			}
		}
		if len(views) == missions && doneCount == missions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("soak never settled: %d/%d missions, %d terminal", len(views), missions, doneCount)
		}
		time.Sleep(20 * time.Millisecond)
	}

	crashes := 0
	for _, v := range views {
		if v.State != "completed" {
			t.Errorf("%s: state %s (%s), want completed", v.ID, v.State, v.Reason)
		}
		if len(v.Violations) != 0 {
			t.Errorf("%s: invariant violations under soak: %v", v.ID, v.Violations)
		}
		crashes += v.Crashes
	}
	if crashes == 0 {
		t.Error("chaos injector never crashed a worker: the soak exercised nothing")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("soak shutdown error: %v\n%s", err, out.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("soak server did not shut down")
	}
	if !strings.Contains(out.String(), fmt.Sprintf("drained: completed=%d", missions)) {
		t.Errorf("drain line does not account for all missions:\n%s", out.String())
	}
}
