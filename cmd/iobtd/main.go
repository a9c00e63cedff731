// Command iobtd is the mission service: a long-lived HTTP server that
// accepts versioned .scn scenarios, runs each mission in a supervised
// worker pool, and exposes status and telemetry endpoints.
//
// Where iobtsim runs one mission and exits, iobtd multiplexes many
// concurrent missions and keeps its promises under failure: panicking
// workers are contained, stalled missions are restarted from their
// latest checkpoint, restart storms are quarantined, the admission
// queue is bounded (429 on overflow), and shutdown drains every
// admitted mission before exiting.
//
// Usage:
//
//	iobtd -addr 127.0.0.1:8080 -workers 8 -data /var/lib/iobtd
//	curl -s --data-binary @mission.scn localhost:8080/missions
//	curl -s localhost:8080/missions/m-000001
//	curl -s localhost:8080/telemetry
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/service"
)

// HTTP timeouts. Every route is one small request and one response, so
// none of them cuts a legitimate exchange: they drop a client that
// dribbles its body, never reads its response, or parks an idle
// keep-alive connection.
const (
	readTimeout  = 10 * time.Second // headers and body
	writeTimeout = 30 * time.Second
	idleTimeout  = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iobtd:", err)
		os.Exit(1)
	}
}

// run boots the service and serves until ctx is cancelled or the
// listener fails, then shuts the HTTP front end and drains the mission
// pool. It binds the listener itself (so -addr :0 is testable) and
// reports the bound address on out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iobtd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers   = fs.Int("workers", 4, "concurrent mission workers")
		queue     = fs.Int("queue", 64, "bounded admission queue depth (overflow is rejected with 429)")
		data      = fs.String("data", "", "directory for durable checkpoints and reproducer snapshots (empty: in-memory only)")
		restarts  = fs.Int("max-restarts", 3, "supervised restarts per mission before quarantine (0: none)")
		stall     = fs.Duration("stall-after", 2*time.Second, "watchdog stall deadline: restart a mission with no event progress for this long (0 or negative disables)")
		maxWall   = fs.Duration("max-wall", 0, "per-mission wall-clock budget (0: unlimited)")
		maxEvents = fs.Uint64("max-events", 0, "per-mission executed-event budget (0: unlimited)")
		maxCk     = fs.Int("max-checkpoint-bytes", 0, "per-mission encoded checkpoint size budget (0: unlimited)")
		ckEvery   = fs.Duration("checkpoint", 10*time.Second, "default checkpoint cadence for scenarios that set none (0: none)")
		chaos     = fs.Float64("chaos-prob", 0, "probability a mission suffers an injected worker crash (soak/test)")
		chaosN    = fs.Int("chaos-attempts", 1, "with -chaos-prob, how many attempts of a chaotic mission crash")
		stallMode = fs.Bool("chaos-stall", false, "with -chaos-prob, wedge the worker instead of panicking it")
		drainFor  = fs.Duration("drain-timeout", 2*time.Minute, "graceful-drain budget on shutdown; in-flight missions are cancelled at the deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// service.Config reads 0 as "use the default", so a flag value the
	// service would silently replace is refused here, naming the flag.
	switch {
	case *workers < 1:
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	case *queue < 1:
		return fmt.Errorf("-queue must be at least 1, got %d", *queue)
	case *restarts < 0:
		return fmt.Errorf("-max-restarts must be 0 (none) or positive, got %d", *restarts)
	case *ckEvery < 0 || *ckEvery > 0 && *ckEvery < checkpoint.MinEvery:
		return fmt.Errorf("-checkpoint must be 0 (none) or at least %s, got %s", checkpoint.MinEvery, *ckEvery)
	case *maxWall < 0:
		return fmt.Errorf("-max-wall must be 0 (unlimited) or positive, got %s", *maxWall)
	case *maxCk < 0:
		return fmt.Errorf("-max-checkpoint-bytes must be 0 (unlimited) or positive, got %d", *maxCk)
	case !(*chaos >= 0 && *chaos <= 1):
		return fmt.Errorf("-chaos-prob must be in [0, 1], got %g", *chaos)
	case *chaosN < 1:
		return fmt.Errorf("-chaos-attempts must be at least 1, got %d", *chaosN)
	case *drainFor <= 0:
		return fmt.Errorf("-drain-timeout must be positive, got %s", *drainFor)
	}

	svc := service.New(service.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		DataDir:            *data,
		MaxRestarts:        none(*restarts),
		StallAfter:         none(*stall),
		MaxWall:            *maxWall,
		MaxEvents:          *maxEvents,
		MaxCheckpointBytes: *maxCk,
		CheckpointEvery:    none(*ckEvery),
		Chaos: service.ChaosConfig{
			CrashProb:     *chaos,
			CrashAttempts: *chaosN,
			Stall:         *stallMode,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = svc.Close()
		return fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{
		Handler:      svc.Handler(),
		ReadTimeout:  readTimeout,
		WriteTimeout: writeTimeout,
		IdleTimeout:  idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "iobtd: listening on %s (workers=%d queue=%d)\n", ln.Addr(), *workers, *queue)

	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = svc.Close()
			return fmt.Errorf("serve: %w", err)
		}
	}

	// Graceful shutdown: drain the pool while the HTTP front end keeps
	// serving. Drain stops admission immediately (submissions get 503,
	// /healthz reports "draining" so load balancers rotate the instance
	// out, status and telemetry stay pollable), and every admitted
	// mission runs to a terminal state. Only then does the listener
	// close.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainFor)
	defer drainCancel()
	drainErr := svc.Drain(drainCtx)
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(out, "iobtd: http shutdown: %v\n", err)
	}

	tel := svc.Telemetry()
	fmt.Fprintf(out, "iobtd: drained: completed=%d degraded=%d failed=%d quarantined=%d restarts=%d\n",
		tel.Completed, tel.Degraded, tel.Failed, tel.Quarantined, tel.Restarts)
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}

// none maps a flag's 0, which means none, to the negative value that
// means none to service.Config, whose 0 means its default.
func none[T int | time.Duration](v T) T {
	if v == 0 {
		return -1
	}
	return v
}
