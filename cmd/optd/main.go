// Command optd is the long-lived triangulation daemon: it accepts jobs
// over HTTP, runs them through the execution engine under a bounded
// worker pool with a bounded admission queue (backpressure: 429 +
// Retry-After when full) and a global memory-page budget, streams
// per-job progress as server-sent events, caches results by spec digest,
// and drains gracefully on SIGTERM — stop admitting, let in-flight jobs
// finish until the drain deadline, then cancel them and report their
// partial results exactly as the engine does under cancellation.
//
// Usage:
//
//	optd -addr :7171 -workers 4 -queue 16 -pages 4096 \
//	     -store web=web.optstore -store social=social.optstore
//
//	# submit, watch, cancel:
//	curl -d '{"store":"web","algorithm":"OPT","threads":4}' localhost:7171/jobs
//	curl -N localhost:7171/jobs/j1/events
//	curl -X DELETE localhost:7171/jobs/j1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/optlab/opt/cmd/internal/cli"
	"github.com/optlab/opt/internal/server"

	// Algorithm packages register their engine.Runner in init, making
	// every registry name submittable.
	_ "github.com/optlab/opt/internal/baselines/cc"
	_ "github.com/optlab/opt/internal/baselines/gchi"
	_ "github.com/optlab/opt/internal/baselines/mgt"
	_ "github.com/optlab/opt/internal/core"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7171", "listen address")
		workers      = flag.Int("workers", 2, "worker pool size (max concurrent jobs)")
		queue        = flag.Int("queue", 8, "admission queue depth (jobs waiting beyond the pool get 429)")
		pages        = flag.Int("pages", 0, "global memory-page budget shared by running jobs (0 = unlimited)")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job timeout when the spec carries none (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on SIGTERM before they are cancelled")
		tempDir      = flag.String("tempdir", "", "scratch directory for jobs (default: system temp)")
		coordinator  = flag.Bool("coordinator", false, "announce the coordinator role (requires -agents); any optd accepts /dist/jobs, this flag just validates the wiring at startup")
		agents       = flag.String("agents", "", "comma-separated agent optd base URLs used by distributed jobs whose spec names none")
	)
	var stores storeFlags
	flag.Var(&stores, "store", "register a store as name=path (repeatable)")
	flag.Parse()

	var agentURLs []string
	for _, a := range strings.Split(*agents, ",") {
		if a = strings.TrimSpace(a); a != "" {
			agentURLs = append(agentURLs, a)
		}
	}
	if *coordinator && len(agentURLs) == 0 {
		fail(errors.New("-coordinator requires -agents"))
	}

	mgr := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		TotalPages:     *pages,
		DefaultTimeout: *jobTimeout,
		TempDir:        *tempDir,
		DefaultAgents:  agentURLs,
	})
	for _, s := range stores {
		if err := mgr.RegisterStore(s.name, s.path); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "optd: registered store %q (%s)\n", s.name, s.path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: server.NewHandler(mgr)}
	fmt.Fprintf(os.Stderr, "optd: listening on %s (workers=%d queue=%d pages=%d)\n",
		ln.Addr(), *workers, *queue, *pages)
	if len(agentURLs) > 0 {
		fmt.Fprintf(os.Stderr, "optd: coordinator for agents %s\n", strings.Join(agentURLs, ", "))
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := cli.SignalContext(context.Background(), 0)
	defer stop()
	select {
	case err := <-serveErr:
		fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain: stop admitting, give in-flight jobs the grace period, then
	// cancel and collect their partial results. The HTTP server shuts down
	// concurrently so status queries and SSE streams keep working while
	// jobs wind down.
	fmt.Fprintf(os.Stderr, "optd: draining (deadline %v)\n", *drainTimeout)
	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()
	forced, abandoned := mgr.Drain(*drainTimeout)
	if err := <-shutdownDone; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "optd: http shutdown: %v\n", err)
	}
	if len(abandoned) > 0 {
		fmt.Fprintf(os.Stderr, "optd: jobs %s forced off: their runners ignored cancellation\n", strings.Join(abandoned, ", "))
	}
	if forced {
		fmt.Fprintln(os.Stderr, "optd: drain deadline reached; in-flight jobs cancelled, partial results kept")
	} else {
		fmt.Fprintln(os.Stderr, "optd: drained cleanly")
	}
}

// storeFlag is one -store name=path registration.
type storeFlag struct {
	name, path string
}

type storeFlags []storeFlag

// String implements flag.Value.
func (s *storeFlags) String() string {
	parts := make([]string, len(*s))
	for i, f := range *s {
		parts[i] = f.name + "=" + f.path
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value, parsing name=path.
func (s *storeFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*s = append(*s, storeFlag{name: name, path: path})
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "optd:", err)
	os.Exit(1)
}
