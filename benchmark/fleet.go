package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// daemon is one cmd/optd child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	logs *tailLog
	// scanned is closed when the child's stderr reaches EOF, i.e. after it
	// exited; cmd.Wait must not run before that.
	scanned chan struct{}
}

// tailLog keeps the last lines of a child's stderr for failure reports.
type tailLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *tailLog) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) == 20 {
		l.lines = l.lines[1:]
	}
	l.lines = append(l.lines, s)
}

func (l *tailLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

const listenPrefix = "optd: listening on "

// startDaemon launches optd on an ephemeral loopback port, learns the port
// from the daemon's "listening on" line and waits until /healthz answers.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, logs: &tailLog{}, scanned: make(chan struct{})}
	addr := make(chan string, 1) // one send: the first listening line
	go func() {
		defer close(d.scanned)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if rest, ok := strings.CutPrefix(line, listenPrefix); ok && !sent {
				sent = true
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.scanned:
		d.stop()
		return nil, fmt.Errorf("optd exited before listening:\n%s", d.logs)
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("optd did not report its address within 15s:\n%s", d.logs)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	if err := d.waitHealthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// healthClient leaves no idle connection behind, so the timed section
// starts with only the load clients' connections open.
var healthClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := healthClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("optd %s not healthy: %w", d.url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop interrupts the daemon (optd drains on SIGINT exactly as on
// SIGTERM), kills it if it has not exited within the grace period, and
// reaps it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt) // fails only if the child already exited
	select {
	case <-d.scanned:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // fails only if the child already exited
		<-d.scanned
	}
	_ = d.cmd.Wait() // the exit status of a drained daemon carries no information
}

// fleet is the serving topology of the serve path: a front optd that
// admits local jobs and coordinates distributed ones over two agent optds.
type fleet struct {
	front  *daemon
	agents []*daemon
}

func (f *fleet) daemons() []*daemon { return append([]*daemon{f.front}, f.agents...) }

func (f *fleet) pids() []int {
	var pids []int
	for _, d := range f.daemons() {
		pids = append(pids, d.cmd.Process.Pid)
	}
	return pids
}

func (f *fleet) stop() {
	for _, d := range f.daemons() {
		if d != nil {
			d.stop()
		}
	}
}

// storeName is the name a store is registered under on every daemon.
func storeName(codec string) string { return "g-" + codec }

// startFleet launches two agents (-workers 1) and the front daemon
// (-workers 2 -queue 8 -agents …), all serving the env's stores.
func (e *env) startFleet(ctx context.Context) error {
	var storeArgs []string
	for i, codec := range e.w.codecs {
		storeArgs = append(storeArgs, "-store", storeName(codec)+"="+e.stores[i].Path())
	}
	common := append([]string{"-tempdir", e.dir, "-drain-timeout", "5s"}, storeArgs...)
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		a, err := startDaemon(ctx, e.p.optd, append([]string{"-workers", "1"}, common...)...)
		if err != nil {
			f.stop()
			return fmt.Errorf("agent %d: %w", i, err)
		}
		f.agents = append(f.agents, a)
		urls = append(urls, a.url)
	}
	front, err := startDaemon(ctx, e.p.optd,
		append([]string{"-workers", "2", "-queue", "8", "-agents", strings.Join(urls, ",")}, common...)...)
	if err != nil {
		f.stop()
		return fmt.Errorf("front: %w", err)
	}
	f.front = front
	e.fleet = f
	return nil
}
