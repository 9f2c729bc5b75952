package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// daemon is one cmd/sweepd child process serving a store on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
	once sync.Once
}

// startDaemon launches sweepd over store and waits for its first
// /healthz 200. The returned duration runs from process start to that
// response: the service's set-up time, including the store open.
func startDaemon(bin, store string, jobs int) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-store", store, "-addr", "127.0.0.1:0", "-jobs", strconv.Itoa(jobs))
	// The daemon must not outlive the harness, even if the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sweepd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		const marker = "serving on "
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len(marker):]):
				default:
				}
			} else if !strings.Contains(line, "shutting down") {
				fmt.Fprintln(os.Stderr, "perfbench: sweepd:", line)
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.done:
		return nil, 0, fmt.Errorf("sweepd exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("sweepd did not start within 60s")
	}
	client := newClient()
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("sweepd not healthy within 60s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the daemon down with SIGTERM (so it drains and rewrites its
// index sidecar) and waits for it to exit, killing it after 20s.
// Stopping twice is a no-op.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of a process (pid 0 = this one) in MB.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// newClient is an HTTP client held to one connection, so the number of
// connections a workload opens is the number of clients it makes.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// httpStats is the client-side HTTP layer: time to first byte, request
// round trips by kind, and connection reuse, gathered with
// net/http/httptrace when tracing is on.
type httpStats struct {
	mu                sync.Mutex
	getTTFB           Samples // ms, GET /records/{hash}
	submit            Samples // ms, POST /grids round trip
	jobRecords        Samples // ms, GET /jobs/{id}/records to the last byte
	firstEvent        Samples // ms, POST /grids sent → first /events line read
	conns, connsReuse int
}

// traced wraps ctx so the request reports its connection reuse and time
// to first byte into h; a nil h leaves ctx untouched (untraced request).
func (h *httpStats) traced(ctx context.Context, ttfb *Samples) context.Context {
	if h == nil {
		return ctx
	}
	var start time.Time
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) { start = time.Now() },
		GotConn: func(info httptrace.GotConnInfo) {
			h.mu.Lock()
			h.conns++
			if info.Reused {
				h.connsReuse++
			}
			h.mu.Unlock()
		},
		GotFirstResponseByte: func() {
			if ttfb != nil {
				h.mu.Lock()
				ttfb.AddDuration(time.Since(start))
				h.mu.Unlock()
			}
		},
	})
}

func (h *httpStats) add(s *Samples, d time.Duration) {
	if h != nil {
		h.mu.Lock()
		s.AddDuration(d)
		h.mu.Unlock()
	}
}

// api is one connection's view of a daemon.
type api struct {
	c    *http.Client
	base string
	h    *httpStats // nil = untraced
}

func (a api) do(method, path string, body []byte, ttfb *Samples) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(a.h.traced(context.Background(), ttfb), method, a.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// getRecord is GET /records/{hash}, the point read, verified: the body
// must decode as a record whose content hash is the one requested.
func (a api) getRecord(hash string) error {
	var ttfb *Samples
	if a.h != nil {
		ttfb = &a.h.getTTFB
	}
	b, err := a.do("GET", "/records/"+hash, nil, ttfb)
	if err != nil {
		return err
	}
	rec, err := sweep.DecodeRecord(b)
	if err != nil {
		return err
	}
	if rec.Hash != hash {
		return fmt.Errorf("GET /records/%s served record %s", hash, rec.Hash)
	}
	return nil
}

// submit POSTs a grid and returns the job id.
func (a api) submit(grid []byte) (string, error) {
	t := time.Now()
	b, err := a.do("POST", "/grids", grid, nil)
	if err != nil {
		return "", err
	}
	if a.h != nil {
		a.h.add(&a.h.submit, time.Since(t))
	}
	var resp struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(b, &resp); err != nil || resp.Job == "" {
		return "", fmt.Errorf("POST /grids: bad reply %q", b)
	}
	return resp.Job, nil
}

// follow reads /jobs/{id}/events to the end and returns the number of
// events and how many were cache hits. sent is when the job's POST was
// sent; the first event's arrival is measured from it.
func (a api) follow(id string, sent time.Time) (events, cached int, err error) {
	req, err := http.NewRequestWithContext(a.h.traced(context.Background(), nil), "GET", a.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /jobs/%s/events: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if events == 0 && a.h != nil {
			a.h.add(&a.h.firstEvent, time.Since(sent))
		}
		var ev struct {
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return events, cached, fmt.Errorf("job %s: bad event %q", id, sc.Bytes())
		}
		if ev.Error != "" {
			return events, cached, fmt.Errorf("job %s: scenario failed: %s", id, ev.Error)
		}
		events++
		if ev.Cached {
			cached++
		}
	}
	return events, cached, sc.Err()
}

// jobRecords fetches a finished job's records, each line decoded and
// hash-verified by sweep.DecodeRecord.
func (a api) jobRecords(id string) ([]sweep.Record, [][]byte, error) {
	t := time.Now()
	b, err := a.do("GET", "/jobs/"+id+"/records", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if a.h != nil {
		a.h.add(&a.h.jobRecords, time.Since(t))
	}
	var recs []sweep.Record
	var lines [][]byte
	for _, line := range bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n")) {
		rec, err := sweep.DecodeRecord(line)
		if err != nil {
			return nil, nil, fmt.Errorf("job %s: %w", id, err)
		}
		recs = append(recs, rec)
		lines = append(lines, line)
	}
	return recs, lines, nil
}

// metrics scrapes /metrics into the same name → value map flatten
// makes of an in-process snapshot.
func (a api) metrics() (map[string]float64, error) {
	b, err := a.do("GET", "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	var ms []obs.Metric
	if err := json.Unmarshal(b, &ms); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return flatten(ms), nil
}
