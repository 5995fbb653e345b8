package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is what the kernel reports for an exited child.
type usage struct {
	CPU    float64 // user + system seconds
	MaxRSS float64 // peak resident set, MB
}

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{CPU: cpu.Seconds(), MaxRSS: float64(ru.Maxrss) * 1024 / 1e6} // Linux reports KiB
}

// cliRun is one routecheck invocation, timed from exec to exit.
type cliRun struct {
	Wall   time.Duration
	Stdout string
	Usage  usage
}

// runCLI execs bin with args and waits for it; a non-zero exit is an
// error carrying the tail of its standard error.
func runCLI(bin string, args ...string) (cliRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := cliRun{Wall: time.Since(start), Stdout: stdout.String()}
	if cmd.ProcessState != nil {
		r.Usage = usageOf(cmd.ProcessState)
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, tail(stderr.String()))
	}
	return r, nil
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}

// announce is the stderr sink of a daemon: it keeps the output for
// error messages and closes ready once the listener line is complete.
type announce struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	url   string
	ready chan struct{}
}

const listenPrefix = "routed listening on "

func (a *announce) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf.Write(p)
	if a.url != "" {
		return len(p), nil
	}
	lines := strings.Split(a.buf.String(), "\n")
	for _, l := range lines[:len(lines)-1] { // the last piece is unterminated
		if u, ok := strings.CutPrefix(l, listenPrefix); ok {
			a.url = strings.TrimSpace(u)
			close(a.ready)
			break
		}
	}
	return len(p), nil
}

func (a *announce) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buf.String()
}

// daemon is a running routed child.
type daemon struct {
	cmd    *exec.Cmd
	stderr *announce
	exited chan error // receives cmd.Wait's result once
	URL    string
	Setup  time.Duration // exec until the listener is announced
}

// startDaemon execs routed on an empty data dir and waits until it
// announces its listener.
func startDaemon(bin, dataDir string, jobWorkers int) (*daemon, error) {
	a := &announce{ready: make(chan struct{})}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-datadir", dataDir,
		"-jobworkers", strconv.Itoa(jobWorkers))
	cmd.Stderr = a
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start routed: %w", err)
	}
	d := &daemon{cmd: cmd, stderr: a, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case <-a.ready:
		d.Setup = time.Since(start)
		a.mu.Lock()
		d.URL = a.url
		a.mu.Unlock()
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("routed exited before listening: %v: %s", err, tail(a.String()))
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		<-d.exited
		return nil, fmt.Errorf("routed never announced its listener: %s", tail(a.String()))
	}
}

// stop drains the daemon with SIGTERM, as an operator would, and
// returns its resource usage. A daemon that outlives its drain
// deadline is killed and reported as an error.
func (d *daemon) stop() (usage, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		err = errors.New("routed did not drain within 60s")
	}
	u := usageOf(d.cmd.ProcessState)
	// routed announces its listener before it installs its SIGTERM
	// handler, so a daemon stopped right after set-up may die of the
	// signal instead of draining; with no jobs, both end the same.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if err != nil {
		return u, fmt.Errorf("routed stop: %v: %s", err, tail(d.stderr.String()))
	}
	return u, nil
}

// jobDoc is the part of the job document the benchmark reads.
type jobDoc struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Cached      bool   `json:"cached"`
	Certificate string `json:"certificate"`
	Error       string `json:"error"`
	Resources   *struct {
		WallSec      float64 `json:"wall_sec"`
		QueueWaitSec float64 `json:"queue_wait_sec"`
		CPUSec       float64 `json:"cpu_sec"`
		AllocBytes   int64   `json:"alloc_bytes"`
	} `json:"resources"`
}

// requestTimeout bounds one HTTP exchange, SSE streams included; the
// slowest certificate any workload asks for takes seconds.
const requestTimeout = 120 * time.Second

// client is the benchmark's single HTTP client.
var client = &http.Client{}

// submit POSTs a job spec and returns the response status, the job
// document, and the POST→response latency.
func submit(url string, s spec) (int, jobDoc, time.Duration, error) {
	body, _ := json.Marshal(struct {
		Alg    string `json:"alg"`
		K      int    `json:"k"`
		Orbits bool   `json:"orbits"`
	}{s.Alg, s.K, true})
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, jobDoc{}, 0, err
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, jobDoc{}, 0, fmt.Errorf("POST /jobs: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return resp.StatusCode, jobDoc{}, lat, fmt.Errorf("POST /jobs: %w", err)
	}
	var doc jobDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return resp.StatusCode, doc, lat, fmt.Errorf("POST /jobs: status %d: %q", resp.StatusCode, tail(string(raw)))
	}
	return resp.StatusCode, doc, lat, nil
}

// awaitFinal follows the job's SSE stream to its terminal event.
func awaitFinal(url, id string) (jobDoc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/jobs/"+id+"/events", nil)
	if err != nil {
		return jobDoc{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return jobDoc{}, fmt.Errorf("GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobDoc{}, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	return finalEvent(resp.Body)
}

// finalEvent reads SSE frames until the first `final` event and
// decodes its data line. A stream that ends first is an error.
func finalEvent(r io.Reader) (jobDoc, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "final" {
				var doc jobDoc
				if err := json.Unmarshal([]byte(data), &doc); err != nil {
					return doc, fmt.Errorf("final event: %w", err)
				}
				return doc, nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"): // comment frame (keepalive)
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data != "" {
				data += "\n" // a multi-line payload joins with newlines
			}
			data += strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
		}
	}
	if err := sc.Err(); err != nil {
		return jobDoc{}, fmt.Errorf("event stream: %w", err)
	}
	return jobDoc{}, errors.New("event stream ended without a final event")
}

// scrape reads counters from the daemon's /metrics page.
func scrape(url string, names ...string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return metricValues(string(raw), names...)
}

// metricValues picks unlabelled samples out of a Prometheus text page.
func metricValues(page string, names ...string) (map[string]float64, error) {
	vals := map[string]float64{}
	for _, l := range strings.Split(page, "\n") {
		name, v, ok := strings.Cut(l, " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %v", name, err)
				}
				vals[name] = f
			}
		}
	}
	for _, want := range names {
		if _, ok := vals[want]; !ok {
			return nil, fmt.Errorf("metric %s missing from /metrics", want)
		}
	}
	return vals, nil
}
