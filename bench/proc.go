package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/fftxd of the checkout this benchmark sits in
// into <checkout>/.bench_build/ and returns the binary's path. The build is
// never timed: every metric starts after it.
func buildServer() (string, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil || !bytes.Contains(mod, []byte("module repro/bench")) {
		return "", fmt.Errorf("run the benchmark from its own directory (go run -C bench .): %v", err)
	}
	out, err := filepath.Abs(filepath.Join("..", ".bench_build", "fftxd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", out, "repro/cmd/fftxd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/fftxd: %w", err)
	}
	return out, nil
}

// server is one fftxd process (worker or router) started by the harness.
type server struct {
	cmd *exec.Cmd
	url string
}

var serverURL = regexp.MustCompile(`at (http://[0-9.]+:[0-9]+)`)

// urlCatcher is the child's stdout: it hands the URL of the start-up banner
// to ready and drops everything else the server prints.
type urlCatcher struct {
	buf   []byte
	ready chan string
}

func (c *urlCatcher) Write(p []byte) (int, error) {
	if c.ready != nil {
		c.buf = append(c.buf, p...)
		if m := serverURL.FindSubmatch(c.buf); m != nil {
			c.ready <- string(m[1])
			c.ready, c.buf = nil, nil
		}
	}
	return len(p), nil
}

// startServer launches fftxd on an ephemeral port with the given extra
// flags and returns once /healthz answers 200.
func startServer(bin string, args ...string) (*server, error) {
	ready := make(chan string, 1)
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-level", "error"}, args...)...)
	cmd.Stdout = &urlCatcher{ready: ready}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd}
	select {
	case s.url = <-ready:
	case <-time.After(10 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("%s printed no listen address within 10 s", bin)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("%s/healthz not ready within 10 s (last error: %v)", s.url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM), waits for it to exit and kills it
// if it has not within 15 s. It returns only after the process has ended.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("fftxd pid %d ignored SIGTERM for 15 s and was killed", s.cmd.Process.Pid)
	}
}

func (s *server) addr() string { return strings.TrimPrefix(s.url, "http://") }

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux port Go runs on.
const clockTick = 100

// cpuSeconds is user+system CPU time the server process has used so far.
func (s *server) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis: state is field 3, utime 14, stime 15.
	rest := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(rest) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(rest[11], 64)
	stime, _ := strconv.ParseFloat(rest[12], 64)
	return (utime + stime) / clockTick
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.Fields(kb)[0], 64)
			return v / 1024
		}
	}
	return 0
}

// memCounters are the two allocation counters the alloc metrics are built on.
type memCounters struct {
	TotalAlloc uint64
	Mallocs    uint64
}

// memstats reads the server's runtime.MemStats through /debug/vars.
func (s *server) memstats() (memCounters, error) {
	var vars struct {
		Memstats memCounters `json:"memstats"`
	}
	body, err := httpGet(s.url + "/debug/vars")
	if err != nil {
		return memCounters{}, err
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return memCounters{}, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Memstats, nil
}

// scrape reads /metrics and returns, per metric name, the sum over its
// series (labels dropped; _bucket series skipped).
func (s *server) scrape() (map[string]float64, error) {
	body, err := httpGet(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			sums[name] += v
		}
	}
	return sums, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// selfCPUSeconds is user+system CPU time of this process.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
