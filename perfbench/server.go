package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running htdserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startServer spawns htdserve on a free loopback port with its default
// configuration: in-memory store, default GOMAXPROCS, default budget.
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	// The kernel kills the server if the driver dies without stopping
	// it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		// One keep-alive connection: the closed loop sends the next
		// request only after the previous answer was read in full.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz until the server answers.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, err := s.do("GET", "/healthz", "")
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-s.exited:
			return errors.New("htdserve exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("htdserve not ready after %v: %v", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// do sends one request and reads the whole answer.
func (s *server) do(method, path, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited after ten seconds. It returns once the
// process is gone.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Submitted      int64
	SolverRuns     int64
	PositiveHits   int64
	NegativeHits   int64
	StoreEntries   int64
	StoreEvictions int64
	MemoEntries    int64
	TokenBudget    int64
	Solver         struct {
		Candidates    int64
		ParentCands   int64
		MaxDepth      int64
		TokensGrabbed int64
		MemoHits      int64
	}
	Query struct {
		Queries         int64
		PlanCacheHits   int64
		ExecIndexBuilds int64
	} `json:"query"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	status, body, err := s.do("GET", "/stats", "")
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every mainstream Linux architecture.
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU is the aggregate line of /proc/stat: total and stolen ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var c hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already included in user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c, nil
}

// stealFrac is the share of host CPU time stolen between a and b.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sendAll runs a list against the server serially, one request after
// the previous answer, and keeps every answer for the checks. ctx
// bounds the whole list.
func (s *server) sendAll(ctx context.Context, ops []Op) ([]answer, error) {
	reqs := make([]*http.Request, len(ops))
	for i, op := range ops {
		req, err := http.NewRequestWithContext(ctx, op.Method, s.base+op.Path, strings.NewReader(op.Body))
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	out := make([]answer, len(ops))
	for i, req := range reqs {
		start := time.Now()
		resp, err := s.client.Do(req)
		if err == nil {
			out[i].body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			out[i].status = resp.StatusCode
		}
		out[i].latency = time.Since(start)
		if err != nil {
			out[i].err = err
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
		}
	}
	return out, nil
}

// answer is one HTTP answer of a list.
type answer struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}
