package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A proc is one program process the benchmark runs: a tabledserver primary
// or follower, or the tabledrouter.
type proc struct {
	role string // "server", "follower" or "router"
	name string
	bin  string
	args []string
	addr string // host:port it listens on
	log  string
	cmd  *exec.Cmd
	// started is when the current incarnation was spawned.
	started time.Time
}

func (p *proc) base() string { return "http://" + p.addr }

func (p *proc) pid() int { return p.cmd.Process.Pid }

// start spawns the process with its output in its log file. Pdeathsig
// kills it if the generator dies first.
func (p *proc) start(gomaxprocs int) error {
	lf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer lf.Close()
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd = cmd
	return nil
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine: Wait reaps it either way
	_ = p.cmd.Wait()         // the exit status of a killed process carries no information
	p.cmd = nil
}

// waitReady polls path until it answers 200 with a body accepted by ok, or
// the process exits, or the deadline passes.
func (p *proc) waitReady(path string, ok func(string) bool, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.base() + path)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(strings.TrimSpace(string(body))) {
				return nil
			}
		}
		if p.cmd.ProcessState != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready on %s within %v (log %s)", p.name, path, limit, p.log)
}

func anyBody(string) bool { return true }

// routerReady accepts a router /readyz body only when no member is unhealthy.
func routerReady(body string) bool { return body == "ready" }

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// usage is one sample of a process's CPU time and memory.
type usage struct {
	cpu   time.Duration // user + system
	hwmKB int64         // VmHWM, the peak resident set
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func readUsage(pid int) usage {
	var u usage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return u
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	u.cpu = time.Duration(ut+st) * clockTick
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fs := strings.Fields(rest); len(fs) > 0 {
				u.hwmKB, _ = strconv.ParseInt(fs[0], 10, 64)
			}
		}
	}
	return u
}

// scrape fetches a Prometheus text exposition and returns every sample by
// its full series name, labels included, e.g.
// `tabled_wal_syncs_total{result="ok"}`.
func scrape(base string) (map[string]float64, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// post issues a POST with an empty body and fails on any non-200 answer.
func post(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// fileSize returns the size of path, or an error if it is missing.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if st.Size() == 0 {
		return 0, errors.New(filepath.Base(path) + " is empty")
	}
	return st.Size(), nil
}

// replStatus is the part of GET /v1/repl/status a catch-up check needs.
type replStatus struct {
	Next    uint64 `json:"next"`
	Applied uint64 `json:"applied"`
	Err     string `json:"error"`
}

func getReplStatus(p *proc) (replStatus, string, error) {
	var st replStatus
	c := &http.Client{Timeout: time.Second}
	resp, err := c.Get(p.base() + "/v1/repl/status")
	if err != nil {
		return st, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, "", err
	}
	return st, string(body), json.Unmarshal(body, &st)
}

// waitCaughtUp waits until follower f has applied everything primary p
// holds, so a semi-synchronous write after a restart does not wait out the
// follower's reconnect backoff.
func waitCaughtUp(p, f *proc, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	last := ""
	for time.Now().Before(deadline) {
		ps, _, err1 := getReplStatus(p)
		fs, body, err2 := getReplStatus(f)
		last = body
		if err1 == nil && err2 == nil && fs.Err == "" && fs.Applied >= ps.Next {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s did not catch up with %s within %v: %s", f.name, p.name, limit, last)
}
