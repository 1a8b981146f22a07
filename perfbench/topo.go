package main

import (
	"debug/buildinfo"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// topo is the set of program processes of one workload.
type topo struct {
	primaries []*proc
	followers []*proc
	router    *proc
	dir       string
}

func (t *topo) all() []*proc {
	ps := append(append([]*proc(nil), t.primaries...), t.followers...)
	if t.router != nil {
		ps = append(ps, t.router)
	}
	return ps
}

// front is the base URL clients send batches to.
func (t *topo) front() string {
	if t.router != nil {
		return t.router.base()
	}
	return t.primaries[0].base()
}

func (t *topo) snapFile(i int) string { return filepath.Join(t.dir, fmt.Sprintf("p%d.gob", i)) }

func (t *topo) targets() []string {
	var out []string
	for _, p := range t.primaries {
		out = append(out, p.base())
	}
	return out
}

// newTopo lays out the workload's processes under dir. Every primary runs
// with -wal (fsync per acknowledged write, the default) and -snapshot.
// Routed primaries are semi-synchronous, each with one follower.
func (g *gen) newTopo(dir string) (*topo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topo{dir: dir}
	dims := []string{"-rows", strconv.FormatInt(g.w.rows, 10), "-cols", strconv.FormatInt(g.w.cols, 10)}
	nprim := 1
	if g.w.routed {
		nprim = 2
	}
	newProc := func(role, name string, args ...string) (*proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		bin := "tabledserver"
		if role == "router" {
			bin = "tabledrouter"
		} else {
			args = append(append([]string(nil), dims...), args...)
		}
		return &proc{role: role, name: name, bin: filepath.Join(g.bin, bin), addr: addr,
			args: append([]string{"-addr", addr}, args...), log: filepath.Join(dir, name+".log")}, nil
	}
	for i := 0; i < nprim; i++ {
		args := []string{"-wal", filepath.Join(dir, fmt.Sprintf("p%d.wal", i)), "-snapshot", t.snapFile(i)}
		if g.w.routed {
			args = append(args, "-repl-ack", "5s")
		}
		p, err := newProc("server", fmt.Sprintf("p%d", i), args...)
		if err != nil {
			return nil, err
		}
		t.primaries = append(t.primaries, p)
	}
	if !g.w.routed {
		return t, nil
	}
	var bases, replicas []string
	for i, p := range t.primaries {
		// A checkpoint on a semi-synchronous primary can cut its log past
		// a record its follower has not pulled yet; with -snapshot the
		// follower reseeds from the primary instead of stopping for good.
		f, err := newProc("follower", fmt.Sprintf("f%d", i),
			"-wal", filepath.Join(dir, fmt.Sprintf("f%d.wal", i)), "-snapshot", filepath.Join(dir, fmt.Sprintf("f%d.gob", i)),
			"-replicate-from", p.base())
		if err != nil {
			return nil, err
		}
		t.followers = append(t.followers, f)
		bases, replicas = append(bases, p.base()), append(replicas, f.base())
	}
	r, err := newProc("router", "router", "-nodes", strings.Join(bases, ","), "-replicas", strings.Join(replicas, ","),
		"-max-addr", strconv.FormatInt(g.w.rows*g.w.cols, 10))
	if err != nil {
		return nil, err
	}
	t.router = r
	return t, nil
}

const readyLimit = 60 * time.Second

// startAll starts primaries, then followers, then the router, each ready
// before the next starts.
func (g *gen) startAll(t *topo) error {
	for _, p := range t.all() {
		if err := g.startProc(p); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) startProc(p *proc) error {
	if err := p.start(g.gomaxprocs); err != nil {
		return err
	}
	g.track(p)
	switch p.role {
	case "follower":
		// A follower is read-only, so its /readyz reports degraded.
		return p.waitReady("/healthz", anyBody, readyLimit)
	case "router":
		return p.waitReady("/readyz", routerReady, readyLimit)
	}
	return p.waitReady("/readyz", anyBody, readyLimit)
}

func (g *gen) stopAll(t *topo) {
	for _, p := range t.all() {
		p.kill()
	}
}

// setup starts the workload's processes under dir and prefills every cell
// through the front door, returning how long that took.
func (g *gen) setup(dir string) (*topo, time.Duration, error) {
	t, err := g.newTopo(dir)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := g.startAll(t); err != nil {
		return t, 0, err
	}
	g.sweep(t.front(), opSet, 0, g.m.cells(), prefillBatch, 2, false)
	d := time.Since(start)
	// Write back the prefill's page cache now, so the measured phase does
	// not start behind it.
	syscall.Sync()
	if g.tally.failed() > 0 {
		return t, d, fmt.Errorf("prefill failed: %v", g.tally.firstErr.Load())
	}
	return t, d, nil
}

// restart kills primary i with SIGKILL, starts it again on the same files
// and returns the time from its start to ready.
func (g *gen) restart(t *topo, i int) (time.Duration, error) {
	p := t.primaries[i]
	p.kill()
	if err := p.start(g.gomaxprocs); err != nil {
		return 0, err
	}
	if err := p.waitReady("/readyz", anyBody, readyLimit); err != nil {
		return 0, err
	}
	d := time.Since(p.started)
	if t.router != nil {
		if err := t.router.waitReady("/readyz", routerReady, readyLimit); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// raceBuild reports whether the binary at path was built with -race.
func raceBuild(path string) bool {
	bi, err := buildinfo.ReadFile(path)
	if err != nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
