// Command perfbench measures the tabled stack end to end on its shipped
// binaries: it starts real tabledserver and tabledrouter processes, drives
// them from one seeded load generator, checks every answer against a model
// of the cells it wrote, and prints each metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the same
// run also scrapes /metrics and /proc around it, replays its batches through
// each layer's public functions in process (the layer ladder), and reports
// per-layer metrics instead. Run it through run.sh, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload direct-mixed --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady --workload routed-semisync --runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A workload is one traffic mix against one topology. Every workload runs
// a closed-loop main phase, then checkpoints under an open loop, then
// SIGKILL restarts that read back every acknowledged write, so each reports
// every end-to-end metric.
type workload struct {
	name       string
	rows, cols int64
	routed     bool
	// gomaxprocs is the GOMAXPROCS of the generator and of every program
	// process, capped at nproc.
	gomaxprocs int
	closed     closedMix
	open       openMix
}

type closedMix struct {
	conns, batch int
	setFrac      float64
}

type openMix struct {
	batch   int
	rate    float64 // batches per second, sets and gets together
	setFrac float64
	gap     time.Duration // between the end of one checkpoint and the next
}

var workloads = []workload{
	{
		name: "direct-mixed", rows: 1024, cols: 1024, gomaxprocs: 2,
		closed: closedMix{conns: 2, batch: 128, setFrac: 0.5},
		open:   openMix{batch: 64, rate: 400, setFrac: 0.5, gap: 400 * time.Millisecond},
	},
	{
		name: "routed-semisync", rows: 1024, cols: 1024, routed: true, gomaxprocs: 1,
		closed: closedMix{conns: 2, batch: 128, setFrac: 0.5},
		open:   openMix{batch: 64, rate: 300, setFrac: 0.25, gap: 500 * time.Millisecond},
	},
}

const (
	setups   = 5 // set-ups per run; setup_s is their median
	restarts = 7 // SIGKILL restarts per run; recovery_s is their iqMean
	warmup   = 2 * time.Second
	// prefillBatch is the set batch size of the prefill and read-back sweeps.
	prefillBatch = 2048
	// tailBatches set batches of open.batch cells go to the WAL between
	// the checkpoint before each restart and the kill, so every restart
	// replays the same log tail.
	tailBatches = 100
	// ckpts is how many checkpoints the checkpoint phase takes; the
	// checkpoint metrics are iqMeans over them.
	ckpts = 13
	// runLimit is how long a run may take before it gives up.
	runLimit = 170 * time.Second
)

// gen is one benchmark run.
type gen struct {
	root, dir, bin string
	w              workload
	seed           uint64
	seconds        int
	trace          bool
	gomaxprocs     int
	t0             time.Time
	m              *model
	tally          tally
	topo           *topo

	mu      sync.Mutex
	running []*proc // every started process, for cleanup on a signal
}

func (g *gen) now() int64 { return int64(time.Since(g.t0)) }

func (g *gen) sleepUntil(t int64) {
	if d := t - g.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "checkout root holding .bench_build/bin")
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds of the main phase")
	trace := flag.Int("trace", 0, "1 = per-layer run: scrapes, /proc samples, spans and the layer ladder")
	flag.Parse()
	if flag.Arg(0) == "steady" {
		return steady(*root, flag.Args()[1:])
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1, -trace 0|1\n", workloadNames())
		return 2
	}
	// One generator process with at most nproc connections. The generator
	// and the one server of direct-mixed each keep nproc Ps, so neither
	// queues on a single P; a routed run has six processes on two CPUs,
	// where more than one P per process only adds idle spinning, which
	// measures the host's scheduler rather than the program.
	gmp := min(w.gomaxprocs, runtime.NumCPU())
	runtime.GOMAXPROCS(gmp)
	g := &gen{root: *root, w: *w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		gomaxprocs: gmp, t0: time.Now(), bin: filepath.Join(*root, ".bench_build", "bin")}
	for _, b := range []string{"tabledserver", "tabledrouter"} {
		if _, err := os.Stat(filepath.Join(g.bin, b)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: binaries not built (run through run.sh):", err)
			return 1
		}
	}
	g.dir = filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(g.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(g.dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		g.killAll()
		os.RemoveAll(g.dir)
		os.Exit(1)
	}()
	defer g.killAll()
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		if e, ok := g.tally.firstErr.Load().(string); ok {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", e)
		}
		g.killAll()
		g.keepLogs()
		os.RemoveAll(g.dir)
		os.Exit(1)
	})
	defer watchdog.Stop()

	res, err := g.execute()
	if err != nil {
		g.killAll()
		g.keepLogs()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if e, ok := g.tally.firstErr.Load().(string); ok {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", e)
		}
		return 1
	}
	correct := g.tally.wrong.Load()+g.tally.stale.Load()+g.tally.lost.Load() == 0
	if e, ok := g.tally.firstErr.Load().(string); ok {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", e)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, g.tally.attempted.Load(), g.tally.failed(), res}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, " | ")
}

// keepLogs copies the program logs of a failed run to
// .bench_build/failed-<pid>/ before the run directory is removed.
func (g *gen) keepLogs() {
	logs, _ := filepath.Glob(filepath.Join(g.dir, "*", "*.log"))
	dst := filepath.Join(g.root, ".bench_build", fmt.Sprintf("failed-%d", os.Getpid()))
	for _, l := range logs {
		b, err := os.ReadFile(l)
		if err != nil {
			continue
		}
		name := filepath.Join(dst, filepath.Base(filepath.Dir(l))+"-"+filepath.Base(l))
		if os.MkdirAll(dst, 0o755) == nil && os.WriteFile(name, b, 0o644) == nil {
			fmt.Fprintln(os.Stderr, "perfbench: kept", name)
		}
	}
}

func (g *gen) track(p *proc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.running = append(g.running, p)
}

func (g *gen) killAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.running {
		p.kill()
	}
	g.running = nil
}

// metric is one named result with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

func metricsJSON(ms []metric) map[string]map[string]any {
	out := make(map[string]map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

func printMetrics(title string, ms []metric) {
	fmt.Println(title)
	for _, m := range ms {
		fmt.Printf("  %-34s %14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
}

// stamp describes where and how a result was measured.
func (g *gen) stamp() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(l[strings.IndexByte(l, ':')+1:])
				break
			}
		}
	}
	race := map[string]bool{}
	for _, b := range []string{"tabledserver", "tabledrouter"} {
		race[b] = raceBuild(filepath.Join(g.bin, b))
	}
	gmp := map[string]int{"gen": g.gomaxprocs}
	for _, p := range g.topo.all() {
		gmp[p.role] = g.gomaxprocs
	}
	return map[string]any{
		"workload": g.w.name, "seed": g.seed, "seconds": g.seconds, "trace": g.trace,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "cpu": cpu,
		"gomaxprocs": gmp, "race_build": race, "build_time_in_setup": false,
	}
}
