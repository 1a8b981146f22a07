package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// observer samples every program process, and the generator itself, at the
// edges of each phase: /proc CPU and memory always, /metrics when tracing.
// Through the main phase it also samples the program processes' CPU time
// every slice, so CPU per op can be taken per slice.
type observer struct {
	g      *gen
	usage  map[string]map[string]usage              // point → proc name ("gen" for self) → sample
	scrape map[string]map[string]map[string]float64 // point → proc name → series
	ticks  []tick
	stop   chan struct{}
	done   chan struct{}
}

// A tick is the summed CPU time of the program processes at one instant.
type tick struct {
	at  int64 // ns since the generator started
	cpu time.Duration
}

// slice is the length of the slices the main phase is cut into; metrics
// taken per slice are reported as their iqMean, so a burst of host noise
// shorter than a quarter of the phase does not move them.
const slice = time.Second

func newObserver(g *gen) *observer {
	return &observer{g: g, usage: map[string]map[string]usage{}, scrape: map[string]map[string]map[string]float64{}}
}

// at returns the hook a phase calls at its "start" and "end".
func (o *observer) at(phase string) func(string) {
	return func(edge string) {
		if phase == "main" && edge == "end" {
			close(o.stop)
			<-o.done
		}
		o.sample(phase + ":" + edge)
		if phase == "main" && edge == "start" {
			o.stop, o.done = make(chan struct{}), make(chan struct{})
			go o.tick()
		}
	}
}

func (o *observer) tick() {
	defer close(o.done)
	next := o.g.now()
	for {
		var cpu time.Duration
		for _, p := range o.g.topo.all() {
			cpu += readUsage(p.pid()).cpu
		}
		o.ticks = append(o.ticks, tick{at: o.g.now(), cpu: cpu})
		next += int64(slice)
		select {
		case <-o.stop:
			return
		case <-time.After(time.Duration(next - o.g.now())):
		}
	}
}

func (o *observer) sample(point string) {
	u := map[string]usage{"gen": readUsage(os.Getpid())}
	s := map[string]map[string]float64{}
	for _, p := range o.g.topo.all() {
		u[p.name] = readUsage(p.pid())
		if o.g.trace {
			if m, err := scrape(p.base()); err == nil {
				s[p.name] = m
			}
		}
	}
	o.usage[point], o.scrape[point] = u, s
}

// cpuDelta is the CPU time the named processes used between two points.
func (o *observer) cpuDelta(from, to string, names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += o.usage[to][n].cpu - o.usage[from][n].cpu
	}
	return d
}

// series sums the change of one series between two points over the named
// processes.
func (o *observer) series(from, to, key string, names ...string) float64 {
	v := 0.0
	for _, n := range names {
		v += o.scrape[to][n][key] - o.scrape[from][n][key]
	}
	return v
}

func names(ps []*proc) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.name)
	}
	return out
}

// result is everything one run measured, before it is reduced to metrics.
type result struct {
	setupS     []float64
	main, ckpt phase
	recovery   []float64
	restartsAt []window // each restart, from spawn to ready
	replayed   []float64
	obs        *observer
	peakRSSKB  int64
	snapBytes  int64 // every primary's snapshot after the checkpoints
}

func (g *gen) execute() (map[string]map[string]any, error) {
	r := &result{}
	for k := 0; k < setups; k++ {
		g.m = newModel(g.seed, g.w.rows, g.w.cols)
		dir := filepath.Join(g.dir, fmt.Sprintf("setup-%d", k))
		t, d, err := g.setup(dir)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, d.Seconds())
		if k < setups-1 {
			g.stopAll(t)
			os.RemoveAll(dir)
		} else {
			g.topo = t
		}
	}
	t := g.topo
	phaseAt := int64(0)
	phaseDone := func(name string) {
		fmt.Printf("phase %s took %.1f s\n", name, float64(g.now()-phaseAt)/1e9)
		phaseAt = g.now()
	}
	phaseDone("setup")
	r.obs = newObserver(g)
	c, o := g.w.closed, g.w.open
	dur := time.Duration(g.seconds) * time.Second
	r.main = g.closedLoop(t.front(), c.conns, c.batch, c.setFrac, warmup, dur, r.obs.at("main"))
	for _, p := range t.all() {
		r.peakRSSKB += r.obs.usage["main:end"][p.name].hwmKB
	}
	phaseDone("main")
	r.ckpt = g.openLoop(t.front(), t.targets(), o.batch, o.rate, o.setFrac, o.gap, ckpts, r.obs.at("ckpt"))
	for i := range t.primaries {
		n, err := fileSize(t.snapFile(i))
		if err != nil {
			return nil, err
		}
		r.snapBytes += n
	}
	phaseDone("checkpoint")
	if err := g.restarts(r); err != nil {
		return nil, err
	}
	phaseDone("restart")
	g.stopAll(t)
	ms := g.endToEnd(r)
	b, _ := json.Marshal(g.stamp())
	fmt.Println("stamp", string(b))
	printMetrics("end-to-end ("+g.w.name+"):", ms)
	e2e, _ := json.Marshal(metricsJSON(ms))
	fmt.Println("e2e", string(e2e))
	if !g.trace {
		return metricsJSON(ms), nil
	}
	pl, err := g.perLayer(r)
	if err != nil {
		return nil, err
	}
	printMetrics("per-layer ("+g.w.name+"):", pl)
	if err := g.writeSpans(r); err != nil {
		return nil, err
	}
	return metricsJSON(pl), nil
}

// restarts checkpoints a primary, writes a fixed log tail, kills it with
// SIGKILL, restarts it and reads back every cell, restarts times over the
// primaries in turn.
func (g *gen) restarts(r *result) error {
	t := g.topo
	for k := 0; k < restarts; k++ {
		i := k % len(t.primaries)
		if err := post(context.Background(), t.primaries[i].base()+"/v1/snapshot"); err != nil {
			return err
		}
		s := g.newStream(t.front(), int64(200+k), 0, 1)
		for b := 0; b < tailBatches; b++ {
			s.do(opSet, s.pk.next(g.w.open.batch))
		}
		s.close()
		d, err := g.restart(t, i)
		if err != nil {
			return err
		}
		end := g.now()
		r.restartsAt = append(r.restartsAt, window{start: end - int64(d), end: end, target: i})
		if len(t.followers) > 0 {
			if err := waitCaughtUp(t.primaries[i], t.followers[i], readyLimit); err != nil {
				return err
			}
		}
		r.recovery = append(r.recovery, d.Seconds())
		if m, err := scrape(t.primaries[i].base()); err == nil {
			r.replayed = append(r.replayed, m["tabled_wal_replayed_records_total"])
		}
		g.sweep(t.front(), opGet, 0, g.m.cells(), prefillBatch, 2, true)
	}
	return nil
}

func cellsOf(rs []rec) int64 {
	n := int64(0)
	for _, r := range rs {
		n += int64(r.cells)
	}
	return n
}

// maxSlices caps how many equal-count groups a latency sample is cut into.
const maxSlices = 10

// pctMetric cuts the latencies of one kind, in due order, into as many
// equal-count groups as keep at least ten samples beyond the p-quantile in
// each (at most maxSlices), and reports the iqMean of the groups'
// p-quantiles. It prints the group count and size.
func pctMetric(name string, rs []rec, kind uint8, p float64) metric {
	var xs []rec
	for _, r := range rs {
		if r.kind == kind {
			xs = append(xs, r)
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].due < xs[j].due })
	need := int(math.Ceil(10 / (1 - p)))
	k := max(1, min(maxSlices, len(xs)/need))
	var vals []float64
	var q pct
	for i := 0; i < k; i++ {
		q = percentile(lat(xs[i*len(xs)/k:(i+1)*len(xs)/k], kind), p)
		vals = append(vals, q.Value)
	}
	flag := ""
	if q.Beyond < 10 {
		flag = "  (fewer than 10 samples beyond)"
	}
	v := iqMean(vals)
	fmt.Printf("pct %-24s p=%.2f slices=%d n=%d beyond=%d value=%.4g ms%s\n", name, p, k, q.N, q.Beyond, v, flag)
	return metric{name, "ms", v}
}

// sliceRates returns, per observer slice of the main phase, the cells
// completed per second and the program processes' CPU µs per completed cell.
func sliceRates(o *observer, rs []rec) (ops, cpuPerOp []float64) {
	for i := 0; i+1 < len(o.ticks); i++ {
		a, b := o.ticks[i], o.ticks[i+1]
		var cells int64
		for _, r := range rs {
			if r.done >= a.at && r.done < b.at {
				cells += int64(r.cells)
			}
		}
		if cells == 0 {
			continue
		}
		ops = append(ops, float64(cells)/(float64(b.at-a.at)/1e9))
		cpuPerOp = append(cpuPerOp, float64((b.cpu-a.cpu).Microseconds())/float64(cells))
	}
	return ops, cpuPerOp
}

func (g *gen) endToEnd(r *result) []metric {
	mainRecs := r.main.recs
	_, perCkpt := r.ckpt.split()
	var pooled []rec
	for _, rs := range perCkpt {
		pooled = append(pooled, rs...)
	}
	// The pooled tails over all checkpoints are printed for reference
	// only: a rare follower reseed after a routed checkpoint swings them
	// from run to run, so the gated metrics are iqMeans over checkpoints.
	pctMetric("pooled_ckpt_set_p99_ms", pooled, opSet, 0.99)
	pctMetric("pooled_ckpt_get_p99_ms", pooled, opGet, 0.99)
	fmt.Printf("ckpt stalls are iqMeans over %d checkpoints\n", len(perCkpt))
	// The p99s are printed with their sample counts; the gated tails are
	// p90s, because on a shared 2-CPU host the p99 of fsync-bound batches
	// moves by more than any usable bound from run to run.
	pctMetric("set_p99_ms", mainRecs, opSet, 0.99)
	pctMetric("get_p99_ms", mainRecs, opGet, 0.99)
	ops, cpuPerOp := sliceRates(r.obs, mainRecs)
	fmt.Printf("slices of %v: ops_per_s %.0f\n", slice, ops)
	fmt.Printf("slices of %v: cpu_us_per_op %.3f\n", slice, cpuPerOp)
	var ckptS []float64
	for _, w := range r.ckpt.windows {
		ckptS = append(ckptS, float64(w.end-w.start)/1e9)
	}
	fmt.Printf("set-ups (s): %.3f\n", r.setupS)
	fmt.Printf("checkpoints (s): %.3f\n", ckptS)
	fmt.Printf("recoveries (s): %.3f\n", r.recovery)
	att := g.tally.attempted.Load()
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"ops_per_s", "1/s", iqMean(ops)},
		pctMetric("set_p50_ms", mainRecs, opSet, 0.50),
		pctMetric("set_p90_ms", mainRecs, opSet, 0.90),
		pctMetric("get_p50_ms", mainRecs, opGet, 0.50),
		pctMetric("get_p90_ms", mainRecs, opGet, 0.90),
		{"ckpt_set_stall_ms", "ms", iqMean(stalls(perCkpt, opSet))},
		{"ckpt_get_stall_ms", "ms", iqMean(stalls(perCkpt, opGet))},
		{"checkpoint_s", "s", iqMean(ckptS)},
		{"snapshot_bytes_per_cell", "B", float64(r.snapBytes) / float64(g.m.cells())},
		{"recovery_s", "s", iqMean(r.recovery)},
		{"peak_rss_mb", "MiB", float64(r.peakRSSKB) / 1024},
		{"cpu_us_per_op", "us", iqMean(cpuPerOp)},
		{"ok_frac", "ratio", float64(att-g.tally.failed()) / float64(att)},
	}
}
