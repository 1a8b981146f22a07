package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pairfn/internal/tabled"
)

const (
	opSet uint8 = iota
	opGet
)

// A rec is one batch as the generator saw it, in nanoseconds since the
// generator started. In a closed loop due equals send.
type rec struct {
	kind            uint8
	cells           int32
	due, send, done int64
}

func (r rec) latMs() float64  { return float64(r.done-r.due) / 1e6 }
func (r rec) lateMs() float64 { return float64(r.send-r.due) / 1e6 }

// tally counts every op the generator attempted and every way one failed.
type tally struct {
	attempted atomic.Int64
	errors    atomic.Int64 // transport errors, non-200 replies, per-op errors
	wrong     atomic.Int64 // reads returning a payload the model rules out
	stale     atomic.Int64 // live reads older than an acknowledged write
	lost      atomic.Int64 // acknowledged writes missing after a restart
	firstErr  atomic.Value // string
}

func (t *tally) failed() int64 {
	return t.errors.Load() + t.wrong.Load() + t.stale.Load() + t.lost.Load()
}

func (t *tally) note(format string, args ...any) {
	t.firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
}

// A stream is one client connection and the batches it sends.
type stream struct {
	g    *gen
	cl   *tabled.Client
	pk   *picker
	ops  []tabled.Op
	vers []uint32
	recs []rec
	// restart marks reads that check acknowledged writes after a crash.
	restart bool
}

// newClient returns a binary-wire client pinned to one connection, with no
// retries: every failed attempt counts.
func newClient(base string) *tabled.Client {
	tr := tabled.DefaultTransport.Clone()
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	return &tabled.Client{Base: base, Wire: tabled.WireBinary, HTTP: &http.Client{Transport: tr}, Timeout: 30 * time.Second}
}

func (g *gen) newStream(base string, id, part, parts int64) *stream {
	return &stream{g: g, cl: newClient(base), pk: newPicker(g.m, g.seed, id, part, parts)}
}

func (s *stream) close() {
	s.cl.HTTP.Transport.(*http.Transport).CloseIdleConnections()
}

// do sends one batch over idx and checks every answer against the model.
// It returns the number of ops that completed correctly.
func (s *stream) do(kind uint8, idx []int64) int {
	m, t := s.g.m, &s.g.tally
	if kind == opSet {
		s.ops, s.vers = m.setOps(s.ops, idx, s.vers)
	} else {
		s.ops, s.vers = m.getOps(s.ops, idx, s.vers)
	}
	t.attempted.Add(int64(len(idx)))
	res, err := s.cl.Batch(context.Background(), s.ops)
	if err == nil && len(res) != len(idx) {
		err = fmt.Errorf("%d results for %d ops", len(res), len(idx))
	}
	if err != nil {
		t.errors.Add(int64(len(idx)))
		t.note("batch: %v", err)
		return 0
	}
	ok := 0
	for k, i := range idx {
		r := res[k]
		if !r.OK || r.Err != "" {
			t.errors.Add(1)
			t.note("op %s (%d,%d): %s", s.ops[k].Op, s.ops[k].X, s.ops[k].Y, r.Err)
			continue
		}
		if kind == opSet {
			m.acked[i].Store(s.vers[k])
			ok++
			continue
		}
		switch m.check(i, s.vers[k], r.V, r.Found) {
		case readOK:
			ok++
		case readWrong:
			t.wrong.Add(1)
			t.note("get (%d,%d): wrong value %q", s.ops[k].X, s.ops[k].Y, r.V)
		case readStale:
			if s.restart {
				t.lost.Add(1)
				t.note("get (%d,%d) after restart: acked version %d lost, got %q (found=%v)", s.ops[k].X, s.ops[k].Y, s.vers[k], r.V, r.Found)
			} else {
				t.stale.Add(1)
				t.note("get (%d,%d): stale %q, acked version %d", s.ops[k].X, s.ops[k].Y, r.V, s.vers[k])
			}
		}
	}
	return ok
}

// timed runs one batch and records it.
func (s *stream) timed(kind uint8, idx []int64, due int64) int {
	send := s.g.now()
	if due == 0 {
		due = send
	}
	ok := s.do(kind, idx)
	s.recs = append(s.recs, rec{kind: kind, cells: int32(ok), due: due, send: send, done: s.g.now()})
	return ok
}

// sweep runs set (or get) batches of size n over the contiguous cell range
// [lo, hi) on one stream per part, in parallel.
func (g *gen) sweep(base string, kind uint8, lo, hi int64, n, parts int, restart bool) {
	var wg sync.WaitGroup
	per := (hi - lo + int64(parts) - 1) / int64(parts)
	for p := 0; p < parts; p++ {
		a, b := lo+int64(p)*per, min(hi, lo+int64(p+1)*per)
		s := g.newStream(base, int64(100+p), 0, 1)
		s.restart = restart
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.close()
			idx := make([]int64, 0, n)
			for c := a; c < b; c += int64(n) {
				idx = idx[:0]
				for i := c; i < min(b, c+int64(n)); i++ {
					idx = append(idx, i)
				}
				s.do(kind, idx)
			}
		}()
	}
	wg.Wait()
}

// phase is what one load phase measured.
type phase struct {
	recs    []rec // batches due inside the measured window
	windows []window
}

// A window is one POST /v1/snapshot as the generator timed it.
type window struct {
	start, end int64
	target     int
}

// closedLoop runs conns streams, each owning every conns-th cell and
// sending its next batch only after the previous one answered: a set batch
// with probability setFrac, else a get batch, batch cells each. Batches
// sent before warm are not recorded. at is called at the window's start
// and end, for usage samples.
func (g *gen) closedLoop(base string, conns, batch int, setFrac float64, warm, dur time.Duration, at func(string)) phase {
	start := g.now() + int64(warm)
	end := start + int64(dur)
	ss := make([]*stream, conns)
	var wg sync.WaitGroup
	for c := range ss {
		ss[c] = g.newStream(base, int64(c), int64(c), int64(conns))
		s := ss[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.close()
			for {
				now := g.now()
				if now >= end {
					return
				}
				kind := opGet
				if s.pk.rng.Float64() < setFrac {
					kind = opSet
				}
				idx := s.pk.next(batch)
				if now < start {
					s.do(kind, idx)
					continue
				}
				s.timed(kind, idx, 0)
			}
		}()
	}
	g.sleepUntil(start)
	at("start")
	g.sleepUntil(end)
	at("end")
	wg.Wait()
	var ph phase
	for _, s := range ss {
		ph.recs = append(ph.recs, s.recs...)
	}
	return ph
}

// openLoop sends set and get batches of batch cells on two streams, each
// on its own fixed schedule regardless of replies: rate batches per second
// in all, setFrac of them sets. Latency counts from when a batch was due.
// Starting gap in, it posts a snapshot to each target in turn, gap after
// the previous one ended, and it stops gap after the ckpts-th.
func (g *gen) openLoop(base string, targets []string, batch int, rate, setFrac float64, gap time.Duration, ckpts int, at func(string)) phase {
	t0 := g.now()
	var end atomic.Int64
	end.Store(1 << 62)
	type spec struct {
		kind uint8
		iv   time.Duration
	}
	specs := []spec{
		{opSet, time.Duration(float64(time.Second) / (rate * setFrac))},
		{opGet, time.Duration(float64(time.Second) / (rate * (1 - setFrac)))},
	}
	ss := make([]*stream, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		ss[i] = g.newStream(base, int64(10+i), 0, 1)
		s := ss[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.close()
			for k := int64(0); ; k++ {
				due := t0 + k*int64(sp.iv)
				if due >= end.Load() {
					return
				}
				g.sleepUntil(due)
				s.timed(sp.kind, s.pk.next(batch), due)
			}
		}()
	}
	var ph phase
	at("start")
	for i := 0; i < ckpts; i++ {
		g.sleepUntil(g.now() + int64(gap))
		target := i % len(targets)
		w := window{start: g.now(), target: target}
		if err := post(context.Background(), targets[target]+"/v1/snapshot"); err != nil {
			g.tally.errors.Add(1)
			g.tally.note("snapshot: %v", err)
		}
		w.end = g.now()
		ph.windows = append(ph.windows, w)
	}
	end.Store(g.now() + int64(gap))
	g.sleepUntil(end.Load())
	at("end")
	wg.Wait()
	for _, s := range ss {
		ph.recs = append(ph.recs, s.recs...)
	}
	return ph
}

// A checkpoint's backlog lasts until its stream has sent every batch at
// most catchUpNs late for settleNs: after a checkpoint the queue it built
// drains, and the server catches up with the writeback and garbage the save
// left behind.
const (
	catchUpNs = int64(2 * time.Millisecond)
	settleNs  = int64(250 * time.Millisecond)
)

// split divides an open-loop phase's batches into those due outside any
// checkpoint and, per checkpoint, those due during it or its backlog.
func (ph phase) split() (normal []rec, perCkpt [][]rec) {
	order := make([]int, len(ph.recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ph.recs[order[a]].due < ph.recs[order[b]].due })
	inCkpt := make([]bool, len(ph.recs))
	for k, w := range ph.windows {
		// A backlog that outlasts the gap ends where the next checkpoint
		// starts, so every checkpoint keeps the batches due during it.
		limit := int64(1 << 62)
		if k+1 < len(ph.windows) {
			limit = ph.windows[k+1].start
		}
		var in []rec
		for _, kind := range []uint8{opSet, opGet} {
			stop := w.end
			for _, i := range order {
				r := ph.recs[i]
				if r.kind != kind || r.due < w.end {
					continue
				}
				if r.due-stop >= settleNs || r.due >= limit {
					break
				}
				if r.send-r.due > catchUpNs {
					stop = r.due + 1
				}
			}
			for _, i := range order {
				r := ph.recs[i]
				if r.kind == kind && r.due >= w.start && r.due < stop && !inCkpt[i] {
					inCkpt[i] = true
					in = append(in, r)
				}
			}
		}
		perCkpt = append(perCkpt, in)
	}
	for i, r := range ph.recs {
		if !inCkpt[i] {
			normal = append(normal, r)
		}
	}
	return normal, perCkpt
}

// stalls returns, per checkpoint with batches of one kind due during it or
// its backlog, the longest latency in ms among them.
func stalls(perCkpt [][]rec, kind uint8) []float64 {
	var out []float64
	for _, rs := range perCkpt {
		worst, any := 0.0, false
		for _, r := range rs {
			if r.kind == kind {
				worst, any = max(worst, r.latMs()), true
			}
		}
		if any {
			out = append(out, worst)
		}
	}
	return out
}

// lat returns the latencies in ms of the batches of one kind.
func lat(rs []rec, kind uint8) []float64 {
	var out []float64
	for _, r := range rs {
		if r.kind == kind {
			out = append(out, r.latMs())
		}
	}
	return out
}

// blockedFrac is, per checkpoint, the longest time within it that a set
// was outstanding with no set acknowledged, as a share of the checkpoint.
// Open-loop sets go out on one connection, so that is the longest overlap
// of one set batch with the window.
func (ph phase) blockedFrac() []float64 {
	var out []float64
	for _, w := range ph.windows {
		longest := int64(0)
		for _, r := range ph.recs {
			if r.kind != opSet {
				continue
			}
			longest = max(longest, min(r.done, w.end)-max(r.send, w.start))
		}
		out = append(out, float64(longest)/float64(w.end-w.start))
	}
	return out
}
