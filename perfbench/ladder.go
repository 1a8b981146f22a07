package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pairfn/internal/cluster"
	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/tabled"
)

const (
	ladderBatches = 1000 // batches replayed per rung
	ladderWAL     = 200  // set batches appended, each fsynced, on the WAL rung
	ladderShards  = 16   // tabledserver's default -shards
	ladderMinTime = 100 * time.Millisecond
)

// ladderBatch is one generated batch in every form a layer consumes.
type ladderBatch struct {
	kind    uint8
	ops     []tabled.Op
	xs, ys  []int64
	cells   []tabled.Cell[string]
	keys    []tabled.Pos
	results []tabled.OpResult
	req     []byte // binary request frame
	resp    []byte // binary response frame
}

// ladderInput regenerates the batches the workload's main phase sent
// first, from the same seed and streams.
func (g *gen) ladderInput() ([]ladderBatch, error) {
	m := newModel(g.seed, g.w.rows, g.w.cols)
	var out []ladderBatch
	add := func(kind uint8, idx []int64) error {
		b := ladderBatch{kind: kind}
		for _, i := range idx {
			x, y := m.pos(i)
			v := m.value(x, y, 1)
			b.xs, b.ys = append(b.xs, x), append(b.ys, y)
			if kind == opSet {
				b.ops = append(b.ops, tabled.Op{Op: "set", X: x, Y: y, V: v})
				b.cells = append(b.cells, tabled.Cell[string]{X: x, Y: y, V: v})
				b.results = append(b.results, tabled.OpResult{OK: true})
			} else {
				b.ops = append(b.ops, tabled.Op{Op: "get", X: x, Y: y})
				b.keys = append(b.keys, tabled.Pos{X: x, Y: y})
				b.results = append(b.results, tabled.OpResult{OK: true, Found: true, V: v})
			}
		}
		var err error
		if b.req, err = tabled.AppendBatchRequest(nil, b.ops); err != nil {
			return err
		}
		if b.resp, err = tabled.AppendBatchResponse(nil, b.results); err != nil {
			return err
		}
		out = append(out, b)
		return nil
	}
	c := g.w.closed
	pks := make([]*picker, c.conns)
	for i := range pks {
		pks[i] = newPicker(m, g.seed, int64(i), int64(i), int64(c.conns))
	}
	for len(out) < ladderBatches {
		pk := pks[len(out)%len(pks)]
		kind := opGet
		if pk.rng.Float64() < c.setFrac {
			kind = opSet
		}
		if err := add(kind, pk.next(c.batch)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// perCell times fn over every batch, repeating whole passes until
// ladderMinTime has passed, and returns ns per cell.
func perCell(bs []ladderBatch, keep func(ladderBatch) bool, fn func(ladderBatch)) float64 {
	var cells int64
	start := time.Now()
	for time.Since(start) < ladderMinTime {
		for _, b := range bs {
			if keep(b) {
				fn(b)
				cells += int64(len(b.ops))
			}
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(cells))
}

// allocsPerBatch counts heap allocations of one pass of fn over the batches.
func allocsPerBatch(bs []ladderBatch, fn func(ladderBatch)) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bs {
		fn(b)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(bs))
}

func all(ladderBatch) bool    { return true }
func sets(b ladderBatch) bool { return b.kind == opSet }
func gets(b ladderBatch) bool { return b.kind == opGet }

// ladder replays the workload's batches through each layer's public
// functions in process, one layer at a time, and loads the run's final
// snapshot.
func (g *gen) ladder(snapPath string) (map[string]float64, error) {
	bs, err := g.ladderInput()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	f, err := core.ByName("square-shell")
	if err != nil {
		return nil, err
	}
	maxOps := 4 * prefillBatch

	dst := make([]int64, 4096)
	out["core.encode_ns_per_cell"] = perCell(bs, all, func(b ladderBatch) {
		core.EncodeBatch(f, b.xs, b.ys, dst[:len(b.xs)], nil)
	})

	ops := make([]tabled.Op, 0, 4096)
	res := make([]tabled.OpResult, 0, 4096)
	buf := make([]byte, 0, 1<<16)
	var codecErr error
	keepErr := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	decode := func(b ladderBatch) {
		var err error
		ops, err = tabled.DecodeBatchRequest(b.req, ops[:0], maxOps)
		keepErr(err)
	}
	encode := func(b ladderBatch) {
		var err error
		buf, err = tabled.AppendBatchResponse(buf[:0], b.results)
		keepErr(err)
	}
	out["codec.decode_ns_per_cell"] = perCell(bs, all, decode)
	out["codec.encode_ns_per_cell"] = perCell(bs, all, encode)
	out["codec.allocs_per_batch"] = allocsPerBatch(bs, func(b ladderBatch) {
		decode(b)
		encode(b)
		var err error
		res, err = tabled.DecodeBatchResponse(b.resp, res[:0], maxOps)
		keepErr(err)
	})
	if codecErr != nil {
		return nil, fmt.Errorf("ladder codec: %w", codecErr)
	}

	newStore := func() extarray.Store[string] { return extarray.NewPagedStore[string]() }
	reg := obs.NewRegistry()
	tm := tabled.NewMetrics(reg, ladderShards)
	sh, err := tabled.NewSharded[string](f, ladderShards, newStore, g.w.rows, g.w.cols, tm)
	if err != nil {
		return nil, err
	}
	m := newModel(g.seed, g.w.rows, g.w.cols)
	fill := make([]tabled.Cell[string], 0, 4096)
	errs := make([]error, 4096)
	for i := int64(0); i < m.cells(); i++ {
		x, y := m.pos(i)
		fill = append(fill, tabled.Cell[string]{X: x, Y: y, V: m.value(x, y, 0)})
		if len(fill) == cap(fill) || i == m.cells()-1 {
			sh.SetBatchInto(fill, errs[:len(fill)])
			fill = fill[:0]
		}
	}
	gres := make([]tabled.GetResult[string], 4096)
	setFn := func(b ladderBatch) { sh.SetBatchInto(b.cells, errs[:len(b.cells)]) }
	getFn := func(b ladderBatch) { sh.GetBatchInto(b.keys, gres[:len(b.keys)]) }
	out["sharded.set_ns_per_cell"] = perCell(bs, sets, setFn)
	out["sharded.get_ns_per_cell"] = perCell(bs, gets, getFn)
	out["sharded.allocs_per_batch"] = allocsPerBatch(bs, func(b ladderBatch) {
		if b.kind == opSet {
			setFn(b)
		} else {
			getFn(b)
		}
	})

	h := tabled.NewHandler(sh, tabled.ServerOptions{Registry: reg, Metrics: tm})
	var handlerErr error
	start := time.Now()
	for _, b := range bs {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(b.req))
		req.Header.Set("Content-Type", tabled.ContentTypeBinary)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && handlerErr == nil {
			handlerErr = fmt.Errorf("ladder handler: %d %s", rec.Code, rec.Body.String())
		}
	}
	out["handler.inproc_us_per_batch"] = float64(time.Since(start).Microseconds()) / float64(len(bs))
	if handlerErr != nil {
		return nil, handlerErr
	}

	walPath := filepath.Join(g.dir, "ladder.wal")
	wal, _, err := tabled.OpenWAL(walPath, func(tabled.WALRecord) error { return nil }, tabled.WALOptions{})
	if err != nil {
		return nil, err
	}
	n := 0
	start = time.Now()
	for _, b := range bs {
		if b.kind != opSet || n == ladderWAL {
			continue
		}
		if err := wal.AppendSet(b.cells); err != nil {
			wal.Close()
			return nil, err
		}
		n++
	}
	out["walog.append_us_per_batch"] = ratio(float64(time.Since(start).Microseconds()), float64(n))
	if err := wal.Close(); err != nil {
		return nil, err
	}
	os.Remove(walPath)

	start = time.Now()
	if _, _, _, err := tabled.LoadShardedFileMeta[string](snapPath, f, ladderShards, newStore, nil); err != nil {
		return nil, fmt.Errorf("ladder snapshot load: %w", err)
	}
	out["snapshot.load_s"] = time.Since(start).Seconds()

	if g.w.routed {
		spec, err := cluster.EvenSpec("square-shell", []string{"http://n0", "http://n1"}, g.w.rows*g.w.cols, math.MaxInt64)
		if err != nil {
			return nil, err
		}
		rm, err := cluster.NewRangeMap(spec)
		if err != nil {
			return nil, err
		}
		pt := cluster.NewPartitioner(f, rm)
		merged := make([]tabled.OpResult, 4096)
		out["cluster.partition_ns_per_cell"] = perCell(bs, all, func(b ladderBatch) {
			plan := pt.Partition(b.ops, 0)
			for node := 0; node < rm.NumNodes(); node++ {
				sub, _ := plan.Sub(node)
				plan.MergeInto(merged[:len(b.ops)], node, b.results[:len(sub)])
			}
			plan.Release()
		})
	}
	return out, nil
}
