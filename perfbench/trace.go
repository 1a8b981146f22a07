package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// seriesPrefix sums the change of every series whose name starts with
// prefix, over the named processes.
func (o *observer) seriesPrefix(from, to, prefix string, names ...string) float64 {
	v := 0.0
	for _, n := range names {
		for k, x := range o.scrape[to][n] {
			if strings.HasPrefix(k, prefix) {
				v += x - o.scrape[from][n][k]
			}
		}
	}
	return v
}

// meanOf is Δsum/Δcount of one histogram series, scaled; 0 with no events.
func (o *observer) meanOf(from, to, hist, labels string, scale float64, names ...string) float64 {
	c := o.series(from, to, hist+"_count"+labels, names...)
	if c == 0 {
		return 0
	}
	return o.series(from, to, hist+"_sum"+labels, names...) / c * scale
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer reduces the traced run to per-layer metrics: client spans, the
// /metrics deltas and /proc samples of each role over the main phase, and
// the layer ladder. A layer a workload does not run reports 0.
func (g *gen) perLayer(r *result) ([]metric, error) {
	t, o := g.topo, r.obs
	const a, b = "main:start", "main:end"
	const ck = "ckpt"
	prim, fol := names(t.primaries), names(t.followers)
	front := prim
	if t.router != nil {
		front = []string{t.router.name}
	}
	const us = 1e6

	var clientSum float64
	var setCells int64
	for _, rc := range r.main.recs {
		clientSum += float64(rc.done - rc.send)
		if rc.kind == opSet {
			setCells += int64(rc.cells)
		}
	}
	clientUs := ratio(clientSum/1e3, float64(len(r.main.recs)))
	cells := float64(cellsOf(r.main.recs))

	batchUs := (o.series(a, b, `tabled_batch_duration_seconds_sum{op="set"}`, prim...) +
		o.series(a, b, `tabled_batch_duration_seconds_sum{op="get"}`, prim...)) /
		(o.series(a, b, `tabled_batch_duration_seconds_count{op="set"}`, prim...) +
			o.series(a, b, `tabled_batch_duration_seconds_count{op="get"}`, prim...)) * us
	memberReqUs := o.meanOf(a, b, "http_request_duration_seconds", `{path="/v1/batch"}`, us, prim...)
	frontReqUs := o.meanOf(a, b, "http_request_duration_seconds", `{path="/v1/batch"}`, us, front...)
	memberSetBatches := o.series(a, b, `tabled_batch_duration_seconds_count{op="set"}`, prim...)
	memberBatches := o.series(a, b, `http_request_duration_seconds_count{path="/v1/batch"}`, prim...)
	syncs := o.series(a, b, `tabled_wal_syncs_total{result="ok"}`, prim...)
	syncUs := o.meanOf(a, b, "tabled_wal_sync_duration_seconds", "", us, prim...)

	var nodeUs, subPerBatch, routerSelf float64
	if t.router != nil {
		nodeUs = ratio(o.seriesPrefix(a, b, "cluster_node_batch_duration_seconds_sum", t.router.name),
			o.seriesPrefix(a, b, "cluster_node_batch_duration_seconds_count", t.router.name)) * us
		subPerBatch = ratio(o.seriesPrefix(a, b, "cluster_node_batch_duration_seconds_count", t.router.name),
			o.series(a, b, `http_request_duration_seconds_count{path="/v1/batch"}`, t.router.name))
		routerSelf = clientUs - nodeUs
	}
	var recordsPerPull float64
	if len(fol) > 0 {
		recordsPerPull = ratio(o.series(a, b, "tabled_repl_applied_records_total", fol...),
			o.seriesPrefix(a, b, "tabled_repl_pulls_total", fol...))
	}

	lad, err := g.ladder(t.snapFile(0))
	if err != nil {
		return nil, err
	}
	normal, _ := r.ckpt.split()
	var late []float64
	for _, rc := range normal {
		late = append(late, rc.lateMs())
	}

	ms := []metric{
		{"client.batch_us_mean", "us", clientUs},
		{"core.encode_ns_per_cell", "ns", lad["core.encode_ns_per_cell"]},
		{"codec.decode_ns_per_cell", "ns", lad["codec.decode_ns_per_cell"]},
		{"codec.encode_ns_per_cell", "ns", lad["codec.encode_ns_per_cell"]},
		{"codec.allocs_per_batch", "count", lad["codec.allocs_per_batch"]},
		{"sharded.set_ns_per_cell", "ns", lad["sharded.set_ns_per_cell"]},
		{"sharded.get_ns_per_cell", "ns", lad["sharded.get_ns_per_cell"]},
		{"sharded.allocs_per_batch", "count", lad["sharded.allocs_per_batch"]},
		{"handler.batch_us_mean", "us", batchUs},
		{"handler.request_us_mean", "us", memberReqUs},
		{"handler.transport_us_mean", "us", clientUs - frontReqUs},
		{"handler.inproc_us_per_batch", "us", lad["handler.inproc_us_per_batch"]},
		{"walog.syncs_per_set_batch", "count", ratio(syncs, memberSetBatches)},
		{"walog.sync_us_mean", "us", syncUs},
		{"walog.append_us_per_batch", "us", lad["walog.append_us_per_batch"]},
		{"walog.bytes_per_cell", "B", ratio(o.series(a, b, "tabled_wal_appended_bytes_total", prim...), float64(setCells))},
		{"walog.replayed_records", "count", median(r.replayed)},
		{"snapshot.save_s_mean", "s", o.meanOf(ck+":start", ck+":end", "tabled_snapshot_duration_seconds", "", 1, prim...)},
		{"checkpoint.set_blocked_frac", "ratio", median(r.ckpt.blockedFrac())},
		{"snapshot.load_s", "s", lad["snapshot.load_s"]},
		{"repl.ack_waits_per_set_batch", "count", ratio(o.series(a, b, "tabled_repl_ack_waits_total", prim...), memberSetBatches)},
		{"repl.records_per_pull", "count", recordsPerPull},
		{"repl.reseeds_per_ckpt", "count", ratio(o.series(ck+":start", ck+":end", `tabled_repl_reseeds_total{result="ok"}`, fol...),
			float64(len(r.ckpt.windows)))},
		{"repl.ack_timeouts", "count", o.series(a, b, "tabled_repl_ack_timeouts_total", prim...) +
			o.series(ck+":start", ck+":end", "tabled_repl_ack_timeouts_total", prim...)},
		{"cluster.subbatches_per_batch", "count", subPerBatch},
		{"cluster.node_batch_us_mean", "us", nodeUs},
		{"cluster.router_self_us_mean", "us", routerSelf},
		{"cluster.partition_ns_per_cell", "ns", lad["cluster.partition_ns_per_cell"]},
		{"gen.late_ms_p99", "ms", percentile(late, 0.99).Value},
	}
	roles := []struct {
		role  string
		procs []string
	}{{"server", prim}, {"router", front}, {"follower", fol}, {"gen", []string{"gen"}}}
	for _, rl := range roles {
		cpu := 0.0
		if rl.role != "router" || t.router != nil {
			cpu = float64(o.cpuDelta(a, b, rl.procs...).Microseconds()) / cells
		}
		ms = append(ms, metric{"proc." + rl.role + ".cpu_us_per_op", "us", cpu})
		if rl.role == "gen" {
			continue
		}
		rss := 0.0
		if rl.role != "router" || t.router != nil {
			for _, n := range rl.procs {
				rss += float64(o.usage[b][n].hwmKB) / 1024
			}
		}
		ms = append(ms, metric{"proc." + rl.role + ".rss_mb", "MiB", rss})
	}

	// The breakdown of one client batch's mean latency, outermost first.
	execUs := batchUs * ratio(memberBatches, float64(len(r.main.recs)))
	fsyncUs := syncs * syncUs / float64(len(r.main.recs))
	memberUs := memberReqUs * ratio(memberBatches, float64(len(r.main.recs)))
	fmt.Printf("breakdown of the mean client batch (%s, main phase, µs per client batch):\n", g.w.name)
	row := func(depth int, name string, v float64) {
		fmt.Printf("  %s%-52s %10.1f\n", strings.Repeat("  ", depth), name, v)
	}
	row(0, "client round trip", clientUs)
	if t.router != nil {
		row(1, "router /v1/batch handler", frontReqUs)
		row(2, "member sub-batch round trip, mean", nodeUs)
		row(3, "member /v1/batch handler", memberReqUs)
		row(4, "execute: store + WAL append + fsync", batchUs)
		row(4, "codec, semi-sync ack wait, idempotency, log", memberReqUs-batchUs)
		row(3, "router→member transport", nodeUs-memberReqUs)
		row(2, "router self: partition, re-encode, fan-out, merge", frontReqUs-nodeUs)
	} else {
		row(1, "server /v1/batch handler", memberUs)
		row(2, "execute: store + WAL append", execUs-fsyncUs)
		row(2, "WAL fsync", fsyncUs)
		row(2, "codec, idempotency, request log", memberUs-execUs)
	}
	row(1, "unattributed: loopback transport, client codec, scheduling", clientUs-frontReqUs)
	ms = append(ms, metric{"breakdown.unattributed_us", "us", clientUs - frontReqUs})
	return ms, nil
}

// writeSpans writes every client and admin call of the run, one JSON object
// a line, to .bench_build/spans-<workload>-<seed>.jsonl.
func (g *gen) writeSpans(r *result) error {
	path := filepath.Join(g.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", g.w.name, g.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	kinds := map[uint8]string{opSet: "set", opGet: "get"}
	for _, ph := range []struct {
		name string
		p    phase
	}{{"main", r.main}, {"ckpt", r.ckpt}} {
		for _, rc := range ph.p.recs {
			enc.Encode(map[string]any{"phase": ph.name, "span": "client." + kinds[rc.kind], "due_ns": rc.due, "start_ns": rc.send, "end_ns": rc.done, "cells": rc.cells})
		}
		for _, wd := range ph.p.windows {
			enc.Encode(map[string]any{"phase": ph.name, "span": "admin.snapshot", "target": wd.target, "start_ns": wd.start, "end_ns": wd.end})
		}
	}
	for _, rs := range r.restartsAt {
		enc.Encode(map[string]any{"phase": "restart", "span": "admin.restart", "target": rs.target, "start_ns": rs.start, "end_ns": rs.end})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Println("spans", path)
	return f.Close()
}
