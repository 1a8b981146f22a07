package main

import (
	"math/rand/v2"
	"strconv"
	"sync/atomic"

	"pairfn/internal/tabled"
)

// A model is the generator's record of every cell it owns: the newest
// version it sent and the newest version the server acknowledged. Versions
// only grow and each cell has one writer at a time, so a read is correct
// exactly when it returns a version between the acknowledged one when the
// read was sent and the sent one when its reply arrived.
type model struct {
	seed       uint64
	rows, cols int64
	acked      []atomic.Uint32
	sent       []atomic.Uint32
}

func newModel(seed uint64, rows, cols int64) *model {
	n := rows * cols
	return &model{seed: seed, rows: rows, cols: cols,
		acked: make([]atomic.Uint32, n), sent: make([]atomic.Uint32, n)}
}

func (m *model) cells() int64 { return m.rows * m.cols }

func (m *model) pos(idx int64) (x, y int64) { return idx/m.cols + 1, idx%m.cols + 1 }

func (m *model) index(x, y int64) int64 { return (x-1)*m.cols + (y - 1) }

// value is the payload of version ver of cell (x, y): eight hex digits of
// the version, then eight of a seeded hash, so a reply can be decoded back
// to its version and a corrupted or misplaced payload fails the hash.
func (m *model) value(x, y int64, ver uint32) string {
	var b [16]byte
	putHex(b[:8], ver)
	putHex(b[8:], cellHash(m.seed, x, y, ver))
	return string(b[:])
}

func putHex(dst []byte, v uint32) {
	const digits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		dst[i] = digits[v&15]
		v >>= 4
	}
}

func cellHash(seed uint64, x, y int64, ver uint32) uint32 {
	z := seed ^ uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ uint64(ver)*0x165667b19e3779f9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return uint32(z ^ z>>31)
}

// verdict classifies one read against the model.
type verdict uint8

const (
	readOK    verdict = iota
	readWrong         // not a payload this cell was ever sent, or newer than any sent
	readStale         // an older version than one already acknowledged
)

// check judges a read of cell idx that returned (v, found), given the
// acknowledged version when the read was sent.
func (m *model) check(idx int64, ackedAtSend uint32, v string, found bool) verdict {
	if !found || len(v) != 16 {
		// Every cell is prefilled, so a miss is an acknowledged write lost.
		if !found {
			return readStale
		}
		return readWrong
	}
	ver, err := strconv.ParseUint(v[:8], 16, 32)
	if err != nil {
		return readWrong
	}
	x, y := m.pos(idx)
	if m.value(x, y, uint32(ver)) != v || uint32(ver) > m.sent[idx].Load() {
		return readWrong
	}
	if uint32(ver) < ackedAtSend {
		return readStale
	}
	return readOK
}

// picker draws batches of distinct uniform cells from the cells one stream
// owns: indices congruent to part modulo parts.
type picker struct {
	rng         *rand.Rand
	m           *model
	part, parts int64
	idx         []int64
}

func newPicker(m *model, seed uint64, stream, part, parts int64) *picker {
	return &picker{rng: rand.New(rand.NewPCG(seed, uint64(stream)+0x5eed)), m: m, part: part, parts: parts}
}

// next fills p.idx with n distinct owned cell indices.
func (p *picker) next(n int) []int64 {
	owned := uint64(p.m.cells() / p.parts)
	p.idx = p.idx[:0]
	for len(p.idx) < n {
		c := int64(p.rng.Uint64N(owned))*p.parts + p.part
		dup := false
		for _, o := range p.idx {
			if o == c {
				dup = true
				break
			}
		}
		if !dup {
			p.idx = append(p.idx, c)
		}
	}
	return p.idx
}

// setOps builds the set ops writing the next version of each cell, and
// marks those versions sent.
func (m *model) setOps(ops []tabled.Op, idx []int64, vers []uint32) ([]tabled.Op, []uint32) {
	ops, vers = ops[:0], vers[:0]
	for _, i := range idx {
		ver := m.sent[i].Add(1)
		x, y := m.pos(i)
		ops = append(ops, tabled.Op{Op: "set", X: x, Y: y, V: m.value(x, y, ver)})
		vers = append(vers, ver)
	}
	return ops, vers
}

// getOps builds the get ops for idx and records the acknowledged version of
// each cell as of now, before the batch is sent.
func (m *model) getOps(ops []tabled.Op, idx []int64, vers []uint32) ([]tabled.Op, []uint32) {
	ops, vers = ops[:0], vers[:0]
	for _, i := range idx {
		x, y := m.pos(i)
		ops = append(ops, tabled.Op{Op: "get", X: x, Y: y})
		vers = append(vers, m.acked[i].Load())
	}
	return ops, vers
}
