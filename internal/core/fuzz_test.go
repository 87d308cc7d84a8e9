package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

var fuzzNetOnce = sync.OnceValues(func() (*Network, error) {
	return Build(DefaultParams(1))
})

// FuzzBatchedMajorityAccess drives the word-parallel certifier against the
// per-terminal BFS under fuzzed edge-state sequences. The network is
// DefaultParams(1) — n=4 terminals, NOT divisible by 64, so every run
// exercises a partial lane strip. Input encoding: byte 0 picks the strip
// width (1..64 lanes); the rest are records of 3 bytes (edgeLo, edgeHi,
// state mod 3). After each record the incrementally maintained masks are
// recertified both ways and the reports must be bit-identical.
func FuzzBatchedMajorityAccess(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})                                     // width 1
	f.Add([]byte{0x3F, 0x05, 0x00, 0x01})                   // width 64, one open edge
	f.Add([]byte{0x06, 0x00, 0x00, 0x02, 0x10, 0x00, 0x01}) // width 7, closed + open
	f.Add([]byte{
		0x02, // width 3: partial strips even for n=4
		0x40, 0x01, 0x02, 0x41, 0x01, 0x01, 0x42, 0x01, 0x02,
		0x40, 0x01, 0x00, 0xff, 0xff, 0x01,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := fuzzNetOnce()
		if err != nil {
			t.Skip(err)
		}
		g := nw.G
		nE := int32(g.NumEdges())

		width := 64
		if len(data) > 0 {
			width = int(data[0]&0x3F) + 1
			data = data[1:]
		}
		inst := fault.NewInstance(g)
		mu := NewMaskUpdater(g)
		ac := NewAccessChecker(nw)
		bc := NewBatchAccessChecker(nw)
		if !bc.Supported() {
			t.Fatal("Network 𝒩 must be stage-ordered")
		}
		bc.lanes = width
		var m Masks
		mu.Init(inst, &m)

		var word, bfs MajorityReport
		check := func(step int) {
			t.Helper()
			if !bc.MajorityAccessInto(m, &word) {
				t.Fatalf("step %d: word-parallel path declined applicable masks", step)
			}
			nw.majorityAccessBFS(ac, m, &bfs)
			if why, ok := reportsEqual(&word, &bfs); !ok {
				t.Fatalf("step %d (width %d): word-parallel vs BFS: %s", step, width, why)
			}
		}
		check(-1)
		var diff []fault.DiffEntry
		for i := 0; i+2 < len(data); i += 3 {
			e := int32(binary.LittleEndian.Uint16(data[i:])) % nE
			s := fault.State(data[i+2] % 3)
			if old := inst.Edge[e]; old != s {
				inst.SetState(e, s)
				diff = append(diff[:0], fault.DiffEntry{Edge: e, Old: old, New: s})
				mu.Apply(inst, &m, diff)
				check(i)
			}
		}
	})
}

// FuzzIncrementalRepairMasks drives MaskUpdater with random edge-state
// flip sequences — applied one flip at a time and in multi-entry batches,
// including edges flipped more than once per batch — and asserts the
// incrementally maintained masks (VertexOK, EdgeOK, and both CSR-aligned
// traversal byte arrays) always equal a from-scratch RepairMasksInto
// rebuild. Input encoding: records of 3 bytes (edgeLo, edgeHi, op); op
// bits 0-1 pick the new state (mod 3), bit 2 flushes the accumulated
// batch through Apply, bit 3 forces a full cross-check.
//
// A second arm covers Stamp, the batched pipeline's baseline + damage
// form: the same records, split by op bit 4 into a prior and a next
// failure list, are stamped right after Init on the faulted instance the
// first arm left, then in turn, and every stamp must equal the rebuild of
// an instance failing exactly that list's switches — with the returned
// damage naming each discarded vertex and blocked edge once.
func FuzzIncrementalRepairMasks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x05, 0x00, 0x00, 0x04})
	f.Add([]byte{
		0x10, 0x00, 0x01, 0x11, 0x00, 0x02, 0x12, 0x00, 0x04,
		0x10, 0x00, 0x00, 0x10, 0x00, 0x06,
	})
	f.Add([]byte{
		0x40, 0x01, 0x02, 0x40, 0x01, 0x01, 0x40, 0x01, 0x00, 0x40, 0x01, 0x0e,
		0xff, 0xff, 0x05, 0x00, 0x01, 0x09,
	})
	f.Add([]byte{
		0x10, 0x00, 0x01, 0x20, 0x00, 0x11, 0x10, 0x00, 0x12, 0x33, 0x01, 0x1a,
		0x21, 0x00, 0x02, 0x21, 0x00, 0x11, 0x00, 0x00, 0x15,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := fuzzNetOnce()
		if err != nil {
			t.Skip(err)
		}
		g := nw.G
		nE := int32(g.NumEdges())

		inst := fault.NewInstance(g)
		mu := NewMaskUpdater(g)
		var m Masks
		mu.Init(inst, &m)

		check := func(step int) {
			t.Helper()
			checkMasksMatchRebuild(t, fmt.Sprint("step ", step), g, &m, inst)
		}

		var diff []fault.DiffEntry
		flush := func(step int) {
			if len(diff) == 0 {
				return
			}
			mu.Apply(inst, &m, diff)
			diff = diff[:0]
			_ = step
		}
		for i := 0; i+2 < len(data); i += 3 {
			e := int32(binary.LittleEndian.Uint16(data[i:])) % nE
			op := data[i+2]
			s := fault.State(op & 3 % 3)
			if old := inst.Edge[e]; old != s {
				inst.SetState(e, s)
				diff = append(diff, fault.DiffEntry{Edge: e, Old: old, New: s})
			}
			if op&4 != 0 {
				flush(i)
			}
			if op&8 != 0 {
				flush(i)
				check(i)
			}
		}
		flush(len(data))
		check(len(data))

		var prior, next []int32
		for i := 0; i+2 < len(data); i += 3 {
			e := int32(binary.LittleEndian.Uint16(data[i:])) % nE
			if data[i+2]&16 == 0 {
				prior = append(prior, e)
			} else {
				next = append(next, e)
			}
		}
		smu := NewMaskUpdater(g)
		var sm Masks
		smu.Init(inst, &sm)
		want := fault.NewInstance(g)
		stamp := func(step string, list []int32) {
			t.Helper()
			vs, es := smu.Stamp(&sm, list)
			want.Reset()
			for i, e := range list {
				want.SetState(e, fault.State(1+i%2))
			}
			checkMasksMatchRebuild(t, step, g, &sm, want)
			checkDamage(t, step, &sm, vs, es)
		}
		stamp("stamp after Init", prior)
		stamp("stamp next", next)
		stamp("stamp prior again", prior)
		stamp("stamp empty", nil)
	})
}

// checkMasksMatchRebuild requires m — VertexOK, EdgeOK and both traversal
// byte arrays — to equal a from-scratch RepairMasksInto + Build*Allowed of
// inst byte for byte.
func checkMasksMatchRebuild(t *testing.T, step string, g *graph.Graph, m *Masks, inst *fault.Instance) {
	t.Helper()
	var want Masks
	RepairMasksInto(inst, &want)
	for v := range want.VertexOK {
		if m.VertexOK[v] != want.VertexOK[v] {
			t.Fatalf("%s: VertexOK[%d] = %v, rebuild says %v", step, v, m.VertexOK[v], want.VertexOK[v])
		}
	}
	for e := range want.EdgeOK {
		if m.EdgeOK[e] != want.EdgeOK[e] {
			t.Fatalf("%s: EdgeOK[%d] = %v, rebuild says %v", step, e, m.EdgeOK[e], want.EdgeOK[e])
		}
	}
	wantOut := g.BuildOutAllowed(want.EdgeOK, want.VertexOK, nil)
	wantIn := g.BuildInAllowed(want.EdgeOK, want.VertexOK, nil)
	for i := range wantOut {
		if m.OutAllowed[i] != wantOut[i] {
			t.Fatalf("%s: OutAllowed[%d] = %#x, rebuild says %#x", step, i, m.OutAllowed[i], wantOut[i])
		}
		if m.InAllowed[i] != wantIn[i] {
			t.Fatalf("%s: InAllowed[%d] = %#x, rebuild says %#x", step, i, m.InAllowed[i], wantIn[i])
		}
	}
}

// checkDamage requires Stamp's damage lists to name exactly the vertices m
// discards and the edges it blocks, each once.
func checkDamage(t *testing.T, step string, m *Masks, vs, es []int32) {
	t.Helper()
	seenV := make(map[int32]bool, len(vs))
	for _, v := range vs {
		if seenV[v] || m.VertexOK[v] {
			t.Fatalf("%s: damage vertex %d listed twice or not discarded", step, v)
		}
		seenV[v] = true
	}
	seenE := make(map[int32]bool, len(es))
	for _, e := range es {
		if seenE[e] || m.EdgeOK[e] {
			t.Fatalf("%s: damage edge %d listed twice or not blocked", step, e)
		}
		seenE[e] = true
	}
	for v, ok := range m.VertexOK {
		if !ok && !seenV[int32(v)] {
			t.Fatalf("%s: discarded vertex %d missing from the damage", step, v)
		}
	}
	for e, ok := range m.EdgeOK {
		if !ok && !seenE[int32(e)] {
			t.Fatalf("%s: blocked edge %d missing from the damage", step, e)
		}
	}
}
