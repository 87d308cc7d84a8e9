package route

// ShardedEngine is the production routing engine: the paper's greedy
// depth-first path hunt (Router.Connect, step for step) served in
// batches, with descents pruned by a per-epoch output-reachability guide.
//
// ConnectBatch serves a batch in input order. For each request it screens
// the endpoints, runs one live guided probe against the current claim
// state — exactly the sequential Router's view at that request's turn —
// and claims and installs the found path at once. Decisions and paths are
// therefore bit-identical to a sequential Router processing the same
// stream; the guide is the only difference, and its pruning is exact: a
// descent is skipped only when the guide proves no allowed-slot path
// leads from it to the target output, so the pop order and the prevEdge
// chain of every surviving vertex — hence the found path — are unchanged.
// The differential tests in sharded_test.go lock this down.
//
// The guide is derived from the CSR-slot traversal bytes once per mask
// epoch (rebuildGuide) and maintained incrementally between epochs: from
// a fault-free snapshot plus the trial's damage (MasksDamaged), or from
// the previous epoch's words plus a diff (MasksChangedDiff). Networks past
// the guide's width budget, and unleveled graphs, route unguided with
// Router's level cut instead.

import (
	"fmt"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// ShardedStats counts, cumulatively, how batches were served.
type ShardedStats struct {
	Batches, Requests, Accepted int64

	// FastPath counts every accept (each comes from one live probe), and
	// Fallbacks is always 0. Both are kept for the benchmark harness,
	// which still reads them.
	FastPath, Fallbacks int64

	// Reject breakdown: an endpoint busy or unusable at the request's
	// turn, or a guided probe that found no idle path. CommitRejects is
	// always 0, kept for the benchmark harness.
	EndpointRejects, ProbeRejects, CommitRejects int64

	// PrefilterRejects and PrefilterSweeps are always 0: the engine has no
	// prefilter (the output-reachability guide is its only pruning). They
	// are kept for the benchmark harness, which still reads them.
	PrefilterRejects, PrefilterSweeps int64
}

// ShardedEngine routes batches of connection requests with
// sequential-router semantics. See the comment at the top of this file
// for the algorithm. The zero value is not usable; construct with
// NewShardedEngine or NewRepairedShardedEngine. An engine is not safe for
// concurrent use: ConnectBatch/Disconnect/Reset calls must be serialized
// by the caller.
type ShardedEngine struct {
	g *graph.Graph

	// claims is the busy set (true = on a committed circuit). vertexOK
	// screens endpoints only (nil = every vertex usable); per-edge
	// admission lives in allowed, the CSR-slot traversal bytes — built
	// here by graph.BuildOutAllowed (the single source of truth for the
	// discard rule's traversal semantics) or adopted from a caller that
	// maintains them incrementally (SetMasksShared).
	claims   []bool
	vertexOK []bool
	allowed  []uint8

	// Probe scratch: epoch-stamped visited marks, the search's
	// predecessor edges, and the DFS stack, which holds the reversed
	// found path once the search ends.
	seenEpoch []uint32
	epoch     uint32
	prevEdge  []int32
	stack     []int32

	// committed circuits: the engines' shared per-input registry (one live
	// circuit per input terminal — an input is claimed while connected, so
	// a second circuit cannot coexist).
	circ circuits

	pathPool [][]int32

	// Word-parallel routing guide, rebuilt per mask epoch: reachOut holds
	// guideGroups lane words per vertex, bit (outIdx&63) of word
	// (outIdx>>6) set iff an allowed-slot path leads from the vertex to
	// that output, ignoring busy state. Probes prune descents the guide
	// proves hopeless; pruning is exact, so decisions are unchanged. nil
	// when the graph has no leveling or too many outputs.
	reachOut    []uint64
	guideGroups int
	outIdx      []int32 // per-vertex output index, -1 = not an output

	// Incremental guide maintenance (MasksDamaged, MasksChangedDiff): a
	// reverse-cone worklist over the leveling, a groups-wide row scratch,
	// and the opt-in width budget (lane words per vertex) that gates
	// whether the guide exists at all. guideLimit defaults to
	// maxGuideGroups; big-n callers raise it with SetGuideLimit.
	guideWl    *graph.LevelWorklist
	rowScratch []uint64
	guideLimit int

	// lv is the graph's topological leveling (graph.Levels), the iteration
	// contract behind the guide rebuild. nil only for cyclic graphs — the
	// cycle-safe fallback: probes still run (DFS needs no leveling), but
	// the guide stays off.
	lv *graph.Levels

	stats ShardedStats

	// faultFree is the guide of the fault-free network at the current
	// width — a pure function of the graph and guideLimit, built on the
	// first MasksDamaged and emptied by SetGuideLimit. MasksDamaged copies
	// it back and recomputes only the damage's reverse cone.
	faultFree []uint64
}

// maxGuideGroups bounds the guide's memory at 8 lane words (512 outputs)
// per vertex by default; larger networks route unguided unless the caller
// raises the budget with SetGuideLimit.
const maxGuideGroups = 8

// guideRebuildDivisor is the incremental-maintenance cutover: a change
// list (a diff, or a trial's damage) naming at least 1/guideRebuildDivisor
// of all edges falls back to the full rebuild, whose straight-line sweep
// beats worklist bookkeeping once most rows are dirty anyway. Purely a
// cost choice — both paths produce bit-identical guide words. DESIGN.md
// §2.13 has the measurement behind the value (BenchmarkGuideCutover, which
// alone changes it, through export_test.go).
var guideRebuildDivisor = 8

// NewShardedEngine returns an engine over the fault-free network g. The
// shard count is ignored; the parameter is kept for the benchmark
// harness.
func NewShardedEngine(g *graph.Graph, _ int) *ShardedEngine {
	return newShardedEngine(g, nil, g.BuildOutAllowed(nil, nil, nil))
}

// NewRepairedShardedEngine returns an engine over the network repaired from
// inst by the paper's discard rule. The shard count is ignored; the
// parameter is kept for the benchmark harness.
func NewRepairedShardedEngine(inst *fault.Instance, _ int) *ShardedEngine {
	usable, edgeOK := repairedMasks(inst)
	return newShardedEngine(inst.G, usable, inst.G.BuildOutAllowed(edgeOK, usable, nil))
}

func newShardedEngine(g *graph.Graph, vertexOK []bool, allowed []uint8) *ShardedEngine {
	n := g.NumVertices()
	se := &ShardedEngine{
		g:         g,
		claims:    make([]bool, n),
		vertexOK:  vertexOK,
		allowed:   allowed,
		seenEpoch: make([]uint32, n),
		prevEdge:  make([]int32, n),
		stack:     make([]int32, 0, 256),
		outIdx:    make([]int32, n),
	}
	se.circ.init(n)
	for v := range se.outIdx {
		se.outIdx[v] = -1
	}
	for i, v := range g.Outputs() {
		se.outIdx[v] = int32(i)
	}
	se.lv, _ = g.Levels()
	se.guideLimit = maxGuideGroups
	if se.lv != nil {
		se.guideWl = graph.NewLevelWorklist(se.lv, n)
	}
	se.rebuildGuide()
	return se
}

// Close is a no-op: the engine holds no goroutines or other resources
// beyond memory. Kept for the benchmark harness.
func (se *ShardedEngine) Close() {}

// ShardedStats returns the cumulative engine-specific serving counters
// (the reject breakdown).
func (se *ShardedEngine) ShardedStats() ShardedStats { return se.stats }

// Stats returns the engine-neutral serving counters (the Engine seam);
// ShardedStats has the detailed breakdown.
func (se *ShardedEngine) Stats() EngineStats {
	return EngineStats{
		Batches:  se.stats.Batches,
		Requests: se.stats.Requests,
		Accepted: se.stats.Accepted,
		Rejected: se.stats.Requests - se.stats.Accepted,
	}
}

// ConnectBatch routes reqs in input order with sequential-router
// semantics, reusing res (grown as needed) and returning per-request
// results in input order. Result.Path is pooled: valid until that circuit
// is disconnected.
//
//ftcsn:hotpath the Engine-seam batch entry point; steady-state allocs are pinned by BenchmarkShardedChurn
func (se *ShardedEngine) ConnectBatch(reqs []Request, res []Result) []Result {
	res = growResults(res, len(reqs))
	if len(reqs) == 0 {
		return res
	}
	se.stats.Batches++
	se.stats.Requests += int64(len(reqs))
	for i, rq := range reqs {
		res[i] = Result{Request: rq}
		if !se.usableVertex(rq.In) || !se.usableVertex(rq.Out) ||
			se.claims[rq.In] || se.claims[rq.Out] {
			se.stats.EndpointRejects++
			continue
		}
		if !se.probe(rq.In, rq.Out) {
			se.stats.ProbeRejects++
			continue
		}
		res[i].Path = se.commit(rq)
	}
	return res
}

// MasksChanged rebuilds the output-reachability guide from the already
// adopted traversal bytes without touching claims or circuits — the call
// an incremental mask maintainer (core.MaskUpdater's in-place updates)
// must make after mutating the shared bytes between batches. Skipping it
// after a byte change breaks the sequential-parity contract: the probes
// read the bytes live, but a stale guide prunes wrongly. It is the
// full-sweep fallback of MasksDamaged and MasksChangedDiff: callers that
// know the damage or the exact change lists should prefer those, which
// cost O(#changes) instead of O(E·groups).
func (se *ShardedEngine) MasksChanged() { se.rebuildGuide() }

// MasksDamaged brings the guide up to date for masks that differ from the
// fault-free network exactly at the given damage: the discarded vertices
// and the blocked edges (core.MaskUpdater.Stamp's return values). It
// copies the fault-free guide back — built on the first call, then kept —
// and recomputes only the damage's reverse cone with MasksChangedDiff's
// cone code, so its cost follows this trial's damage however different
// the previous trial's masks were. Damage past the cutover takes the full
// rebuild instead. The result is bit-identical to a full rebuild (locked
// by TestIncrementalGuideMatchesRebuild).
//
// The lists may safely over-approximate but must cover every edge whose
// byte differs from the fault-free network. Like MasksChanged, it must be
// called between batches, never concurrently with ConnectBatch.
//
//ftcsn:hotpath per-trial guide refresh of the batched pipeline — O(damage), not O(E)
func (se *ShardedEngine) MasksDamaged(vertices, edges []int32) {
	if se.reachOut == nil {
		// No guide is derived from the bytes (unleveled graph, too many
		// outputs, or detached masks); the routers read the bytes live.
		return
	}
	if (len(vertices)+len(edges))*guideRebuildDivisor >= se.g.NumEdges() {
		se.rebuildGuide()
		return
	}
	if len(se.faultFree) == 0 {
		// First use at this width: the fault-free guide is the full
		// rebuild over fault-free bytes.
		live := se.allowed
		se.allowed = se.g.BuildOutAllowed(nil, nil, nil)
		se.rebuildGuide()
		se.faultFree = append(se.faultFree[:0], se.reachOut...)
		se.allowed = live
	}
	copy(se.reachOut, se.faultFree)
	se.MasksChangedDiff(vertices, edges)
}

// MasksChangedDiff brings the guide up to date after an in-place edit of
// the shared traversal bytes, given the exact change lists a mask
// maintainer already has (core.MaskUpdater.Apply returns the recomputed
// edge IDs; ChangedVertices the usability flips): instead of the O(E·
// groups) full sweep, it recomputes only the reverse cone of the diff.
// The worklist is seeded with the tails of the changed edges (a changed
// slot byte affects exactly its tail's row) plus the changed vertices,
// and drained in descending level order — every pending successor is
// final before a row is recomputed — re-deriving each dirty row from the
// forward CSR and waking a row's predecessors (reverse CSR) only when its
// words actually changed. Rows outside the cone are untouched, so the
// result is bit-identical to a full rebuild (locked by
// TestIncrementalGuideMatchesRebuild and FuzzIncrementalGuide; soundness
// argument in DESIGN.md §2.13).
//
// The lists may safely over-approximate (extra entries recompute to
// unchanged rows and early-out) but must cover every edge whose byte
// changed since the guide was last current. Like MasksChanged, it must be
// called between batches, never concurrently with ConnectBatch.
//
//ftcsn:hotpath per-epoch guide maintenance — the O(#changes) replacement for the full rebuild
func (se *ShardedEngine) MasksChangedDiff(vertices, edges []int32) {
	if se.reachOut == nil {
		// No guide is derived from the bytes (unleveled graph, too many
		// outputs, or detached masks); the routers read the bytes live.
		return
	}
	if (len(vertices)+len(edges))*guideRebuildDivisor >= se.g.NumEdges() {
		se.rebuildGuide()
		return
	}
	wl := se.guideWl
	wl.Begin()
	for _, e := range edges {
		wl.Push(se.g.EdgeFrom(e))
	}
	for _, v := range vertices {
		wl.Push(v)
	}
	groups := se.guideGroups
	start, _, heads := se.g.CSROut()
	rstart, redges, tails := se.g.CSRIn()
	outSlotOf := se.g.OutSlot
	allowed := se.allowed
	scratch := se.rowScratch[:groups]
	for v, ok := wl.Next(); ok; v, ok = wl.Next() {
		// Re-derive v's row from the forward CSR — the same per-vertex
		// body as rebuildGuide, into scratch so the old row survives for
		// the change test.
		clear(scratch)
		if oi := se.outIdx[v]; oi >= 0 {
			scratch[int(oi)>>6] |= 1 << (uint(oi) & 63)
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			c := allowed[idx]
			w := heads[idx]
			if c == 0 {
				wrow := se.reachOut[int(w)*groups : int(w)*groups+groups]
				for g := range scratch {
					scratch[g] |= wrow[g]
				}
			} else if c == graph.AdjTerminal {
				if oi := se.outIdx[w]; oi >= 0 {
					scratch[int(oi)>>6] |= 1 << (uint(oi) & 63)
				}
			}
		}
		row := se.reachOut[int(v)*groups : int(v)*groups+groups]
		changed := false
		for g := range scratch {
			if row[g] != scratch[g] {
				changed = true
				break
			}
		}
		if !changed {
			// Early-out: predecessors read exactly these words, so the
			// cone is pruned here.
			continue
		}
		copy(row, scratch)
		// Wake the predecessors that read v's row: tails of currently
		// open (c == 0) slots into v. Blocked slots contribute nothing,
		// and terminal slots read only v's static output bit — and any
		// tail whose slot byte itself changed is already seeded.
		for idx := rstart[v]; idx < rstart[v+1]; idx++ {
			if allowed[outSlotOf(redges[idx])] == 0 {
				wl.Push(tails[idx])
			}
		}
	}
}

// SetGuideLimit sets the guide's width budget in 64-output lane words and
// rebuilds the guide under it. The default budget (8 words = 512 outputs)
// keeps the guide's memory negligible at paper scale; big-n networks —
// where incremental maintenance makes a wide guide affordable — opt in to
// a larger budget. groups <= 0 disables the guide; pruning is exact, so
// the budget never changes decisions, only probe cost.
func (se *ShardedEngine) SetGuideLimit(groups int) {
	se.guideLimit = groups
	se.faultFree = se.faultFree[:0]
	se.rebuildGuide()
}

// GuideWords exposes the output-reachability guide (the Engine seam): the
// packed rows (guideGroups words per vertex, bit i of a row for
// g.Outputs()[i]; nil when the guide is off) and the per-vertex word
// count. Read-only; contents are valid only until the next mask epoch.
func (se *ShardedEngine) GuideWords() ([]uint64, int) {
	return se.reachOut, se.guideGroups
}

// ActiveCircuits returns the number of committed circuits.
func (se *ShardedEngine) ActiveCircuits() int { return len(se.circ.ins) }

// PathOf returns the committed path for (in, out), or nil. The slice is
// pooled: valid only until the circuit is disconnected.
func (se *ShardedEngine) PathOf(in, out int32) []int32 {
	return se.circ.lookup(in, out)
}

// SetMasksShared adopts the usable-vertex mask and the caller-maintained
// CSR-slot traversal byte array — the slices core.MaskUpdater keeps
// current between trials, with the same signature as
// Router.SetMasksShared — releases every committed circuit, and rebuilds
// the routing guide for the new mask epoch. Per-switch usability is
// consumed only through the traversal bytes (vertexOK screens endpoints),
// so edgeOK is unused. Slices are adopted without copying. Callers that
// mutate the shared bytes in place afterwards must call MasksChanged (or
// MasksDamaged, or MasksChangedDiff) before the next ConnectBatch.
func (se *ShardedEngine) SetMasksShared(vertexOK, edgeOK []bool, outAllowed []uint8) {
	se.circ.drain(func(_ int32, path []int32) { se.retirePath(path) })
	se.vertexOK = vertexOK
	se.allowed = outAllowed
	clear(se.claims)
	se.rebuildGuide()
}

// Reset releases every committed circuit, keeping buffers and masks.
func (se *ShardedEngine) Reset() {
	se.circ.drain(func(_ int32, path []int32) {
		se.release(path)
		se.retirePath(path)
	})
}

// Disconnect releases the committed circuit between in and out.
func (se *ShardedEngine) Disconnect(in, out int32) error {
	path, ok := se.circ.remove(in, out)
	if !ok {
		return fmt.Errorf("route: no circuit (%d,%d)", in, out)
	}
	se.release(path)
	se.retirePath(path)
	return nil
}

// release frees the claims on the vertices of an established path.
func (se *ShardedEngine) release(path []int32) {
	for _, v := range path {
		se.claims[v] = false
	}
}

// usableVertex is the endpoint admission screen.
func (se *ShardedEngine) usableVertex(v int32) bool {
	//ftlint:ignore seamcontract audited endpoint-admission accessor: vertexOK gates terminals only; per-edge admission stays in the traversal bytes
	return se.vertexOK == nil || se.vertexOK[v]
}

// commit claims the path the last successful probe left reversed on the
// stack, installs it as a live circuit, and returns its pooled copy.
func (se *ShardedEngine) commit(rq Request) []int32 {
	rev := se.stack
	path := se.newPath(len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
		se.claims[v] = true
	}
	se.circ.install(rq.In, rq.Out, path)
	se.stats.Accepted++
	se.stats.FastPath++
	return path
}

// probe runs the same greedy depth-first idle-path hunt as Router.Connect
// on endpoints the caller has screened, pruning descents the
// output-reachability guide proves hopeless (exact, so completeness and
// the found path are unchanged). On success the path is left reversed
// (out … in) in se.stack.
func (se *ShardedEngine) probe(in, out int32) bool {
	se.epoch++
	if se.epoch == 0 {
		clear(se.seenEpoch)
		se.epoch = 1
	}
	start, edges, heads := se.g.CSROut()
	allowed := se.allowed
	claims := se.claims
	guide := se.reachOut
	groups := se.guideGroups
	var gslot int
	var gbit uint64
	if guide != nil {
		oi := se.outIdx[out]
		if oi < 0 {
			guide = nil
		} else {
			gslot = int(oi) >> 6
			gbit = 1 << (uint(oi) & 63)
		}
	}
	// Unguided probes keep the leveling's exact reachability cut (the same
	// prune as Router.Connect): a non-output vertex at level(out) or above
	// can never reach out. Guided probes skip it — the guide subsumes the
	// cut exactly (such a vertex's row cannot hold out's bit).
	var lvl []int32
	var outLvl int32
	if guide == nil && se.lv != nil {
		lvl = se.lv.PerVertex()
		outLvl = lvl[out]
	}
	seen, epoch := se.seenEpoch, se.epoch
	seen[in] = epoch
	se.stack = append(se.stack[:0], in)
	found := false
	for len(se.stack) > 0 && !found {
		v := se.stack[len(se.stack)-1]
		se.stack = se.stack[:len(se.stack)-1]
		for idx := start[v]; idx < start[v+1]; idx++ {
			w := heads[idx]
			c := allowed[idx]
			if !graph.SlotAdmits(c, w, out) {
				continue
			}
			if c == 0 && guide != nil && guide[int(w)*groups+gslot]&gbit == 0 {
				continue
			}
			if lvl != nil && w != out && lvl[w] >= outLvl {
				continue
			}
			if seen[w] == epoch || claims[w] {
				continue
			}
			seen[w] = epoch
			se.prevEdge[w] = edges[idx]
			if w == out {
				found = true
				break
			}
			se.stack = append(se.stack, w)
		}
	}
	if !found {
		return false
	}
	// The stack is free after the search, so it holds the reversed path.
	se.stack = se.stack[:0]
	for v := out; ; {
		se.stack = append(se.stack, v)
		if v == in {
			break
		}
		v = se.g.EdgeFrom(se.prevEdge[v])
	}
	return true
}

// newPath returns an n-element pooled path slice.
func (se *ShardedEngine) newPath(n int) []int32 {
	for len(se.pathPool) > 0 {
		last := len(se.pathPool) - 1
		p := se.pathPool[last]
		se.pathPool = se.pathPool[:last]
		if cap(p) >= n {
			return p[:n]
		}
	}
	//ftlint:ignore hotpath pool-miss fallback: steady-state churn recycles retired paths, so this is first-use only
	return make([]int32, n)
}

func (se *ShardedEngine) retirePath(p []int32) {
	se.pathPool = append(se.pathPool, p)
}

// rebuildGuide recomputes the per-epoch output-reachability words from the
// current traversal bytes: one pass over vertices in reverse level order
// (graph.Levels; plain descending IDs on level-sorted graphs), OR-ing
// successor words through allowed slots, with AdjTerminal slots
// contributing the head's output bit. O(E·groups) word operations.
func (se *ShardedEngine) rebuildGuide() {
	nOut := len(se.g.Outputs())
	groups := (nOut + 63) >> 6
	if se.lv == nil || nOut == 0 || groups > se.guideLimit {
		se.reachOut = nil
		se.guideGroups = 0
		return
	}
	n := se.g.NumVertices()
	if cap(se.reachOut) < n*groups {
		//ftlint:ignore hotpath first-build fallback: steady-state epochs reuse the guide's capacity
		se.reachOut = make([]uint64, n*groups)
	} else {
		se.reachOut = se.reachOut[:n*groups]
		clear(se.reachOut)
	}
	se.guideGroups = groups
	if cap(se.rowScratch) < groups {
		//ftlint:ignore hotpath first-build fallback: steady-state epochs reuse the row scratch's capacity
		se.rowScratch = make([]uint64, groups)
	}
	start, _, heads := se.g.CSROut()
	allowed := se.allowed
	order := se.lv.Order()
	// Reverse level order: every successor (strictly higher level, hence a
	// later position) is finalized before v's row reads it.
	for p := int32(n) - 1; p >= 0; p-- {
		v := p
		if order != nil {
			v = order[p]
		}
		row := se.reachOut[int(v)*groups : int(v)*groups+groups]
		if oi := se.outIdx[v]; oi >= 0 {
			row[int(oi)>>6] |= 1 << (uint(oi) & 63)
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			c := allowed[idx]
			w := heads[idx]
			if c == 0 {
				wrow := se.reachOut[int(w)*groups : int(w)*groups+groups]
				for g := range row {
					row[g] |= wrow[g]
				}
			} else if c == graph.AdjTerminal {
				if oi := se.outIdx[w]; oi >= 0 {
					row[int(oi)>>6] |= 1 << (uint(oi) & 63)
				}
			}
		}
	}
}

// VerifyState checks that the claim array is exactly the union of the
// committed circuits' vertices and that those circuits are vertex-disjoint
// valid paths — the engine's analogue of Router.VerifyInvariants. Used by
// tests and the stress harness.
func (se *ShardedEngine) VerifyState() error {
	owner := make(map[int32]int32, len(se.circ.ins)*8)
	for _, in := range se.circ.ins {
		path := se.circ.path[in]
		out := se.circ.out[in]
		if len(path) < 2 || path[0] != in || path[len(path)-1] != out {
			return fmt.Errorf("route: malformed committed path for (%d,%d)", in, out)
		}
		for i, v := range path {
			if prev, dup := owner[v]; dup {
				return fmt.Errorf("route: vertex %d on circuits of inputs %d and %d", v, prev, in)
			}
			owner[v] = in
			if !se.claims[v] {
				return fmt.Errorf("route: committed path vertex %d not claimed", v)
			}
			if i > 0 {
				ok := false
				for _, e := range se.g.OutEdges(path[i-1]) {
					if se.g.EdgeTo(e) == v {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("route: no switch %d->%d on committed path", path[i-1], v)
				}
			}
		}
	}
	for v, claimed := range se.claims {
		if claimed {
			if _, ok := owner[int32(v)]; !ok {
				return fmt.Errorf("route: vertex %d claimed but on no circuit", v)
			}
		}
	}
	return nil
}
